"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``  — run a short self-contained sharing session and report
  convergence (the quickstart, without needing the examples/ tree);
* ``offer`` — print the AH's SDP offer (section 10.3 shape);
* ``info``  — version, registered message types, and available codecs.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import quick_session
    from .apps import TextEditorApp
    from .net.world import World, receive
    from .surface import Rect

    ah, participant, clock = quick_session()
    window = ah.windows.create_window(Rect(220, 150, 350, 450), group_id=1)
    editor = TextEditorApp(window)
    ah.apps.attach(editor)
    editor.type_text("demo: screen flows AH -> participant")

    world = World(clock, 0.02)
    world.add(ah.advance, world.tick, receive([participant]))
    world.run(60)
    print(f"window {window.window_id} shared at {window.rect.as_tuple()}")
    print(f"converged pixel-exact: {participant.converged_with(ah.windows)}")
    participant.type_text(window.window_id, " / HIP flows back")
    world.run(60)
    print(f"editor text at AH: {editor.text()!r}")
    ok = participant.converged_with(ah.windows)
    print(f"final convergence: {ok}")
    return 0 if ok else 1


def _cmd_offer(args: argparse.Namespace) -> int:
    from .sdp import build_ah_offer

    offer = build_ah_offer(
        remoting_port=args.port,
        hip_port=args.port + 6,
        retransmissions=not args.no_retransmissions,
        codecs=args.codecs.split(",") if args.codecs else None,
    )
    sys.stdout.write(offer.to_string())
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from . import __version__
    from .codecs import default_registry
    from .core.registry import hip_registry, remoting_registry

    print(f"repro {__version__} — RTP payload format for application "
          "and desktop sharing")
    print("\nRemoting message types (Table 1):")
    for entry in remoting_registry().entries():
        print(f"  {entry.value:>3}  {entry.name}")
    print("\nHIP message types (Table 3):")
    for entry in hip_registry().entries():
        print(f"  {entry.value:>3}  {entry.name}")
    print("\nImage codecs (RegionUpdate payload types):")
    registry = default_registry()
    for pt in registry.payload_types():
        codec = registry.by_payload_type(pt)
        kind = "lossless" if codec.lossless else "lossy"
        print(f"  PT {pt:>3}  {codec.name} ({kind})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Application and desktop sharing over RTP "
        "(Boyaci & Schulzrinne reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a short self-test session")
    demo.set_defaults(func=_cmd_demo)

    offer = sub.add_parser("offer", help="print the AH's SDP offer")
    offer.add_argument("--port", type=int, default=6000,
                       help="remoting port (default 6000)")
    offer.add_argument("--no-retransmissions", action="store_true",
                       help="advertise retransmissions=no")
    offer.add_argument("--codecs", default="",
                       help="comma-separated codec list for the fmtp line")
    offer.set_defaults(func=_cmd_offer)

    info = sub.add_parser("info", help="show registries and codecs")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
