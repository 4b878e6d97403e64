"""The redesigned public surface: factories and __all__."""

import pytest

import repro
import repro.sharing
from repro.apps.text_editor import TextEditorApp
from repro.obs import Instrumentation
from repro.rtp.clock import SimulatedClock
from repro.sharing import (
    Participant,
    SharingConfig,
    SharingService,
    SignallingBinding,
    host,
    join,
)
from repro.surface.geometry import Rect


def small_host(**kwargs):
    return host(
        config=SharingConfig(adaptive_codec=False),
        screen_width=320,
        screen_height=240,
        **kwargs,
    )


class TestFactories:
    def test_host_builds_clock_ah_and_service(self):
        service = small_host()
        assert isinstance(service, SharingService)
        assert isinstance(service.clock, SimulatedClock)
        assert service.ah.windows.screen.width == 320

    def test_join_establishes_and_converges(self):
        service = small_host()
        window = service.ah.windows.create_window(Rect(10, 10, 160, 120))
        editor = TextEditorApp(window)
        service.ah.apps.attach(editor)
        viewer = join(service, "alice")
        assert isinstance(viewer, Participant)
        editor.type_text("through the factory api")
        for _ in range(400):
            service.advance(0.02)
            if viewer.converged_with(service.ah.windows):
                break
        assert viewer.converged_with(service.ah.windows)

    def test_join_udp_preference_pins_datagram_media(self):
        service = small_host()
        join(service, "alice", prefer_transport="udp")
        assert not service.ah.sessions["alice"].transport.reliable

    def test_join_failure_raises_with_round_budget(self):
        service = small_host()
        with pytest.raises(RuntimeError, match="did not establish"):
            join(service, "mute", max_rounds=0)  # no rounds to handshake
        # Inviting the same name twice is rejected outright.
        service.invite("alice")
        with pytest.raises(ValueError, match="already exists"):
            service.invite("alice")

    def test_top_level_exports(self):
        assert repro.host is repro.sharing.host
        assert repro.join is repro.sharing.join
        for name in ("host", "join", "SessionServer", "SharingService",
                     "SignallingBinding"):
            assert name in repro.sharing.__all__
        for name in ("host", "join", "quick_session"):
            assert name in repro.__all__

    def test_host_binds_obs_clock(self):
        obs = Instrumentation()
        service = small_host(obs=obs)
        join(service, "alice")
        service.advance(0.02)
        assert obs.registry.total("scheduler.packets_sent") > 0


class TestInviteShim:
    def test_modern_invite_returns_service_owned_binding(self):
        service = small_host()
        binding = service.invite("alice")
        assert isinstance(binding, SignallingBinding)
        assert binding.name == "alice"
        assert service.binding_for("alice") is binding
