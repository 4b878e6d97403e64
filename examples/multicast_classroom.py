#!/usr/bin/env python3
"""E-learning broadcast: one instructor, a multicast classroom.

The draft's e-learning motivation at scale: an instructor AH shares a
terminal (a live coding demo) to a simulated multicast group.  Students
join and leave mid-lecture (PLI bootstraps them), per-student loss is
repaired with NACK retransmissions over unicast feedback channels, and
the AH encodes each update exactly once no matter how many students
watch.

Run:  python examples/multicast_classroom.py
"""

from repro.apps import TerminalApp
from repro.net.channel import ChannelConfig, duplex_lossy
from repro.net.multicast import MulticastGroup
from repro.rtp.clock import SimulatedClock
from repro.sharing import (
    ApplicationHost,
    DatagramTransport,
    MulticastSenderTransport,
    Participant,
)
from repro.surface import Rect


class Classroom:
    """Wires students into one multicast group with unicast feedback."""

    def __init__(self, clock, ah):
        self.clock = clock
        self.ah = ah
        self.group = MulticastGroup(
            ChannelConfig(delay=0.02, loss_rate=0.05, seed=100), clock.now
        )
        ah.add_participant(
            "classroom", MulticastSenderTransport(self.group), is_group=True
        )
        self.session = ah.sessions["classroom"]
        self.students: dict[str, Participant] = {}
        self._feedback = {}

    def enroll(self, name: str) -> Participant:
        member_channel = self.group.subscribe(name)
        feedback = duplex_lossy(
            ChannelConfig(delay=0.02, seed=hash(name) % 1000), self.clock.now
        )
        self._feedback[name] = feedback
        student = Participant(
            name,
            DatagramTransport(feedback.backward, member_channel),
            clock=self.clock.now,
            config=self.ah.config,
        )
        student.join()  # PLI announces the newcomer
        self.students[name] = student
        return student

    def drop_out(self, name: str) -> None:
        self.group.unsubscribe(name)
        self.students.pop(name, None)
        self._feedback.pop(name, None)

    def pump_feedback(self) -> None:
        """Unicast PLI/NACK feedback reaches the AH out-of-band."""
        for feedback in self._feedback.values():
            for packet in feedback.backward.receive_ready():
                self.ah._handle_rtcp(self.session.participant_id, packet)

    def run(self, rounds: int, on_round=None) -> None:
        for i in range(rounds):
            self.pump_feedback()
            if on_round is not None:
                on_round(i)
            self.ah.advance(0.02)
            self.clock.advance(0.02)
            for student in self.students.values():
                student.process_incoming()


def main() -> None:
    clock = SimulatedClock()
    ah = ApplicationHost(clock=clock.now)
    window = ah.windows.create_window(Rect(60, 40, 560, 400), title="live demo")
    terminal = TerminalApp(window)
    ah.apps.attach(terminal)
    classroom = Classroom(clock, ah)

    for name in ("ada", "grace", "edsger"):
        classroom.enroll(name)
    print(f"lecture starts with {len(classroom.students)} students")

    lines = 0

    def lecture(i):
        nonlocal lines
        if i % 4 == 0:
            terminal.append_line(f"$ demo step {lines}: refactor module_{lines % 7}")
            lines += 1

    classroom.run(150, on_round=lecture)
    classroom.run(60)  # quiet tail so in-flight NACK repairs land
    print("mid-lecture state:",
          {n: s.converged_with(ah.windows) for n, s in classroom.students.items()})

    print("'barbara' joins late — a PLI fetches the whole screen state")
    classroom.enroll("barbara")
    classroom.run(100, on_round=lecture)
    print("  barbara converged:",
          classroom.students["barbara"].converged_with(ah.windows))
    print(f"  PLIs handled by the AH so far: {ah.plis_received}")

    print("'edsger' leaves; lecture continues")
    classroom.drop_out("edsger")
    classroom.run(150, on_round=lecture)

    print("\nfinal state:")
    for name, student in classroom.students.items():
        print(
            f"  {name:8s} converged={student.converged_with(ah.windows)} "
            f"updates={student.updates_applied} nacks={student.nacks_sent}"
        )
    sent = classroom.session.scheduler.bytes_sent
    print(
        f"\nAH encoded/sent {sent / 1024:.1f} KiB once for the whole group "
        f"({classroom.group.datagrams_sent} multicast datagrams, "
        f"{ah.nacks_received} NACKs repaired via unicast)"
    )


if __name__ == "__main__":
    main()
