"""The session registry: join codes → hosted sessions.

One :class:`SessionRegistry` per :class:`~repro.sharing.server.SessionServer`
maps short human-typable join codes to live sessions.  Codes are drawn
from an unambiguous alphabet (no ``0/O``, ``1/I/L``) with a seeded RNG
so simulations stay deterministic; callers may also pin an explicit
code (meeting rooms with stable codes), which must be unique.

The registry is bookkeeping only — session lifecycle (rounds,
signalling) lives in :class:`~repro.sharing.server.session.HostedSession`;
the registry just guarantees code uniqueness and O(1) lookup, and
counts what happened through the server's instrumentation.
"""

from __future__ import annotations

import random
from typing import Iterator

from ...obs.instrumentation import NULL
from .errors import DuplicateJoinCode, UnknownJoinCode

#: Unambiguous join-code alphabet (31 symbols, no 0/O, 1/I/L).
CODE_ALPHABET = "23456789ABCDEFGHJKMNPQRSTUVWXYZ"

#: Canonicalisation of the confusable classes the alphabet excludes:
#: a pinned code may contain them, and a human transcribing ``0`` as
#: ``O`` (or ``1``/``l`` as ``I``) must still resolve to the same key.
_CONFUSABLES = str.maketrans({"0": "O", "1": "I", "L": "I"})

#: Characters a *normalised* code may contain: the unambiguous
#: alphabet plus the canonical representative of each confusable class.
_ALLOWED = frozenset(CODE_ALPHABET) | {"O", "I"}


class SessionRegistry:
    """Join-code keyed map of hosted sessions."""

    def __init__(
        self,
        rng: random.Random | None = None,
        code_length: int = 6,
        obs=None,
    ) -> None:
        if code_length < 4:
            raise ValueError("join codes shorter than 4 are guessable")
        self._rng = rng or random.Random()
        self._code_length = code_length
        self._sessions: dict[str, object] = {}
        self._obs = obs if obs is not None else NULL
        self._g_sessions = self._obs.gauge("server.sessions")
        self._c_registered = self._obs.counter("server.sessions_registered")
        self._c_removed = self._obs.counter("server.sessions_removed")

    # -- Code allocation ----------------------------------------------------

    def issue_code(self) -> str:
        """A fresh, unused join code."""
        while True:
            code = "".join(
                self._rng.choice(CODE_ALPHABET)
                for _ in range(self._code_length)
            )
            if code not in self._sessions:
                return code

    @staticmethod
    def normalise(code: str) -> str:
        """Join codes are case-insensitive, dash/space tolerant, and
        confusable-folded (``0``→``O``, ``1``/``L``→``I``), so any
        transcription a human could plausibly produce resolves to the
        same registry key."""
        return (
            code.replace("-", "").replace(" ", "")
            .upper()
            .translate(_CONFUSABLES)
        )

    # -- CRUD ---------------------------------------------------------------

    def register(self, session, code: str | None = None) -> str:
        """Add ``session`` under ``code`` (or a freshly issued one).

        Pinned codes are normalised (which folds the ``0/O`` and
        ``1/I/L`` confusable classes to one representative each, so a
        pinned ``"HELL0"`` and a user-typed ``"HELLO"`` meet at the
        same key) and then validated: anything still outside the
        join-code alphabet has no unambiguous transcription and is
        rejected rather than registered as an untypeable session.
        """
        if code is None:
            code = self.issue_code()
        else:
            code = self.normalise(code)
            if not code:
                raise ValueError("join code cannot be empty")
            bad = sorted(set(code) - _ALLOWED)
            if bad:
                raise ValueError(
                    f"join code {code!r} uses unmappable characters"
                    f" outside the join-code alphabet: {''.join(bad)!r}"
                )
            if code in self._sessions:
                raise DuplicateJoinCode(code)
        self._sessions[code] = session
        self._c_registered.inc()
        self._g_sessions.set(len(self._sessions))
        return code

    def lookup(self, code: str):
        """The session registered under ``code``; :class:`UnknownJoinCode`
        when the code was never issued or its session already closed."""
        session = self._sessions.get(self.normalise(code))
        if session is None:
            raise UnknownJoinCode(code)
        return session

    def remove(self, code: str) -> None:
        """Drop ``code``; removing an unknown code is a no-op (the
        BYE-race path can tear a session down from two directions)."""
        if self._sessions.pop(self.normalise(code), None) is not None:
            self._c_removed.inc()
            self._g_sessions.set(len(self._sessions))

    # -- Introspection ------------------------------------------------------

    def codes(self) -> list[str]:
        return sorted(self._sessions)

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, code: str) -> bool:
        return self.normalise(code) in self._sessions

    def __iter__(self) -> Iterator[tuple[str, object]]:
        return iter(list(self._sessions.items()))
