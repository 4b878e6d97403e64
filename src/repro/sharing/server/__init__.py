"""repro.sharing.server — asyncio multi-session hosting.

One :class:`SessionServer` process hosts hundreds of independent
sharing sessions: a join-code :class:`SessionRegistry`, one
:class:`HostedSession` (AH + :class:`SessionCore`) per code, one loop
that steps them all (:meth:`SessionServer.step`), a signalling front
door (INVITE/BYE through the existing SIP/SDP stack).  The synchronous
:class:`~repro.sharing.service.SharingService` wraps the same
:class:`SessionCore` for single-session use.

See ``docs/API.md`` for the public surface and
``benchmarks/bench_session_server.py`` for the sessions-per-core and
p95-latency gates.
"""

from .core import CoreCall, SessionCore
from .errors import (
    DuplicateJoinCode,
    DuplicateParticipant,
    JoinFailed,
    ServerError,
    ServerOverloaded,
    SessionClosed,
    UnknownJoinCode,
)
from .registry import CODE_ALPHABET, SessionRegistry
from .session import HostedSession, SessionState
from .server import JoinedParticipant, SessionServer

__all__ = [
    "CODE_ALPHABET",
    "CoreCall",
    "DuplicateJoinCode",
    "DuplicateParticipant",
    "HostedSession",
    "JoinFailed",
    "JoinedParticipant",
    "ServerError",
    "ServerOverloaded",
    "SessionClosed",
    "SessionCore",
    "SessionRegistry",
    "SessionServer",
    "SessionState",
    "UnknownJoinCode",
]
