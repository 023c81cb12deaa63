"""Wire messages exchanged through the simulated network.

Every message is a frozen dataclass with a ``TAG`` used for trace lines and
per-tag counting. The runner's rewrite of a faulty node's sends
(``runner.byzantine_sends``) re-signs mutated copies with the sender's own
key, so signature checks pass and misbehavior must be caught by content
checks or quorum math, mirroring real deployments.

A signature is ideal, as in Canetti's signature functionality F_SIG: no
message carries signature bytes. ``signed()`` returns a field-for-field copy
whose memo, a slot outside the dataclass fields, records ``(registry,
signer_id)``; the memo is left out of ``==``, ``hash``, ``repr``, ``asdict``
and the state that ``copy`` and ``pickle`` carry. ``signature_ok()`` is the
memo test alone: it holds only for the very registry object and signer the
memo records. Any other object has no memo and fails closed: a
``dataclasses.replace`` copy (with a changed field, a forged sender or no
change at all), a copy or pickle round trip, a twin class built from equal
field values. A signed message carried inside another (``ExitCommit.request``)
travels by reference and keeps its memo.

A second slot, ``_digest_ok``, follows the same rule for a ``Request``'s
digest: a replica sets it to True only once the digest matched the payload,
and a ``replace`` copy starts without it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from typing import Callable, ClassVar, Optional, Tuple


class Message:
    """Base of every wire message; its slots are the signature and digest memos."""

    __slots__ = ("_verified_by", "_digest_ok")


@dataclass(frozen=True, slots=True)
class Request(Message):
    """Client transaction submission, sent to every committee member."""

    TAG: ClassVar[str] = "request"
    timestamp: int
    payload: bytes
    digest: bytes
    client_id: int


@dataclass(frozen=True, slots=True)
class Prepare(Message):
    """Master proposal carrying the transaction batch (two-phase protocol)."""

    TAG: ClassVar[str] = "prepare"
    height: int
    view: int
    batch: Tuple[Request, ...]
    digest: bytes
    sender: int


@dataclass(frozen=True, slots=True)
class Commit(Message):
    """Commit vote of both protocols; a block commits on 2f+1 matching commits."""

    TAG: ClassVar[str] = "commit"
    height: int
    view: int
    digest: bytes
    sender: int


@dataclass(frozen=True, slots=True)
class Reply(Message):
    """Per-replica confirmation to the client (f+1 matching confirms a tx)."""

    TAG: ClassVar[str] = "reply"
    digest: bytes
    sender: int


@dataclass(frozen=True, slots=True)
class ViewChange(Message):
    """Vote to depose the current master; adopted at 2f+1 distinct reporters.

    Carries the height because view numbers restart every epoch, so the
    proposed view alone cannot be judged stale.
    """

    TAG: ClassVar[str] = "viewchange"
    height: int
    proposed_view: int
    reporter: int


@dataclass(frozen=True, slots=True)
class Report(Message):
    """Accusation with evidence kind; confirmed at f+1 distinct reporters."""

    TAG: ClassVar[str] = "report"
    accused: int
    evidence_kind: str
    height: int
    reporter: int


@dataclass(frozen=True, slots=True)
class BlockAnnounce(Message):
    """Round-end dissemination of a committed block to the whole network."""

    TAG: ClassVar[str] = "block_announce"
    height: int
    block_digest: bytes
    batch_digests: Tuple[bytes, ...]
    sender: int


@dataclass(frozen=True, slots=True)
class VrfConnect(Message):
    """Selectee's sortition announcement (public key + proof) for an epoch."""

    TAG: ClassVar[str] = "vrf_connect"
    epoch: int
    node_id: int
    public_key: bytes
    proof: bytes


# --- Classic three-phase baseline ---

@dataclass(frozen=True, slots=True)
class PrePrepare(Message):
    """Primary's proposal in the three-phase baseline."""

    TAG: ClassVar[str] = "preprepare"
    height: int
    view: int
    batch: Tuple[Request, ...]
    digest: bytes
    sender: int


@dataclass(frozen=True, slots=True)
class PbftPrepare(Message):
    """Backup's echo of the pre-prepare (digest only)."""

    TAG: ClassVar[str] = "prepare"
    height: int
    view: int
    digest: bytes
    sender: int


# --- Membership (dynamic join/exit) ---

@dataclass(frozen=True, slots=True)
class ExitRequest(Message):
    """Member announces departure effective at ``effective_height``."""

    TAG: ClassVar[str] = "erequest"
    node_id: int
    effective_height: int


@dataclass(frozen=True, slots=True)
class ExitCommit(Message):
    """The master's commitment to a member's exit, sent to every member as
    soon as the master accepts the leaver's signed request, which it
    carries. ``candidate`` names the one candidate, invited by a
    ChangeNotice, that the exit waits on; it is None when the exit keeps
    the 3f+1 floor."""

    TAG: ClassVar[str] = "exit_commit"
    request: ExitRequest
    candidate: Optional[int]
    master_id: int


@dataclass(frozen=True, slots=True)
class ChangeNotice(Message):
    """Master invites the best candidate to join the consensus set."""

    TAG: ClassVar[str] = "change"
    candidate_id: int
    effective_height: int
    master_id: int


@dataclass(frozen=True, slots=True)
class JoinRequest(Message):
    """Candidate's upgrade request carrying its claimed reputation."""

    TAG: ClassVar[str] = "urequest"
    node_id: int
    reputation: float
    effective_height: int


@dataclass(frozen=True, slots=True)
class JoinCommit(Message):
    """Member's confirmation that the candidate may join."""

    TAG: ClassVar[str] = "join_commit"
    candidate_id: int
    effective_height: int
    sender: int


# The DJEP exit/join messages: the runner counts and times membership flows by them.
MEMBERSHIP_TYPES = frozenset({ExitRequest, ExitCommit, ChangeNotice, JoinRequest, JoinCommit})


@cache
def _field_values(cls: type) -> Callable[[Message], Tuple]:
    """A getter of every field value of ``cls``, in field order; every class
    has at least two fields, so the getter returns a tuple."""
    return attrgetter(*(f.name for f in fields(cls)))


def signed(message, registry, signer_id: int):
    """Return a copy of ``message`` signed by ``signer_id``: equal to it, and
    carrying the memo ``(registry, signer_id)``. ``message`` itself is left
    as it was."""
    cls = type(message)
    copy = cls(*_field_values(cls)(message))
    object.__setattr__(copy, "_verified_by", (registry, signer_id))
    return copy


def signature_ok(message, registry, signer_id: int) -> bool:
    """True if ``message`` is the very object ``signed()`` made with
    ``registry`` and ``signer_id``."""
    memo = getattr(message, "_verified_by", None)
    return memo is not None and memo[0] is registry and memo[1] == signer_id
