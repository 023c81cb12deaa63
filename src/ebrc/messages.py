"""Wire messages exchanged through the simulated network.

Every message is a frozen dataclass with a ``TAG`` used for trace lines and
per-tag counting. Byzantine transforms re-sign mutated copies with the
sender's own key, so signature checks pass and misbehavior must be caught by
content checks or quorum math, mirroring real deployments.

One signing rule covers every message: ``signed_payload()`` packs the class
name, then every dataclass field but ``signature``, in field order. A nested
message enters as its own payload, a tuple element by element and a float as
``float.hex()``, so no field is left unbound and two classes with equal field
values (``Prepare`` and ``PrePrepare``, ``PbftPrepare`` and ``PbftCommit``)
sign different bytes.

A broadcast hands the same frozen object to every receiver, so each message
carries a signature memo: a slot outside the dataclass fields, left out of
``==``, ``hash``, ``repr`` and ``asdict``. It holds ``(registry, signer_id)``
and is set only by ``signed()`` or by a successful ``signature_ok()``. A
``dataclasses.replace`` copy is a new object and starts without it, so any
changed field, forged sender or copied signature is checked in full. The memo
answers only for the very registry object and signer it records; any other
check takes the full ``KeyRegistry.verify`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache
from typing import ClassVar, Tuple

from .crypto import pack

# Tags that the per-round consensus message-count law covers. Requests,
# forwards, replies to clients, elections, membership, and block announces are
# traced and counted under their own tags.
CONSENSUS_TAGS = ("preprepare", "prepare", "commit", "reply")


class Message:
    """Base of every wire message; its one slot is the signature memo."""

    __slots__ = ("_verified_by",)

    def signed_payload(self) -> bytes:
        """The bytes the sender signs: the class name and every field but
        ``signature``, in field order."""
        cls = type(self)
        return pack(cls.__name__, *[_signable(getattr(self, name)) for name in _signed_fields(cls)])


@cache
def _signed_fields(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name != "signature")


def _signable(value):
    """A field value in a form ``pack`` accepts."""
    if isinstance(value, Message):
        return value.signed_payload()
    if isinstance(value, tuple):
        return tuple(_signable(item) for item in value)
    if isinstance(value, float):
        return value.hex()
    return value


@dataclass(frozen=True, slots=True)
class Request(Message):
    """Client transaction submission, broadcast to the whole network."""

    TAG: ClassVar[str] = "request"
    timestamp: int
    payload: bytes
    digest: bytes
    client_id: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class ForwardedRequest(Message):
    """Request relayed to the master by a node outside the committee."""

    TAG: ClassVar[str] = "request_fwd"
    request: Request
    forwarder: int
    signature: bytes = b""

    @property
    def digest(self) -> bytes:
        return self.request.digest


@dataclass(frozen=True, slots=True)
class Prepare(Message):
    """Master proposal carrying the transaction batch (two-phase protocol)."""

    TAG: ClassVar[str] = "prepare"
    height: int
    view: int
    timestamp: int
    batch: Tuple[Request, ...]
    digest: bytes
    sender: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class Commit(Message):
    """Validation vote; a block commits on 2f+1 matching valid commits."""

    TAG: ClassVar[str] = "commit"
    view: int
    timestamp: int
    digest: bytes
    sequence: int  # equals the block height
    valid: bool
    sender: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class Reply(Message):
    """Per-replica confirmation to the client (f+1 matching confirms a tx)."""

    TAG: ClassVar[str] = "reply"
    client_id: int
    timestamp: int
    digest: bytes
    committee_size: int
    valid: bool
    sender: int
    signature: bytes = b""


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
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class Report(Message):
    """Accusation with evidence kind; confirmed at f+1 distinct reporters."""

    TAG: ClassVar[str] = "report"
    accused: int
    evidence_kind: str
    height: int
    reporter: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class BlockAnnounce(Message):
    """Round-end dissemination of a committed block to the whole network."""

    TAG: ClassVar[str] = "block_announce"
    height: int
    block_digest: bytes
    batch_digests: Tuple[bytes, ...]
    tx_count: int
    sender: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class VrfConnect(Message):
    """Selectee's sortition announcement (public key + proof) for an epoch."""

    TAG: ClassVar[str] = "vrf_connect"
    epoch: int
    node_id: int
    public_key: bytes
    proof: bytes
    signature: bytes = b""


# --- Classic three-phase baseline ---

@dataclass(frozen=True, slots=True)
class PrePrepare(Message):
    """Primary's proposal in the three-phase baseline."""

    TAG: ClassVar[str] = "preprepare"
    height: int
    view: int
    timestamp: int
    batch: Tuple[Request, ...]
    digest: bytes
    sender: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class PbftPrepare(Message):
    """Backup's echo of the pre-prepare (digest only)."""

    TAG: ClassVar[str] = "prepare"
    height: int
    view: int
    digest: bytes
    sender: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class PbftCommit(Message):
    """Commit vote in the three-phase baseline."""

    TAG: ClassVar[str] = "commit"
    height: int
    view: int
    digest: bytes
    sender: int
    signature: bytes = b""


# --- Membership (dynamic join/exit) ---

@dataclass(frozen=True, slots=True)
class ExitRequest(Message):
    """Member announces departure effective at ``effective_height``."""

    TAG: ClassVar[str] = "erequest"
    node_id: int
    effective_height: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class ExitCommit(Message):
    """Exit finalization co-signed by the leaver and the master."""

    TAG: ClassVar[str] = "exit_commit"
    node_id: int
    effective_height: int
    member_signature: bytes
    master_id: int
    signature: bytes = b""  # master's signature


@dataclass(frozen=True, slots=True)
class ChangeNotice(Message):
    """Master invites the best candidate to join the consensus set."""

    TAG: ClassVar[str] = "change"
    candidate_id: int
    effective_height: int
    master_id: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class JoinRequest(Message):
    """Candidate's upgrade request carrying its claimed reputation."""

    TAG: ClassVar[str] = "urequest"
    node_id: int
    reputation: float
    effective_height: int
    signature: bytes = b""


@dataclass(frozen=True, slots=True)
class JoinCommit(Message):
    """Member's confirmation that the candidate may join."""

    TAG: ClassVar[str] = "join_commit"
    candidate_id: int
    effective_height: int
    sender: int
    signature: bytes = b""


# The DJEP exit/join messages: the runner counts and times membership flows by them.
MEMBERSHIP_TYPES = frozenset({ExitRequest, ExitCommit, ChangeNotice, JoinRequest, JoinCommit})


def signed(message, registry, signer_id: int):
    """Return a copy of ``message`` signed by ``signer_id``."""
    copy = replace(message, signature=registry.sign(signer_id, message.signed_payload()))
    object.__setattr__(copy, "_verified_by", (registry, signer_id))
    return copy


def signature_ok(message, registry, signer_id: int) -> bool:
    """True if ``message.signature`` is ``signer_id``'s signature of its payload.

    Answered from the memo when ``registry`` and ``signer_id`` are the ones it
    records; otherwise verified in full, and a success is memoized.
    """
    memo = getattr(message, "_verified_by", None)
    if memo is not None and memo[0] is registry and memo[1] == signer_id:
        return True
    if not registry.verify(signer_id, message.signed_payload(), message.signature):
        return False
    object.__setattr__(message, "_verified_by", (registry, signer_id))
    return True
