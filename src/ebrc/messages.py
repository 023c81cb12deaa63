"""Wire messages exchanged through the simulated network.

Every message is a frozen dataclass with a ``TAG`` used for trace lines and
per-tag counting. The runner's rewrite of a faulty node's sends
(``runner.byzantine_sends``) re-signs mutated copies with the sender's own
key, so signature checks pass and misbehavior must be caught by content
checks or quorum math, mirroring real deployments.

One signing rule covers every message: ``signed_payload()`` packs the class
name, then every dataclass field but ``signature``, in field order. A nested
message enters as its own payload, a tuple element by element and a float as
``float.hex()``, so no field is left unbound and two classes with equal field
values (``Prepare`` and ``PrePrepare``, ``Commit`` and ``PbftPrepare``) sign
different bytes.

A broadcast hands the same frozen object to every receiver, so each message
carries a signature memo: a slot outside the dataclass fields, left out of
``==``, ``hash``, ``repr`` and ``asdict``. It holds ``(registry, signer_id)``
and is set only by ``signed()`` or by a successful ``signature_ok()``. A
``dataclasses.replace`` copy is a new object and starts without it, so any
changed field, forged sender or copied signature is checked in full. The memo
answers only for the very registry object and signer it records; any other
check takes the full ``KeyRegistry.verify`` path.

Most signatures are never read: a receiver's check is answered by the memo.
So ``signed()`` makes none. The signature is made on its first read, from the
memo, as ``registry.sign(signer_id, message.signed_payload())``, and kept.
Every read goes through the ``signature`` attribute (a full check, ``==``,
``hash``, ``repr``, ``asdict``, ``copy``, ``pickle``, ``dataclasses.replace``,
a field that copies it), so each sees the bytes an eager signature would have
had.

A second slot, ``_digest_ok``, follows the same rule for a ``Request``'s
digest: a replica sets it to True only once the digest matched the payload,
and a ``replace`` copy starts without it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from typing import Callable, ClassVar, Tuple

from .crypto import pack


class Message:
    """Base of every wire message; its slots are the signature and digest memos."""

    __slots__ = ("_verified_by", "_digest_ok")

    def signed_payload(self) -> bytes:
        """The bytes the sender signs: the class name and every field but
        ``signature``, in field order."""
        cls = type(self)
        return pack(cls.__name__, *[_signable(value) for value in _unsigned_fields(cls)(self)])


# What ``signed()`` puts in the ``signature`` slot until the first read; no
# read returns it.
_UNSIGNED = object()


class _LazySignature:
    """The ``signature`` attribute of a message class: its slot, except that
    a read of ``_UNSIGNED`` makes the signature the memo names and stores it.
    The memo is still the one ``signed()`` set then: ``signature_ok`` reads
    the signature before it replaces the memo."""

    __slots__ = ("_slot",)

    def __init__(self, slot) -> None:
        self._slot = slot

    def __get__(self, message, owner=None):
        value = self._slot.__get__(message, owner)
        if value is _UNSIGNED:
            registry, signer_id = message._verified_by
            value = registry.sign(signer_id, message.signed_payload())
            self._slot.__set__(message, value)
        return value

    def __set__(self, message, value) -> None:
        self._slot.__set__(message, value)


def _message(cls: type) -> type:
    """A frozen, slotted dataclass whose signature is made on first read."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.signature = _LazySignature(vars(cls)["signature"])
    return cls


@cache
def _unsigned_fields(cls: type) -> Callable[["Message"], Tuple]:
    """A getter of every field value of ``cls`` but ``signature``, in field
    order. ``signature`` is the last field, so ``cls(*values, signature)``
    builds a signed message; every class has at least two other fields, so
    the getter returns a tuple."""
    *names, last = (f.name for f in fields(cls))
    if last != "signature":
        raise TypeError(f"{cls.__name__}: signature must be the last field")
    return attrgetter(*names)


def _signable(value):
    """A field value in a form ``pack`` accepts."""
    if isinstance(value, Message):
        return value.signed_payload()
    if isinstance(value, tuple):
        return tuple(_signable(item) for item in value)
    if isinstance(value, float):
        return value.hex()
    return value


@_message
class Request(Message):
    """Client transaction submission, sent to every committee member."""

    TAG: ClassVar[str] = "request"
    timestamp: int
    payload: bytes
    digest: bytes
    client_id: int
    signature: bytes = b""


@_message
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


@_message
class Commit(Message):
    """Commit vote of both protocols; a block commits on 2f+1 matching commits."""

    TAG: ClassVar[str] = "commit"
    height: int
    view: int
    digest: bytes
    sender: int
    signature: bytes = b""


@_message
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


@_message
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


@_message
class Report(Message):
    """Accusation with evidence kind; confirmed at f+1 distinct reporters."""

    TAG: ClassVar[str] = "report"
    accused: int
    evidence_kind: str
    height: int
    reporter: int
    signature: bytes = b""


@_message
class BlockAnnounce(Message):
    """Round-end dissemination of a committed block to the whole network."""

    TAG: ClassVar[str] = "block_announce"
    height: int
    block_digest: bytes
    batch_digests: Tuple[bytes, ...]
    tx_count: int
    sender: int
    signature: bytes = b""


@_message
class VrfConnect(Message):
    """Selectee's sortition announcement (public key + proof) for an epoch."""

    TAG: ClassVar[str] = "vrf_connect"
    epoch: int
    node_id: int
    public_key: bytes
    proof: bytes
    signature: bytes = b""


# --- Classic three-phase baseline ---

@_message
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


@_message
class PbftPrepare(Message):
    """Backup's echo of the pre-prepare (digest only)."""

    TAG: ClassVar[str] = "prepare"
    height: int
    view: int
    digest: bytes
    sender: int
    signature: bytes = b""


# --- Membership (dynamic join/exit) ---

@_message
class ExitRequest(Message):
    """Member announces departure effective at ``effective_height``."""

    TAG: ClassVar[str] = "erequest"
    node_id: int
    effective_height: int
    signature: bytes = b""


@_message
class ExitCommit(Message):
    """The master's commitment to a member's exit, sent to every member as
    soon as the master accepts the leaver's signed request, which it
    carries. ``candidate`` names the one candidate, invited by a
    ChangeNotice, that the exit waits on; it is empty when the exit keeps
    the 3f+1 floor."""

    TAG: ClassVar[str] = "exit_commit"
    request: ExitRequest
    candidate: Tuple[int, ...]  # pack takes no None
    master_id: int
    signature: bytes = b""  # master's signature


@_message
class ChangeNotice(Message):
    """Master invites the best candidate to join the consensus set."""

    TAG: ClassVar[str] = "change"
    candidate_id: int
    effective_height: int
    master_id: int
    signature: bytes = b""


@_message
class JoinRequest(Message):
    """Candidate's upgrade request carrying its claimed reputation."""

    TAG: ClassVar[str] = "urequest"
    node_id: int
    reputation: float
    effective_height: int
    signature: bytes = b""


@_message
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
    """Return a copy of ``message`` signed by ``signer_id``.

    The copy's memo records the signer, and its signature is made on the
    first read of ``.signature``: a message whose checks the memo answers is
    never hashed for it.
    """
    cls = type(message)
    copy = cls(*_unsigned_fields(cls)(message), _UNSIGNED)
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
