"""Ideal signatures: a check passes only on the very object ``signed()`` made.

Test names from the byte-signature model are kept; each now checks the memo
(a ``signed()`` copy passes, any other object fails closed)."""

import copy
import dataclasses
import math
import pickle
import typing

import pytest

from ebrc import messages, presets
from ebrc.crypto import KeyRegistry
from ebrc.messages import (
    Commit,
    ExitRequest,
    JoinRequest,
    Message,
    PbftPrepare,
    Prepare,
    Request,
    signature_ok,
    signed,
)
from ebrc.runner import ScenarioRunner

SIGNER = 0
OTHER = 1

# Read from the module: ``slots=True`` rebuilds each class, so
# ``Message.__subclasses__()`` can still list the discarded originals.
MESSAGE_CLASSES = sorted(
    (value for value in vars(messages).values()
     if isinstance(value, type) and issubclass(value, Message) and value is not Message),
    key=lambda cls: cls.__name__,
)


@pytest.fixture(scope="module")
def registry():
    reg = KeyRegistry(seed=b"test-messages")
    reg.register(SIGNER)
    reg.register(OTHER)
    return reg


@pytest.fixture
def byte_calls(monkeypatch):
    """``(method, owner)`` of each ``KeyRegistry.sign`` and ``verify`` call, in
    call order: the byte signatures that signing messages never makes."""
    calls = []
    sign, verify = KeyRegistry.sign, KeyRegistry.verify

    def counted_sign(self, owner_id, payload):
        calls.append(("sign", owner_id))
        return sign(self, owner_id, payload)

    def counted_verify(self, owner_id, payload, signature):
        calls.append(("verify", owner_id))
        return verify(self, owner_id, payload, signature)

    monkeypatch.setattr(KeyRegistry, "sign", counted_sign)
    monkeypatch.setattr(KeyRegistry, "verify", counted_verify)
    return calls


def _request(registry, timestamp: int) -> Request:
    return signed(
        Request(timestamp=timestamp, payload=b"tx", digest=b"d" * 32, client_id=SIGNER),
        registry,
        SIGNER,
    )


def _sample(tp, registry):
    """A value of type ``tp`` with room to change: tuples hold two items."""
    if tp is bool:
        return True
    if tp is int:
        return 7
    if tp is float:
        return 0.1
    if tp is str:
        return "kind"
    if tp is bytes:
        return b"b" * 32
    if tp is Request:
        return _request(registry, 5)
    if tp is ExitRequest:
        return signed(ExitRequest(node_id=OTHER, effective_height=5), registry, OTHER)
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        first = _sample(item, registry)
        return (first, _changed(item, first, registry))
    if typing.get_origin(tp) is typing.Union:  # Optional[X]: a value of X
        return _sample(typing.get_args(tp)[0], registry)
    raise AssertionError(f"no sample for {tp}")


def _changed(tp, value, registry):
    """The least change of ``value``: one ulp, one more, the last item or an
    optional value dropped."""
    if tp is bool:
        return not value
    if tp is int:
        return value + 1
    if tp is float:
        return math.nextafter(value, math.inf)
    if tp is str or tp is bytes:
        return value + value[:1]
    if tp is Request:
        return _request(registry, value.timestamp + 1)
    if tp is ExitRequest:
        return signed(
            ExitRequest(node_id=OTHER, effective_height=value.effective_height + 1),
            registry,
            OTHER,
        )
    if typing.get_origin(tp) is tuple:
        return value[:-1]
    if typing.get_origin(tp) is typing.Union:  # Optional[X]: the value dropped
        return None
    raise AssertionError(f"no change for {tp}")


def _fields(cls):
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(cls)]


def _unsigned_sample(cls, registry):
    return cls(**{name: _sample(tp, registry) for name, tp in _fields(cls)})


def _signed_sample(cls, registry):
    return signed(_unsigned_sample(cls, registry), registry, SIGNER)


def test_every_message_class_is_covered():
    assert len(MESSAGE_CLASSES) == 15
    for cls in MESSAGE_CLASSES:
        # A plain frozen, slotted dataclass with no signature field.
        assert "signature" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert "__slots__" in vars(cls), cls.__name__


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
def test_signed_equals_a_replace_with_the_signature(cls, registry):
    message = _unsigned_sample(cls, registry)
    copy = signed(message, registry, SIGNER)
    assert type(copy) is cls
    assert copy == dataclasses.replace(message) and copy is not message
    assert signature_ok(copy, registry, SIGNER)
    # signed() leaves its argument without a memo.
    assert not signature_ok(message, registry, SIGNER)


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
def test_changing_any_field_breaks_the_signature(cls, registry):
    message = _signed_sample(cls, registry)
    assert signature_ok(message, registry, SIGNER)
    # A replace copy is a new object: unchanged, it fails closed too.
    assert not signature_ok(dataclasses.replace(message), registry, SIGNER)
    for name, tp in _fields(cls):
        forged = dataclasses.replace(message, **{name: _changed(tp, getattr(message, name), registry)})
        assert not signature_ok(forged, registry, SIGNER), f"{cls.__name__}.{name} is not signed"


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
def test_signature_is_made_once_on_first_read(cls, registry, byte_calls):
    # signed() makes the signature, as a memo, and no bytes; every later
    # check reads that memo and nothing else.
    message = _unsigned_sample(cls, registry)
    byte_calls.clear()
    copy = signed(message, registry, SIGNER)
    assert all(signature_ok(copy, registry, SIGNER) for _ in range(3))
    assert byte_calls == []


# Each observes a fresh signed copy and the unsigned message: the memo is
# invisible to all of them.
OBSERVERS = {
    "repr": repr,
    "asdict": dataclasses.asdict,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda message: pickle.loads(pickle.dumps(message)),
    "replace": dataclasses.replace,
    "eq": lambda message: message,
    "hash": hash,
}

# Observers that return a new message: a copy by any route fails closed.
COPIES = ("copy", "deepcopy", "pickle", "replace")


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_observer_sees_the_eager_signature(cls, registry):
    message = _unsigned_sample(cls, registry)
    for name, observe in OBSERVERS.items():
        assert observe(signed(message, registry, SIGNER)) == observe(message), name
    for name in COPIES:
        copied = OBSERVERS[name](signed(message, registry, SIGNER))
        assert copied == message, name
        assert not signature_ok(copied, registry, SIGNER), name


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
def test_unread_signature_fails_another_signer_and_a_changed_copy(cls, registry):
    message = _unsigned_sample(cls, registry)
    assert not signature_ok(signed(message, registry, SIGNER), registry, OTHER)
    other = KeyRegistry(seed=b"test-messages")
    other.register(SIGNER)
    assert not signature_ok(signed(message, registry, SIGNER), other, SIGNER)
    name, tp = _fields(cls)[0]
    forged = dataclasses.replace(
        signed(message, registry, SIGNER), **{name: _changed(tp, getattr(message, name), registry)}
    )
    assert not signature_ok(forged, registry, SIGNER)


def test_clean_runs_make_no_signature(byte_calls):
    # Every check in a run is the memo test: no byte signature is made or
    # checked.
    for config in presets.comparison_pair(7, byzantine=False, seed=1):
        assert ScenarioRunner(config).run().committed_rounds
    assert byte_calls == []


def test_classes_with_equal_fields_sign_differently(registry):
    by_fields = {}
    for cls in MESSAGE_CLASSES:
        by_fields.setdefault(tuple(_fields(cls)), []).append(cls)
    twins = [group for group in by_fields.values() if len(group) > 1]
    names = sorted(sorted(cls.__name__ for cls in group) for group in twins)
    assert names == [["Commit", "PbftPrepare"], ["PrePrepare", "Prepare"]]
    for first, second in twins:
        message = _signed_sample(first, registry)
        twin = second(**{f.name: getattr(message, f.name) for f in dataclasses.fields(first)})
        assert twin != message
        assert not signature_ok(twin, registry, SIGNER)


@pytest.mark.parametrize("cls", [Commit, PbftPrepare], ids=lambda cls: cls.__name__)
def test_every_vote_has_one_shape(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == ["height", "view", "digest", "sender"]


def test_one_ulp_reputation_claim_is_bound(registry):
    claim = signed(JoinRequest(node_id=3, reputation=0.7, effective_height=4), registry, SIGNER)
    forged = dataclasses.replace(claim, reputation=math.nextafter(0.7, 1.0))
    assert f"{forged.reputation:.12e}" == f"{claim.reputation:.12e}"
    assert not signature_ok(forged, registry, SIGNER)


def test_trimmed_proposal_batch_is_bound(registry):
    batch = (_request(registry, 1), _request(registry, 2))
    proposal = signed(
        Prepare(height=1, view=0, batch=batch, digest=b"d" * 32, sender=SIGNER),
        registry,
        SIGNER,
    )
    assert not signature_ok(dataclasses.replace(proposal, batch=batch[:1]), registry, SIGNER)


def test_membership_types_match_their_tags():
    assert sorted(cls.TAG for cls in messages.MEMBERSHIP_TYPES) == [
        "change", "erequest", "exit_commit", "join_commit", "urequest",
    ]
