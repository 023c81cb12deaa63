"""Deterministic cryptographic stand-ins for simulation use.

Every primitive here is keyed BLAKE2b: cheap, reproducible, and verifiable
through a trusted in-simulation registry rather than real public-key math.
That is intentional: runs must replay bit-for-bit. The one exception is the
network's link draws, which read a SHAKE-128 output of any length
(``hasher(..., xof=True)``). The elections use
``SimulatedVrf`` directly; a production VRF would replace that class.
Messages are signed without bytes, by the memo ``messages.signed`` attaches
(an ideal signature); ``KeyRegistry.sign`` and ``verify`` sign and check
bytes, and no run calls them.

A VRF value and proof are ``digest(secret, seed)`` under ``b"vrf-value"`` and
``b"vrf-proof"``, a byte signature ``digest(secret, payload)`` under
``b"sig"``. ``KeyRegistry.register`` absorbs each secret once into the value
and proof states its ``KeyPair`` holds and no draw updates, so sortition
copies a state and hashes only the seed; the bytes are the same as hashing
the secret every time. A digest is one call that copies its domain's state,
absorbs the length-prefixed parts and finishes it. A VRF draw
(``SimulatedVrf.draw``) is one copy of a pair's state, one update with the
seed already framed (``frame``) and one finish; ``SimulatedVrf`` does not go
through ``digest``. A sortition draw computes its value alone: only a node
that selects itself makes a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import blake2b, shake_128
from typing import Optional, Sequence, Tuple

DIGEST_SIZE = 32
VRF_VALUE_BITS = 8 * DIGEST_SIZE
#: Size of the sortition output space; self-selection compares value/VRF_RANGE
#: against the configured threshold (``sortition_threshold``).
VRF_RANGE = 1 << VRF_VALUE_BITS

ZERO_HASH = b"\x00" * DIGEST_SIZE


@lru_cache(maxsize=64)
def _domain_state(domain: bytes, xof: bool = False):
    """A state with the length-prefixed ``domain`` absorbed: BLAKE2b, or
    SHAKE-128 when ``xof``. Every caller shares it, so ``hasher`` copies it
    and never updates it; a copy costs less than a new state."""
    h = shake_128() if xof else blake2b(digest_size=DIGEST_SIZE)
    h.update(len(domain).to_bytes(2, "big"))
    h.update(domain)
    return h


def hasher(parts: Sequence[bytes], domain: bytes = b"msg", prefix=None, xof: bool = False):
    """The BLAKE2b state that ``digest`` finishes: ``domain``, then each of
    ``parts``, every one length-prefixed.

    Given ``prefix``, a state this function returned, a copy of it absorbs
    ``parts`` instead (``domain`` is then already in it, and ``prefix`` is
    left as it was). Inputs that share their leading parts absorb those once:
    ``digest(*tail, prefix=hasher(head, domain=d)) == digest(*head, *tail, domain=d)``.

    With ``xof`` the state is SHAKE-128's, framed the same way, and its
    ``digest(length)`` takes any length: a longer output starts with a
    shorter one.
    """
    h = (_domain_state(domain, xof) if prefix is None else prefix).copy()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h


def frame(part: bytes) -> bytes:
    """``part`` as ``hasher`` absorbs it: its length as 4 big-endian bytes,
    then the part. A caller that draws on one seed many times frames it once."""
    return len(part).to_bytes(4, "big") + part


def digest(*parts: bytes, domain: bytes = b"msg", prefix=None) -> bytes:
    """Length-prefixed, domain-separated BLAKE2b over ``parts``, continuing
    ``prefix`` when given: ``hasher(parts, domain, prefix).digest()``,
    absorbed here rather than through ``hasher`` to save a call."""
    h = (_domain_state(domain) if prefix is None else prefix).copy()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


def pack(seed: int) -> bytes:
    """The canonical bytes of an integer seed: the seed as 16 signed
    big-endian bytes, digested under ``b"pack"``. Anything else, a bool
    included, raises ``TypeError``."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"cannot pack {type(seed).__name__}")
    return digest(seed.to_bytes(16, "big", signed=True), domain=b"pack")


@dataclass(frozen=True, slots=True)
class KeyPair:
    """An owner's keys and the VRF value and proof states of its secret,
    taken by ``KeyRegistry.register`` and never updated; the states take no
    part in equality or repr."""

    public_key: bytes
    secret_key: bytes
    value_state: object = field(compare=False, repr=False)
    proof_state: object = field(compare=False, repr=False)


class KeyRegistry:
    """Key directory doubling as the trusted verification oracle.

    Real deployments verify signatures and sortition proofs with public-key
    math; the simulation instead resolves the secret key for a public key
    through this registry. Only verification helpers consult the secret side:
    ``resolve`` finds a public key's pair, with its VRF states, in one lookup.

    Messages are signed by ``messages.signed``'s memo, not through this
    class. ``sign`` and ``verify`` make and check signature bytes, absorbing
    the signer's secret on each call; no run calls them, and they stay only
    because the benchmark's counters name them.
    """

    def __init__(self, seed: bytes) -> None:
        self._seed = seed
        self._by_owner: dict[int, KeyPair] = {}
        self._by_public: dict[bytes, KeyPair] = {}

    def register(self, owner_id: int) -> KeyPair:
        """Derive ``owner_id``'s keys from the seed and record them; a repeat
        call derives the same keys."""
        secret = digest(self._seed, owner_id.to_bytes(8, "big", signed=True), domain=b"sk")
        public = digest(secret, domain=b"pk")
        states = SimulatedVrf.value_state(secret), SimulatedVrf.proof_state(secret)
        pair = KeyPair(public, secret, *states)
        self._by_owner[owner_id] = pair
        self._by_public[public] = pair
        return pair

    def public_key(self, owner_id: int) -> bytes:
        return self._by_owner[owner_id].public_key

    def key_pair(self, owner_id: int) -> KeyPair:
        return self._by_owner[owner_id]

    def resolve(self, public_key: bytes) -> Optional[KeyPair]:
        """Trusted-oracle lookup; returns None for unknown keys."""
        return self._by_public.get(public_key)

    def sign(self, owner_id: int, payload: bytes) -> bytes:
        return digest(self.key_pair(owner_id).secret_key, payload, domain=b"sig")

    def verify(self, owner_id: int, payload: bytes, signature: bytes) -> bool:
        pair = self._by_owner.get(owner_id)
        if pair is None or not isinstance(signature, bytes):
            return False
        return signature == digest(pair.secret_key, payload, domain=b"sig")


@dataclass(frozen=True, slots=True)
class VrfOutput:
    """Sortition draw: a 256-bit value plus the proof that binds it to the key."""

    value: int
    proof: bytes


class SimulatedVrf:
    """Keyed-digest VRF: value and proof are independent digests of (sk, seed)
    under ``b"vrf-value"`` and ``b"vrf-proof"``.

    A draw (``draw``) is one copy of a key's state for one of the two
    domains, one update with the seed framed as ``hasher`` frames a part
    (``frame``), and one finish. An election or study frames each seed once,
    draws on the states a ``KeyPair`` took at registration through
    ``value_state`` and ``proof_state``, and compares a value draw's bytes
    with ``sortition_threshold(omega)``; only the one-off ``value`` and
    ``proof`` derive a state per draw. They are separate so that a draw tests
    self-selection on the value alone and makes a proof only once selected;
    ``evaluate`` makes both. verify() recomputes both on the pair the
    registry oracle resolves, on every call; a forged or mangled proof fails
    closed with (False, None).
    """

    def __init__(self, registry: KeyRegistry) -> None:
        self._registry = registry

    @staticmethod
    def value_state(secret_key: bytes):
        """The state a value draw of ``secret_key`` copies."""
        return hasher((secret_key,), b"vrf-value")

    @staticmethod
    def proof_state(secret_key: bytes):
        """The state a proof draw of ``secret_key`` copies."""
        return hasher((secret_key,), b"vrf-proof")

    @staticmethod
    def draw(state, framed_seed: bytes) -> bytes:
        """``digest(seed, prefix=state)`` for ``framed_seed == frame(seed)``:
        a value draw's bytes (big-endian) on a ``value_state``, a proof on a
        ``proof_state``."""
        h = state.copy()
        h.update(framed_seed)
        return h.digest()

    @staticmethod
    def value(secret_key: bytes, seed: bytes) -> int:
        """The draw a node compares against the sortition threshold, as an
        integer."""
        return int.from_bytes(
            SimulatedVrf.draw(SimulatedVrf.value_state(secret_key), frame(seed)), "big"
        )

    @staticmethod
    def proof(secret_key: bytes, seed: bytes) -> bytes:
        """The proof a node makes once its value selects it."""
        return SimulatedVrf.draw(SimulatedVrf.proof_state(secret_key), frame(seed))

    def evaluate(self, secret_key: bytes, seed: bytes) -> VrfOutput:
        return VrfOutput(self.value(secret_key, seed), self.proof(secret_key, seed))

    def verify(self, public_key: bytes, seed: bytes, proof: bytes) -> Tuple[bool, Optional[int]]:
        pair = self._registry.resolve(public_key)
        if pair is None or not isinstance(proof, bytes):
            return False, None
        framed = frame(seed)
        if proof != self.draw(pair.proof_state, framed):
            return False, None
        return True, int.from_bytes(self.draw(pair.value_state, framed), "big")


def sortition_threshold(omega: float) -> bytes:
    """The largest VRF value that ``omega`` selects, ``omega * VRF_RANGE``
    rounded down and capped at ``VRF_RANGE - 1``, as the 32 bytes of a draw.
    A value draw selects its node exactly when its bytes compare ``<=``
    these, since equal-length big-endian bytes order as their integers do."""
    return min(int(omega * VRF_RANGE), VRF_RANGE - 1).to_bytes(DIGEST_SIZE, "big")


def derive_seed(previous_block_hash: bytes) -> bytes:
    """Epoch election seed derived from the latest agreed block hash."""
    if not isinstance(previous_block_hash, bytes) or len(previous_block_hash) != DIGEST_SIZE:
        raise ValueError("seed derivation requires a 32-byte block hash")
    return digest(previous_block_hash, domain=b"epoch-seed")


#: Seed used by the very first election, derived from the all-zero genesis hash.
GENESIS_SEED = derive_seed(ZERO_HASH)
