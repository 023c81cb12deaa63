"""Deterministic cryptographic stand-ins for simulation use.

Every primitive here is keyed BLAKE2b: cheap, reproducible, and verifiable
through a trusted in-simulation registry rather than real public-key math.
That is intentional: runs must replay bit-for-bit. The elections use
``SimulatedVrf`` directly; a production VRF would replace that class.

A signature is ``digest(secret, payload, domain=b"sig")``, a VRF value and
proof are ``digest(secret, seed)`` under ``b"vrf-value"`` and ``b"vrf-proof"``.
Each (secret, domain) pair is absorbed once into a cached state
(``_keyed_state``), so signing and sortition copy that state and hash only
the payload or the seed; the bytes are the same as hashing the secret every
time. Each digest and signature is one call that copies its cached state,
absorbs the length-prefixed parts and finishes it. A VRF draw
(``SimulatedVrf.draw``) is one copy of a key's state, one update with the
seed already framed (``frame``) and one finish; ``SimulatedVrf`` does not go
through ``digest``. A sortition draw computes its value alone: only a node
that selects itself makes a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from typing import Optional, Sequence, Tuple

DIGEST_SIZE = 32
VRF_VALUE_BITS = 8 * DIGEST_SIZE
#: Size of the sortition output space; self-selection compares value/VRF_RANGE
#: against the configured threshold (``sortition_threshold``).
VRF_RANGE = 1 << VRF_VALUE_BITS

ZERO_HASH = b"\x00" * DIGEST_SIZE


@lru_cache(maxsize=64)
def _domain_state(domain: bytes):
    """A state with the length-prefixed ``domain`` absorbed. Every caller
    shares it, so ``hasher`` copies it and never updates it; a copy costs
    less than a new state."""
    h = blake2b(digest_size=DIGEST_SIZE)
    h.update(len(domain).to_bytes(2, "big"))
    h.update(domain)
    return h


def hasher(parts: Sequence[bytes], domain: bytes = b"msg", prefix=None):
    """The BLAKE2b state that ``digest`` finishes: ``domain``, then each of
    ``parts``, every one length-prefixed.

    Given ``prefix``, a state this function returned, a copy of it absorbs
    ``parts`` instead (``domain`` is then already in it, and ``prefix`` is
    left as it was). Inputs that share their leading parts absorb those once:
    ``digest(*tail, prefix=hasher(head, domain=d)) == digest(*head, *tail, domain=d)``.
    """
    h = (_domain_state(domain) if prefix is None else prefix).copy()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h


@lru_cache(maxsize=2048)
def _keyed_state(secret_key: bytes, domain: bytes):
    """``hasher((secret_key,), domain)``, shared like ``_domain_state``: the
    prefix of every signature and VRF hash under that key. 2048 states cover
    the three keyed domains of 682 nodes; a run with more still gets the
    same bytes, absorbing the secret again on a miss."""
    return hasher((secret_key,), domain)


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


def pack(*parts) -> bytes:
    """Canonical byte encoding of mixed int/str/bytes/bool fields.

    Used to build signing payloads; unambiguous because every element is
    length-prefixed by the digest routine downstream.
    """
    out = []
    for part in parts:
        if isinstance(part, bytes):
            out.append(part)
        elif isinstance(part, bool):
            out.append(b"\x01" if part else b"\x00")
        elif isinstance(part, int):
            out.append(part.to_bytes(16, "big", signed=True))
        elif isinstance(part, str):
            out.append(part.encode("utf-8"))
        elif isinstance(part, (tuple, list)):
            out.append(pack(*part))
        else:
            raise TypeError(f"cannot pack {type(part).__name__}")
    return digest(*out, domain=b"pack")


@dataclass(frozen=True, slots=True)
class KeyPair:
    public_key: bytes
    secret_key: bytes


class KeyRegistry:
    """Key directory doubling as the trusted verification oracle.

    Real deployments verify signatures and sortition proofs with public-key
    math; the simulation instead resolves the secret key for a public key
    through this registry. Only verification helpers consult the secret side.

    ``sign`` and ``verify`` continue the state that already holds the
    signer's secret (``_keyed_state``) instead of hashing it again.
    """

    def __init__(self, seed: bytes) -> None:
        self._seed = seed
        self._by_owner: dict[int, KeyPair] = {}
        self._secret_for: dict[bytes, bytes] = {}

    def register(self, owner_id: int) -> KeyPair:
        """Derive ``owner_id``'s keys from the seed and record them; a repeat
        call derives the same keys."""
        secret = digest(self._seed, owner_id.to_bytes(8, "big", signed=True), domain=b"sk")
        public = digest(secret, domain=b"pk")
        pair = KeyPair(public, secret)
        self._by_owner[owner_id] = pair
        self._secret_for[public] = secret
        return pair

    def public_key(self, owner_id: int) -> bytes:
        return self._by_owner[owner_id].public_key

    def secret_key(self, owner_id: int) -> bytes:
        return self._by_owner[owner_id].secret_key

    def resolve_secret(self, public_key: bytes) -> Optional[bytes]:
        """Trusted-oracle lookup; returns None for unknown keys."""
        return self._secret_for.get(public_key)

    def sign(self, owner_id: int, payload: bytes) -> bytes:
        return digest(payload, prefix=_keyed_state(self.secret_key(owner_id), b"sig"))

    def verify(self, owner_id: int, payload: bytes, signature: bytes) -> bool:
        pair = self._by_owner.get(owner_id)
        if pair is None or not isinstance(signature, bytes):
            return False
        return signature == digest(payload, prefix=_keyed_state(pair.secret_key, b"sig"))


@dataclass(frozen=True, slots=True)
class VrfOutput:
    """Sortition draw: a 256-bit value plus the proof that binds it to the key."""

    value: int
    proof: bytes


class SimulatedVrf:
    """Keyed-digest VRF: value and proof are independent digests of (sk, seed)
    under ``b"vrf-value"`` and ``b"vrf-proof"``.

    A draw (``draw``) is one copy of a key's state for one of the two
    domains (``value_state``, ``proof_state``), one update with the seed
    framed as ``hasher`` frames a part (``frame``), and one finish. ``value``,
    ``proof``, ``verify`` and every batch of draws go through it: an
    election or study frames each seed once and takes each key's state once,
    and compares a value draw's bytes with ``sortition_threshold(omega)``.
    ``value`` and ``proof`` are separate so that a draw tests self-selection
    on the value alone and makes a proof only once selected; ``evaluate``
    makes both. verify() recomputes both through the registry oracle, on
    every call; a forged or mangled proof fails closed with (False, None).
    """

    def __init__(self, registry: KeyRegistry) -> None:
        self._registry = registry

    @staticmethod
    def value_state(secret_key: bytes):
        """The state every value draw of ``secret_key`` copies."""
        return _keyed_state(secret_key, b"vrf-value")

    @staticmethod
    def proof_state(secret_key: bytes):
        """The state every proof draw of ``secret_key`` copies."""
        return _keyed_state(secret_key, b"vrf-proof")

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
        secret = self._registry.resolve_secret(public_key)
        if secret is None or not isinstance(proof, bytes):
            return False, None
        framed = frame(seed)
        if proof != self.draw(self.proof_state(secret), framed):
            return False, None
        return True, int.from_bytes(self.draw(self.value_state(secret), framed), "big")


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
