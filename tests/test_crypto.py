"""Deterministic signature and sortition primitives."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebrc.crypto import (
    DIGEST_SIZE,
    GENESIS_SEED,
    VRF_RANGE,
    ZERO_HASH,
    KeyRegistry,
    SimulatedVrf,
    VrfOutput,
    _keyed_state,
    derive_seed,
    digest,
    frame,
    hasher,
    pack,
    sortition_threshold,
)
from ebrc.messages import Commit, signature_ok, signed
from oracles import blake2b_digest


@pytest.fixture()
def registry():
    reg = KeyRegistry(seed=b"test-registry")
    for node in range(4):
        reg.register(node)
    return reg


class TestDigest:
    def test_deterministic(self):
        assert digest(b"a", b"b") == digest(b"a", b"b")

    def test_domain_separation(self):
        assert digest(b"a", domain=b"x") != digest(b"a", domain=b"y")

    def test_length_prefix_prevents_ambiguity(self):
        assert digest(b"ab", b"c") != digest(b"a", b"bc")

    def test_size(self):
        assert len(digest(b"payload")) == DIGEST_SIZE

    def test_prefix_continues_the_digest(self):
        head = hasher((b"run-seed",), b"link")
        untouched = head.digest()
        assert digest(b"s", b"t", prefix=head) == digest(b"run-seed", b"s", b"t", domain=b"link")
        assert digest(prefix=head) == untouched
        assert head.digest() == untouched

    def test_pack_type_coverage(self):
        value = pack(1, "s", b"b", True, (1, 2))
        assert isinstance(value, bytes)
        assert pack(1) != pack(True)  # bools are not packed as ints
        with pytest.raises(TypeError):
            pack(1.5)


class TestSignatures:
    def test_sign_verify_roundtrip(self, registry):
        sig = registry.sign(0, b"payload")
        assert registry.verify(0, b"payload", sig)

    def test_wrong_signer_rejected(self, registry):
        sig = registry.sign(0, b"payload")
        assert not registry.verify(1, b"payload", sig)

    def test_tampered_payload_rejected(self, registry):
        sig = registry.sign(0, b"payload")
        assert not registry.verify(0, b"payload2", sig)

    def test_unknown_owner_rejected(self, registry):
        assert not registry.verify(99, b"payload", b"sig")

    def test_register_idempotent(self, registry):
        first = registry.register(0)
        sig = registry.sign(0, b"payload")
        assert registry.register(0) == first
        assert registry.verify(0, b"payload", sig)

    def test_distinct_owners_distinct_keys(self, registry):
        keys = {registry.public_key(i) for i in range(4)}
        assert len(keys) == 4


class TestVrf:
    def test_deterministic(self, registry):
        vrf = SimulatedVrf(registry)
        a = vrf.evaluate(registry.secret_key(0), b"seed")
        b = vrf.evaluate(registry.secret_key(0), b"seed")
        assert a == b

    def test_roundtrip_verifies(self, registry):
        vrf = SimulatedVrf(registry)
        out = vrf.evaluate(registry.secret_key(1), b"seed")
        ok, value = vrf.verify(registry.public_key(1), b"seed", out.proof)
        assert ok and value == out.value

    def test_wrong_key_fails(self, registry):
        vrf = SimulatedVrf(registry)
        out = vrf.evaluate(registry.secret_key(1), b"seed")
        ok, value = vrf.verify(registry.public_key(2), b"seed", out.proof)
        assert not ok and value is None

    def test_wrong_seed_fails(self, registry):
        vrf = SimulatedVrf(registry)
        out = vrf.evaluate(registry.secret_key(1), b"seed")
        ok, _ = vrf.verify(registry.public_key(1), b"other-seed", out.proof)
        assert not ok

    def test_mangled_proof_fails(self, registry):
        vrf = SimulatedVrf(registry)
        out = vrf.evaluate(registry.secret_key(1), b"seed")
        bad = bytes([out.proof[0] ^ 0xFF]) + out.proof[1:]
        ok, value = vrf.verify(registry.public_key(1), b"seed", bad)
        assert not ok and value is None

    def test_malformed_proof_fails_closed(self, registry):
        vrf = SimulatedVrf(registry)
        assert vrf.verify(registry.public_key(1), b"seed", b"short") == (False, None)
        assert vrf.verify(b"not-a-key", b"seed", b"short") == (False, None)

    def test_value_in_range(self, registry):
        vrf = SimulatedVrf(registry)
        out = vrf.evaluate(registry.secret_key(0), b"seed")
        assert 0 <= out.value < VRF_RANGE

    def test_uniformity_monte_carlo(self, registry):
        # Fraction of draws below 0.4 * range should be 0.4 +- 0.02 over 1e4
        # seeds (binomial standard error ~0.005).
        vrf = SimulatedVrf(registry)
        sk = registry.secret_key(0)
        rng = random.Random(12345)
        threshold = int(0.4 * VRF_RANGE)
        hits = sum(
            1
            for _ in range(10_000)
            if vrf.evaluate(sk, rng.getrandbits(256).to_bytes(32, "big")).value <= threshold
        )
        assert abs(hits / 10_000 - 0.4) <= 0.02

    def test_independent_across_keys(self, registry):
        vrf = SimulatedVrf(registry)
        reg = KeyRegistry(seed=b"many-keys")
        values = set()
        for node in range(1000):
            reg.register(node)
            values.add(vrf.evaluate(reg.secret_key(node), b"shared-seed").value)
        assert len(values) == 1000


class TestKeyedStates:
    """Signatures and VRF draws continue a state that already holds the
    secret; their bytes must equal hashing the secret in full."""

    @pytest.mark.parametrize("owner", [0, 3])
    def test_signature_known_answer(self, registry, owner):
        secret = registry.secret_key(owner)
        sig = registry.sign(owner, b"payload")
        assert sig == digest(secret, b"payload", domain=b"sig")
        assert registry.verify(owner, b"payload", sig)
        flipped = bytes([sig[0] ^ 0x01]) + sig[1:]
        assert not registry.verify(owner, b"payload", flipped)

    @pytest.mark.parametrize("owner", [0, 3])
    def test_vrf_known_answer(self, registry, owner):
        vrf = SimulatedVrf(registry)
        secret = registry.secret_key(owner)
        value = int.from_bytes(digest(secret, b"seed", domain=b"vrf-value"), "big")
        proof = digest(secret, b"seed", domain=b"vrf-proof")
        assert vrf.value(secret, b"seed") == value
        assert vrf.proof(secret, b"seed") == proof
        assert vrf.evaluate(secret, b"seed") == VrfOutput(value, proof)

    def test_secret_the_registry_does_not_hold(self, registry):
        vrf = SimulatedVrf(registry)
        other = KeyRegistry(seed=b"another-registry")
        secret = other.register(0).secret_key
        assert registry.resolve_secret(other.public_key(0)) is None
        assert vrf.value(secret, b"seed") == int.from_bytes(
            digest(secret, b"seed", domain=b"vrf-value"), "big"
        )
        assert vrf.proof(secret, b"seed") == digest(secret, b"seed", domain=b"vrf-proof")
        assert SimulatedVrf(other).value(secret, b"seed") == vrf.value(secret, b"seed")


PARTS = st.lists(st.binary(max_size=80), max_size=4)
DOMAINS = st.sampled_from([b"msg", b"", b"sig", b"vrf-value", b"vrf-proof", b"link", b"d" * 300])
# Election seeds are 32 bytes; the framing must hold for any other length too.
SEEDS = st.binary(max_size=80)
SECRETS = st.binary(min_size=1, max_size=80)


class TestAgainstOracle:
    """Every keyed hash against ``oracles.blake2b_digest``, which frames and
    hashes the message from the definition and shares no code with
    ``ebrc.crypto``: a framing slip in the cached-state path shows here."""

    @settings(max_examples=300, deadline=None)
    @given(parts=PARTS, domain=DOMAINS)
    def test_digest(self, parts, domain):
        assert digest(*parts, domain=domain) == blake2b_digest(*parts, domain=domain)

    @settings(max_examples=300, deadline=None)
    @given(parts=PARTS, domain=DOMAINS, data=st.data())
    def test_digest_continuing_a_prefix(self, parts, domain, data):
        split = data.draw(st.integers(0, len(parts)))
        head = hasher(parts[:split], domain=domain)
        assert digest(*parts[split:], prefix=head) == blake2b_digest(*parts, domain=domain)

    @settings(max_examples=100, deadline=None)
    @given(registry_seed=SEEDS, owner=st.integers(-(2**63), 2**63 - 1), payload=SEEDS)
    def test_keys_and_signature(self, registry_seed, owner, payload):
        registry = KeyRegistry(registry_seed)
        pair = registry.register(owner)
        secret = blake2b_digest(registry_seed, owner.to_bytes(8, "big", signed=True), domain=b"sk")
        assert pair.secret_key == secret
        assert pair.public_key == blake2b_digest(secret, domain=b"pk")
        assert registry.sign(owner, payload) == blake2b_digest(secret, payload, domain=b"sig")

    @settings(max_examples=300, deadline=None)
    @given(secret=SECRETS, seed=SEEDS)
    def test_vrf_value_and_proof(self, secret, seed):
        value = int.from_bytes(blake2b_digest(secret, seed, domain=b"vrf-value"), "big")
        assert SimulatedVrf.value(secret, seed) == value
        assert SimulatedVrf.proof(secret, seed) == blake2b_digest(secret, seed, domain=b"vrf-proof")


    @settings(max_examples=300, deadline=None)
    @given(secret=SECRETS, seed=SEEDS)
    def test_draw_on_a_framed_seed(self, secret, seed):
        framed = frame(seed)
        assert framed == len(seed).to_bytes(4, "big") + seed
        value = SimulatedVrf.draw(SimulatedVrf.value_state(secret), framed)
        proof = SimulatedVrf.draw(SimulatedVrf.proof_state(secret), framed)
        assert value == blake2b_digest(secret, seed, domain=b"vrf-value")
        assert proof == blake2b_digest(secret, seed, domain=b"vrf-proof")


class TestSortitionThreshold:
    """A value draw's bytes compared with the threshold select exactly the
    draws whose integer is at most ``omega * VRF_RANGE``."""

    @settings(max_examples=300, deadline=None)
    @given(omega=st.floats(0.0, 1.0, exclude_min=True), data=st.data())
    def test_bytes_compare_as_values(self, omega, data):
        near = int(omega * VRF_RANGE)
        value = data.draw(
            st.one_of(
                st.integers(0, VRF_RANGE - 1),
                st.integers(max(0, near - 2), min(VRF_RANGE - 1, near + 2)),
            )
        )
        threshold = sortition_threshold(omega)
        assert len(threshold) == DIGEST_SIZE
        assert (value.to_bytes(DIGEST_SIZE, "big") <= threshold) == (value <= omega * VRF_RANGE)

    def test_full_range_selects_every_value(self):
        assert sortition_threshold(1.0) == b"\xff" * DIGEST_SIZE


class TestKeyedStateCache:
    """A miss in ``_keyed_state`` absorbs the secret again: the bytes are the
    same whether the state was cached, never cached, or evicted."""

    @staticmethod
    def hashes(registry, owner):
        secret = registry.secret_key(owner)
        return (
            registry.sign(owner, b"payload"),
            SimulatedVrf.value(secret, b"seed"),
            SimulatedVrf.proof(secret, b"seed"),
        )

    def test_cold_warm_and_evicted_states_agree(self):
        registry = KeyRegistry(b"eviction")
        for owner in range(700):
            registry.register(owner)
        secret = registry.secret_key(0)
        expected = (
            blake2b_digest(secret, b"payload", domain=b"sig"),
            int.from_bytes(blake2b_digest(secret, b"seed", domain=b"vrf-value"), "big"),
            blake2b_digest(secret, b"seed", domain=b"vrf-proof"),
        )

        _keyed_state.cache_clear()
        assert self.hashes(registry, 0) == expected
        assert _keyed_state.cache_info().misses == 3

        assert self.hashes(registry, 0) == expected
        assert _keyed_state.cache_info().hits == 3

        # 699 more owners in three domains each: 2,097 new states push the
        # cache past its 2,048 and evict owner 0's, the least recently used.
        for owner in range(1, 700):
            self.hashes(registry, owner)
        misses = _keyed_state.cache_info().misses
        assert self.hashes(registry, 0) == expected
        assert _keyed_state.cache_info().misses == misses + 3


class TestSeedDerivation:
    def test_deterministic(self):
        h = b"\x11" * 32
        assert derive_seed(h) == derive_seed(h)

    def test_genesis_constant_pinned(self):
        assert GENESIS_SEED == derive_seed(ZERO_HASH)
        assert len(GENESIS_SEED) == DIGEST_SIZE

    def test_no_collisions_over_random_hashes(self):
        rng = random.Random(999)
        seeds = {
            derive_seed(rng.getrandbits(256).to_bytes(32, "big")) for _ in range(10_000)
        }
        assert len(seeds) == 10_000

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            derive_seed(b"short")
        with pytest.raises(ValueError):
            derive_seed("not-bytes")


class TestSignatureMemo:
    """``signature_ok`` answers from the memo only for what ``signed`` made."""

    @pytest.fixture()
    def verify_calls(self, monkeypatch):
        calls = []
        original = KeyRegistry.verify

        def counting(self, owner_id, payload, signature):
            calls.append(owner_id)
            return original(self, owner_id, payload, signature)

        monkeypatch.setattr(KeyRegistry, "verify", counting)
        return calls

    @staticmethod
    def commit(sender=0, **fields):
        values = dict(height=1, view=0, digest=b"d" * 32, sender=sender)
        values.update(fields)
        return Commit(**values)

    def test_signed_message_passes_without_verify(self, registry, verify_calls):
        message = signed(self.commit(), registry, 0)
        assert all(signature_ok(message, registry, 0) for _ in range(5))
        assert verify_calls == []

    def test_signer_other_than_claimed_sender_fails(self, registry, verify_calls):
        message = signed(self.commit(sender=1), registry, 2)
        assert not signature_ok(message, registry, message.sender)
        assert verify_calls == [1]

    def test_replaced_copy_with_old_signature_fails(self, registry, verify_calls):
        message = signed(self.commit(), registry, 0)
        forged = dataclasses.replace(message, digest=b"e" * 32)
        assert forged.signature == message.signature
        assert not signature_ok(forged, registry, 0)
        assert verify_calls == [0]

    def test_other_registry_takes_the_full_path(self, registry, verify_calls):
        other = KeyRegistry(seed=b"another-registry")
        for node in range(4):
            other.register(node)
        message = signed(self.commit(), registry, 0)
        assert not signature_ok(message, other, 0)
        assert verify_calls == [0]
        # The failed check leaves the memo for the signing registry intact.
        assert signature_ok(message, registry, 0)
        assert verify_calls == [0]

    def test_hand_built_junk_signature_fails(self, registry, verify_calls):
        message = self.commit(signature=b"junk")
        assert not signature_ok(message, registry, 0)
        assert not signature_ok(message, registry, 0)
        assert verify_calls == [0, 0]

    def test_unchanged_copy_verified_once_then_memoized(self, registry, verify_calls):
        copy = dataclasses.replace(signed(self.commit(), registry, 0))
        assert signature_ok(copy, registry, 0)
        assert signature_ok(copy, registry, 0)
        assert verify_calls == [0]

    def test_memo_changes_neither_equality_nor_hash(self, registry):
        message = signed(self.commit(), registry, 0)
        bare = dataclasses.replace(message)
        assert message == bare
        assert hash(message) == hash(bare)
        assert repr(message) == repr(bare)
        assert dataclasses.asdict(message) == dataclasses.asdict(bare)
        assert "_verified_by" not in {f.name for f in dataclasses.fields(message)}
