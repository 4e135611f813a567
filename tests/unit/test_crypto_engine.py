"""PoseidonEngine backend selection, equivalence, and telemetry tests.

The engine is the wall-clock crypto hot path: every ``hasher=None`` seam
(Merkle trees, the sharded forest, checkpoint replay, identity derivation)
resolves to :func:`repro.crypto.engine.default_engine`.  These tests pin the
selection rules and the bit-identity guarantee between backends.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.crypto.engine as engine_mod
from repro.crypto.engine import (
    ENV_BACKEND,
    HAVE_GMPY2,
    available_backends,
    default_engine,
    engine_stats,
    get_engine,
    publish_engine_telemetry,
    use_backend,
)
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleTree
from repro.crypto.poseidon import poseidon_hash, poseidon_params, poseidon_permutation
from repro.errors import CryptoError
from repro.telemetry.registry import MetricsRegistry, NULL_REGISTRY


# -- selection ---------------------------------------------------------------


def test_available_backends_always_has_reference_and_int():
    names = available_backends()
    assert "reference" in names
    assert "int" in names


def test_get_engine_is_singleton_per_backend():
    assert get_engine("int") is get_engine("int")
    assert get_engine("reference") is not get_engine("int")


def test_unknown_backend_rejected():
    with pytest.raises(CryptoError, match="unknown crypto backend"):
        get_engine("fpga")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "reference")
    assert default_engine().backend == "reference"
    monkeypatch.setenv(ENV_BACKEND, "int")
    assert default_engine().backend == "int"


def test_auto_resolution(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    expected = "gmpy2" if HAVE_GMPY2 else "int"
    assert default_engine().backend == expected


def test_use_backend_scopes_and_restores(monkeypatch):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    outer = default_engine().backend
    with use_backend("reference") as engine:
        assert engine.backend == "reference"
        assert default_engine() is engine
    assert default_engine().backend == outer


def test_use_backend_beats_env_var(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "int")
    with use_backend("reference"):
        assert default_engine().backend == "reference"


def test_gmpy2_unavailable_raises():
    if HAVE_GMPY2:
        pytest.skip("gmpy2 installed in this interpreter")
    with pytest.raises(CryptoError, match="gmpy2"):
        get_engine("gmpy2")


# -- bit-identity across backends -------------------------------------------


@pytest.mark.parametrize("backend", available_backends())
def test_hash_matches_reference(backend):
    engine = get_engine(backend)
    for n in range(1, 9):
        inputs = [FieldElement(1000 * n + i) for i in range(n)]
        assert engine.hash(inputs) == poseidon_hash(inputs)


@pytest.mark.parametrize("backend", available_backends())
def test_permute_matches_reference(backend):
    engine = get_engine(backend)
    for t in range(2, 10):
        state = [FieldElement(FIELD_MODULUS - 1 - i) for i in range(t)]
        assert engine.permute(state) == poseidon_permutation(
            state, poseidon_params(t)
        )


@pytest.mark.parametrize("backend", available_backends())
def test_hash2_matches_poseidon2(backend):
    engine = get_engine(backend)
    left, right = FieldElement(7), FieldElement(FIELD_MODULUS - 2)
    assert engine.hash2(left, right) == poseidon_hash([left, right])


def test_hash2_carries_engine_handle():
    engine = get_engine("int")
    assert engine.hash2.engine is engine


@pytest.mark.parametrize("backend", available_backends())
def test_batched_api_matches_singles(backend):
    engine = get_engine(backend)
    pairs = [
        (FieldElement(2 * i + 1), FieldElement(2 * i + 2)) for i in range(17)
    ]
    assert engine.hash_many(pairs) == [engine.hash2(l, r) for l, r in pairs]
    states = [[FieldElement(i + j) for j in range(3)] for i in range(5)]
    assert engine.permute_many(states) == [engine.permute(s) for s in states]


def test_batched_api_empty():
    engine = get_engine("int")
    assert engine.hash_many([]) == []
    assert engine.permute_many([]) == []


@pytest.mark.parametrize("backend", available_backends())
def test_width_and_arity_validation(backend):
    engine = get_engine(backend)
    with pytest.raises(CryptoError):
        engine.permute([FieldElement(1)])
    with pytest.raises(CryptoError):
        engine.permute([FieldElement(i) for i in range(10)])
    with pytest.raises(CryptoError):
        engine.hash([])
    with pytest.raises(CryptoError):
        engine.hash([FieldElement(i) for i in range(9)])


def test_merkle_roots_identical_across_backends():
    leaves = [FieldElement(i + 1) for i in range(40)]
    roots = set()
    for backend in available_backends():
        with use_backend(backend):
            roots.add(MerkleTree.from_leaves(leaves, depth=8).root)
    assert len(roots) == 1


# -- stats and telemetry -----------------------------------------------------


def _counts(engine):
    stats = engine.stats
    return stats.hashes, stats.permutations, stats.memo_hits


def _since(engine, before):
    """(hashes, permutations, memo_hits) counted since ``before``."""
    return tuple(a - b for a, b in zip(_counts(engine), before))


def test_stats_count_work():
    engine = get_engine("int")
    engine._memo.clear()  # (1, 2) is fresh whatever ran before
    before = _counts(engine)
    first = engine.hash2(FieldElement(1), FieldElement(2))
    assert engine.hash2(1, 2) == first == poseidon_hash([1, 2])
    assert _since(engine, before) == (2, 1, 1)
    # The batched API is never memoized: one permutation per pair.
    before = _counts(engine)
    engine.hash_many([(FieldElement(3), FieldElement(4))] * 5)
    assert _since(engine, before) == (5, 5, 0)
    assert engine.stats.seconds > 0
    assert engine_stats()["int"] is engine.stats


def test_hash2_memo_stays_bounded_and_correct():
    engine = get_engine("int")
    engine._memo.clear()
    pairs = [(i, i + 1) for i in range(engine_mod.HASH2_MEMO_SIZE + 10)]
    expected = engine.hash_many(pairs)
    before = engine.stats.permutations
    assert [engine.hash2(l, r) for l, r in pairs] == expected
    assert engine.stats.permutations == before + len(pairs)
    assert len(engine._memo) <= engine_mod.HASH2_MEMO_SIZE
    # The memo was cleared when full: the first pair is computed again,
    # the last one is still answered from the memo.
    before = _counts(engine)
    assert engine.hash2(*pairs[0]) == expected[0]
    assert engine.hash2(*pairs[-1]) == expected[-1]
    assert _since(engine, before) == (2, 1, 1)


def test_hash2_memo_under_threads(monkeypatch):
    # Concurrent callers (ThreadPoolCryptoExecutor lanes) share the memo;
    # a small cap makes clears race with inserts.  A lost insert only
    # costs a recomputation, and the size overshoots the cap by at most
    # one entry per concurrent caller.
    workers, cap = 4, 16
    monkeypatch.setattr(engine_mod, "HASH2_MEMO_SIZE", cap)
    engine = get_engine("int")
    engine._memo.clear()
    pairs = [(i % 40, 7) for i in range(400)]
    expected = engine.hash_many(pairs)
    sizes = []

    def worker():
        for (left, right), digest in zip(pairs, expected):
            assert engine.hash2(left, right) == digest
            sizes.append(len(engine._memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker) for _ in range(workers)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(sizes) == workers * len(pairs)
    assert max(sizes) <= cap + workers


def test_reference_engine_is_not_memoized():
    engine = get_engine("reference")
    before = engine.stats.permutations
    engine.hash2(1, 2)
    engine.hash2(1, 2)
    assert engine.stats.permutations == before + 2
    assert engine.stats.memo_hits == 0


def test_publish_engine_telemetry_mirrors_counters():
    engine = get_engine("int")
    engine.hash2(FieldElement(5), FieldElement(6))
    registry = MetricsRegistry()
    publish_engine_telemetry(registry)
    counter = registry.counter("crypto_hashes_total", backend="int")
    assert counter.value == engine.stats.hashes
    # Idempotent: publishing twice must not double-count.
    publish_engine_telemetry(registry)
    assert counter.value == engine.stats.hashes


def test_publish_engine_telemetry_null_registry_is_noop():
    publish_engine_telemetry(NULL_REGISTRY)  # must not raise or allocate
