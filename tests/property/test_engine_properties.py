"""Property-based backend-equivalence suite for the Poseidon engine.

Every backend available in this interpreter (reference, int, and gmpy2 when
installed) must be *bit-identical* on random states: same permutation
outputs, same sponge digests, same Merkle roots, same zkSNARK witness
vectors.  A divergence anywhere would fork a deployed network's view of the
membership tree, so the property is the strongest form of the golden-vector
guarantee.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.engine import available_backends, get_engine, use_backend
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleTree
from repro.crypto.poseidon import poseidon_hash, poseidon_params, poseidon_permutation
from repro.zksnark.gadgets import poseidon_hash_gadget
from repro.zksnark.r1cs import ConstraintSystem, LinearCombination

BACKENDS = available_backends()

field_ints = st.integers(min_value=0, max_value=FIELD_MODULUS - 1)
widths = st.integers(min_value=2, max_value=9)
arities = st.integers(min_value=1, max_value=8)


@given(widths, st.data())
@settings(max_examples=40, deadline=None)
def test_permutation_equivalence(t, data):
    state = [
        FieldElement(data.draw(field_ints, label=f"lane{i}")) for i in range(t)
    ]
    expected = poseidon_permutation(state, poseidon_params(t))
    for backend in BACKENDS:
        assert get_engine(backend).permute(state) == expected, backend


@given(arities, st.data())
@settings(max_examples=40, deadline=None)
def test_hash_equivalence(n, data):
    inputs = [
        FieldElement(data.draw(field_ints, label=f"in{i}")) for i in range(n)
    ]
    expected = poseidon_hash(inputs)
    for backend in BACKENDS:
        assert get_engine(backend).hash(inputs) == expected, backend


@given(st.lists(st.tuples(field_ints, field_ints), max_size=20))
@settings(max_examples=25, deadline=None)
def test_hash_many_equivalence(raw_pairs):
    pairs = [(FieldElement(l), FieldElement(r)) for l, r in raw_pairs]
    expected = [poseidon_hash([l, r]) for l, r in pairs]
    for backend in BACKENDS:
        assert get_engine(backend).hash_many(pairs) == expected, backend


@given(field_ints, field_ints, st.booleans())
@settings(max_examples=25, deadline=None)
def test_repeated_hash2_returns_reference_digest(left, right, wrap):
    # The second call is answered from the memo (when the backend has
    # one); an unreduced int input must land on the same entry.
    expected = get_engine("reference").hash2(left, right)
    again = (left + FIELD_MODULUS, right) if wrap else (FieldElement(left), right)
    for backend in BACKENDS:
        engine = get_engine(backend)
        assert engine.hash2(left, right) == expected, backend
        assert engine.hash2(*again) == expected, backend


@given(st.lists(st.integers(min_value=1, max_value=FIELD_MODULUS - 1), min_size=1, max_size=16))
@settings(max_examples=20, deadline=None)
def test_from_leaves_root_identical_across_backends(raw_leaves):
    leaves = [FieldElement(v) for v in raw_leaves]
    roots = set()
    for backend in BACKENDS:
        with use_backend(backend):
            roots.add(MerkleTree.from_leaves(leaves, depth=5).root)
    assert len(roots) == 1


@given(field_ints, field_ints)
@settings(max_examples=15, deadline=None)
def test_gadget_witness_vector_identical_across_backends(a, b):
    """The gadget's fast concrete path must assign the exact same witness."""
    witnesses = []
    for backend in BACKENDS:
        with use_backend(backend):
            cs = ConstraintSystem()
            lc_a = LinearCombination.variable(cs.allocate(FieldElement(a)))
            lc_b = LinearCombination.variable(cs.allocate(FieldElement(b)))
            poseidon_hash_gadget(cs, [lc_a, lc_b], "h")
            cs.check_satisfied()
            witnesses.append(tuple(w.value for w in cs.full_witness()))
    assert len(set(witnesses)) == 1
