import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase import (
    BooleanFunctionTable,
    Hypergraph,
    PartitionEnsemble,
    QubitStateVector,
    apply_ckz,
    boolean_function,
    encode_hypergraph,
    encode_partitioned,
    is_real_equally_weighted,
    plus_state,
    state_from_boolean_function,
)

from conftest import random_hypergraph


def brute_force_f(h: Hypergraph, v: int) -> int:
    """f(v) = XOR over hyperedges of AND over member bits, by plain Python loops.

    Qubit 1 is the most significant bit of v.
    """
    n = h.n_vertices
    out = 0
    for members, _ in h.hyperedges:
        term = 1
        for q in members:
            bit = (v >> (n - q)) & 1
            term &= bit
        out ^= term
    return out


# --- plus state -----------------------------------------------------------

def test_plus_state_small():
    one = plus_state(1)
    assert np.array_equal(one.amplitudes, np.array([2**-0.5, 2**-0.5], dtype=complex))
    two = plus_state(2)
    assert np.array_equal(two.amplitudes, np.full(4, 0.5, dtype=complex))


def test_plus_state_guard():
    with pytest.raises(ValueError):
        plus_state(21)
    with pytest.raises(ValueError):
        plus_state(0)


def test_state_vector_validation():
    with pytest.raises(ValueError, match="norm"):
        QubitStateVector(2, np.ones(4))
    with pytest.raises(ValueError, match="norm"):
        QubitStateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="amplitudes"):
        QubitStateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="n_qubits"):
        QubitStateVector(0, np.array([1.0]))


# --- single gates -----------------------------------------------------------

def test_ckz_single_qubit_gives_minus_state():
    out = apply_ckz(plus_state(1), {1})
    assert np.array_equal(out.amplitudes, np.array([2**-0.5, -(2**-0.5)], dtype=complex))


def test_ckz_two_qubit_graph_state():
    out = apply_ckz(plus_state(2), {1, 2})
    assert np.array_equal(out.amplitudes, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex))


def test_ckz_is_involution():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = QubitStateVector(3, amps)
    twice = apply_ckz(apply_ckz(s, {1, 3}), {1, 3})
    assert np.array_equal(twice.amplitudes, s.amplitudes)


def test_ckz_empty_targets_global_phase():
    s = plus_state(2)
    out = apply_ckz(s, set())
    assert np.array_equal(out.amplitudes, -s.amplitudes)


def test_ckz_negates_zero_imaginary_part():
    out = apply_ckz(plus_state(2), {1, 2})
    assert np.signbit(out.amplitudes.imag).tolist() == [False, False, False, True]
    full = apply_ckz(plus_state(2), set())
    assert np.signbit(full.amplitudes.imag).all()


def test_ckz_target_range_checked():
    with pytest.raises(ValueError, match="out of range"):
        apply_ckz(plus_state(2), {3})


# --- hypergraph encoding -------------------------------------------------------

def test_fig4_encoding_amplitudes(fig4):
    state = encode_hypergraph(fig4)
    assert state.amplitudes[0b0000] == 0.25  # f(0) = 0 always
    assert state.amplitudes[0b1001] == -0.25  # only {1,4} is fully set
    assert state.amplitudes[0b1111] == -0.25  # 1 xor 1 xor 1


def test_encoding_oversize_refused():
    with pytest.raises(ValueError, match="capped"):
        encode_hypergraph(Hypergraph(21))


def test_boolean_function_single_and():
    table = boolean_function(Hypergraph(2, [({1, 2}, 1.0)]))
    assert table.values == (0, 0, 0, 1)


def test_boolean_function_edgeless():
    assert boolean_function(Hypergraph(3)).values == tuple([0] * 8)


def test_boolean_function_fig4(fig4):
    table = boolean_function(fig4)
    assert table.values[0b1111] == 1
    for v in range(16):
        assert table.values[v] == brute_force_f(fig4, v)


def test_boolean_function_empty_edge_constant_one():
    table = boolean_function(Hypergraph(2, [(set(), 1.0)]))
    assert table.values == (1, 1, 1, 1)


def test_state_from_boolean_function_cross_oracle():
    rng = np.random.default_rng(19)
    for _ in range(30):
        h = random_hypergraph(rng, n_max=5, m_max=4)
        via_table = state_from_boolean_function(boolean_function(h))
        via_gates = encode_hypergraph(h)
        assert np.array_equal(via_table.amplitudes, via_gates.amplitudes)


def test_state_from_boolean_function_trivial_tables():
    flat = state_from_boolean_function(BooleanFunctionTable(2, (0, 0, 0, 0)))
    assert np.array_equal(flat.amplitudes, plus_state(2).amplitudes)
    flipped = state_from_boolean_function(BooleanFunctionTable(2, (1, 1, 1, 1)))
    assert np.array_equal(flipped.amplitudes, -plus_state(2).amplitudes)


def test_table_validation():
    with pytest.raises(ValueError, match="length"):
        BooleanFunctionTable(2, (0, 1))
    with pytest.raises(ValueError, match="0 or 1"):
        BooleanFunctionTable(1, (0, 2))


# --- real equally weighted check --------------------------------------------------

def test_real_equally_weighted_recognition(fig4):
    assert is_real_equally_weighted(encode_hypergraph(fig4))
    assert is_real_equally_weighted(plus_state(3))
    basis = np.zeros(4, dtype=complex)
    basis[0] = 1.0
    assert not is_real_equally_weighted(QubitStateVector(2, basis))
    phased = plus_state(2).amplitudes * np.exp(1j * 0.3)
    assert not is_real_equally_weighted(QubitStateVector(2, phased))


# --- properties ---------------------------------------------------------------------

def test_sign_oracle_random():
    rng = np.random.default_rng(29)
    for _ in range(100):
        h = random_hypergraph(rng, n_max=6, m_max=5)
        state = encode_hypergraph(h)
        c = 2.0 ** (-h.n_vertices / 2.0)
        for v in range(2**h.n_vertices):
            expected = c * (1.0 if brute_force_f(h, v) == 0 else -1.0)
            assert abs(state.amplitudes[v] - expected) <= 1e-15


def test_edge_order_irrelevant():
    rng = np.random.default_rng(41)
    for _ in range(20):
        h = random_hypergraph(rng, n_max=5, m_max=5)
        perm = rng.permutation(h.n_edges)
        shuffled = Hypergraph(h.n_vertices, [h.hyperedges[j] for j in perm])
        assert np.array_equal(
            encode_hypergraph(h).amplitudes, encode_hypergraph(shuffled).amplitudes
        )


def test_double_encoding_returns_plus():
    rng = np.random.default_rng(43)
    for _ in range(20):
        h = random_hypergraph(rng, n_max=5, m_max=5)
        state = encode_hypergraph(h)
        for members, _ in h.hyperedges:
            state = apply_ckz(state, members)
        assert np.array_equal(state.amplitudes, plus_state(h.n_vertices).amplitudes)


def test_single_qubit_edges_specialize_to_z():
    h = Hypergraph(2, [({1}, 1.0), ({2}, 1.0)])
    state = encode_hypergraph(h)
    expected = 0.5 * np.array([1, -1, -1, 1], dtype=complex)  # (Z|+>) x (Z|+>)
    assert np.array_equal(state.amplitudes, expected)


def test_qubit_one_is_most_significant_bit():
    state = encode_hypergraph(Hypergraph(2, [({1}, 1.0)]))
    # Z on qubit 1 negates exactly the basis states whose index MSB is set
    assert np.array_equal(state.amplitudes, 0.5 * np.array([1, 1, -1, -1], dtype=complex))
    assert state.basis_labels() == ["00", "01", "10", "11"]


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_basis_labels_are_padded_binary(n):
    assert plus_state(n).basis_labels() == [format(i, f"0{n}b") for i in range(2**n)]


def test_triangle_graph_state_signs():
    h = Hypergraph(3, [({1, 2}, 1.0), ({2, 3}, 1.0), ({1, 3}, 1.0)])
    state = encode_hypergraph(h)
    c = 2.0 ** (-1.5)
    negative = {0b110, 0b101, 0b011, 0b111}
    for v in range(8):
        want = -c if v in negative else c
        assert state.amplitudes[v] == pytest.approx(want, abs=1e-15)
        assert (brute_force_f(h, v) == 1) == (v in negative)


# --- partitioned encodings ------------------------------------------------------------

def test_single_part_matches_full_encoding(fig4):
    p = PartitionEnsemble(fig4, [{1, 2, 3, 4}], 0.5)
    states, combined = encode_partitioned(fig4, p)
    assert len(states) == 1
    assert np.array_equal(states[0].amplitudes, encode_hypergraph(fig4).amplitudes)
    assert np.array_equal(combined.amplitudes, encode_hypergraph(fig4).amplitudes)


def test_fig4_two_part_encoding(fig4):
    p = PartitionEnsemble(fig4, [{1, 4}, {2, 3}], 0.5)
    states, combined = encode_partitioned(fig4, p)
    cz = np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)
    assert np.array_equal(states[0].amplitudes, cz)  # induced edge {1,4}
    assert np.array_equal(states[1].amplitudes, np.full(4, 0.5, dtype=complex))
    assert combined.n_qubits == 4


def test_singleton_parts_are_plus(fig4):
    p = PartitionEnsemble(fig4, [{1}, {2}, {3}, {4}], 0.5)
    states, combined = encode_partitioned(fig4, p)
    for s in states:
        assert np.array_equal(s.amplitudes, plus_state(1).amplitudes)
    assert np.array_equal(combined.amplitudes, plus_state(4).amplitudes)


def test_partition_must_cover(fig4):
    with pytest.raises(ValueError, match="cover"):
        encode_partitioned(fig4, PartitionEnsemble(fig4, [{1, 2}], 0.5))


def test_empty_parts_rejected(fig4):
    p = PartitionEnsemble(fig4, [{1, 2, 3, 4}, set()], 0.5)
    with pytest.raises(ValueError, match="empty part"):
        encode_partitioned(fig4, p)


def test_foreign_partition_rejected(fig4):
    other = Hypergraph(4)
    p = PartitionEnsemble(other, [{1, 2, 3, 4}], 0.5)
    with pytest.raises(ValueError, match="belong"):
        encode_partitioned(fig4, p)


def test_uncut_tensor_product_identity():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        n_parts = int(rng.integers(1, min(n, 3) + 1))
        assignment = rng.integers(0, n_parts, size=n)
        parts = [
            {int(v + 1) for v in np.where(assignment == k)[0]} for k in range(n_parts)
        ]
        parts = [p for p in parts if p]
        edges = []
        for _ in range(int(rng.integers(0, 5))):
            home = parts[int(rng.integers(0, len(parts)))]
            size = int(rng.integers(1, len(home) + 1))
            members = rng.choice(sorted(home), size=size, replace=False)
            edges.append((set(int(v) for v in members), 1.0))
        h = Hypergraph(n, edges)
        p = PartitionEnsemble(h, parts, 0.5)
        _, combined = encode_partitioned(h, p)
        assert np.array_equal(combined.amplitudes, encode_hypergraph(h).amplitudes)


def test_empty_edge_counted_once_in_partition():
    h = Hypergraph(4, [(set(), 1.0), ({1, 2}, 1.0)])
    p = PartitionEnsemble(h, [{1, 2}, {3, 4}], 0.5)
    _, combined = encode_partitioned(h, p)
    assert np.array_equal(combined.amplitudes, encode_hypergraph(h).amplitudes)


def test_global_gate_flips_all_ones_only(fig4):
    plain = encode_hypergraph(fig4)
    gated = encode_hypergraph(fig4, global_gate=True)
    diff = np.nonzero(plain.amplitudes != gated.amplitudes)[0]
    assert list(diff) == [0b1111]
    assert gated.amplitudes[0b1111] == -plain.amplitudes[0b1111]


@st.composite
def partitioned_hypergraphs(draw):
    """A hypergraph on up to 7 vertices (empty edges allowed) and a partition of it."""
    n = draw(st.integers(1, 7))
    owner = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    parts = [{v for v in range(1, n + 1) if owner[v - 1] == k} for k in range(3)]
    edges = draw(st.lists(st.sets(st.integers(1, n)), max_size=7))
    return Hypergraph(n, [(e, 1.0) for e in edges]), [part for part in parts if part]


def brute_force_amplitudes(n: int, edges) -> np.ndarray:
    h = Hypergraph(n, [(e, 1.0) for e in edges])
    signs = [(-1.0) ** brute_force_f(h, v) for v in range(2**n)]
    return 2.0 ** (-n / 2.0) * np.array(signs, dtype=complex)


@settings(deadline=None)
@given(partitioned_hypergraphs())
def test_cut_partition_matches_brute_force(case):
    h, parts = case
    n = h.n_vertices
    states, combined = encode_partitioned(h, PartitionEnsemble(h, parts, 0.5))
    uncut = [m for m, _ in h.hyperedges if any(m <= part for part in parts)]
    assert np.array_equal(combined.amplitudes, brute_force_amplitudes(n, uncut))
    assert len(states) == len(parts)
    for k, (part, state) in enumerate(zip(parts, states)):
        local = {v: i + 1 for i, v in enumerate(sorted(part))}
        inside = [{local[v] for v in m} for m in uncut if m <= part and (m or k == 0)]
        assert np.array_equal(state.amplitudes, brute_force_amplitudes(len(part), inside))
    # combined is the tensor product: each sign is the product of its parts' signs
    for v in range(2**n):
        sign = 1.0
        for part, state in zip(parts, states):
            bits = "".join(str((v >> (n - q)) & 1) for q in sorted(part))
            sign *= np.sign(state.amplitudes[int(bits, 2)].real)
        assert np.sign(combined.amplitudes[v].real) == sign
