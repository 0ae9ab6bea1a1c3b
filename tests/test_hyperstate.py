import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase import (
    Hypergraph,
    PartitionEnsemble,
    QubitStateVector,
    apply_ckz,
    boolean_function,
    cut_cost,
    encode_hypergraph,
    encode_partitioned,
    is_real_equally_weighted,
    plus_state,
)
from hyperphase.formats import parse_hypergraph

from conftest import random_hypergraph, state_dump


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
    for bad in ([0, 1, 2, 0], [0, -1, 0, 0], [0.0, 1.0, 0.0, 0.0], np.zeros(4, dtype=complex),
                np.array([0.5, 0, 0, 0]), ["0", "1", "0", "1"], [0, 1]):
        with pytest.raises(ValueError, match="signs"):  # no silent cast, no ComplexWarning
            QubitStateVector(2, bad)
    with pytest.raises(ValueError, match="n_qubits"):
        QubitStateVector(0, np.array([1]))
    for good in ([True, False, False, True], [1, 0, 0, 1], np.array([1, 0, 0, 1], dtype=np.int8)):
        state = QubitStateVector(2, good)
        assert state.signs.dtype == np.uint8 and state.signs.tolist() == [1, 0, 0, 1]
    assert state.signs.nbytes == 4  # one byte per basis state
    assert np.array_equal(state.amplitudes, np.array([-0.5, 0.5, 0.5, -0.5], dtype=complex))


@pytest.mark.parametrize("build, message", [
    (lambda: apply_ckz(plus_state(2), [1.5]), "targets: expected an integer, got 1.5"),
    (lambda: apply_ckz(plus_state(2), [True]), "targets: expected an integer, got True"),
    (lambda: apply_ckz(plus_state(2), [1, "2"]), "targets: expected an integer, got '2'"),
    (lambda: QubitStateVector(True, np.zeros(2, np.uint8)), "n_qubits: expected an integer, got True"),
    (lambda: QubitStateVector(2.0, np.zeros(4, np.uint8)), "n_qubits: expected an integer, got 2.0"),
    (lambda: plus_state(2.0), "n: expected an integer, got 2.0"),
    (lambda: plus_state(True), "n: expected an integer, got True"),
])
def test_gate_targets_and_qubit_counts_must_be_integers(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_numpy_integer_targets_and_counts_are_taken_as_ints():
    state = apply_ckz(plus_state(np.int64(2)), [np.int64(1)])
    assert type(state.n_qubits) is int and state.signs.tolist() == [0, 0, 1, 1]
    assert type(QubitStateVector(np.uint8(1), [0, 1]).n_qubits) is int


# --- single gates -----------------------------------------------------------

def test_ckz_single_qubit_gives_minus_state():
    out = apply_ckz(plus_state(1), {1})
    assert np.array_equal(out.amplitudes, np.array([2**-0.5, -(2**-0.5)], dtype=complex))


def test_ckz_two_qubit_graph_state():
    out = apply_ckz(plus_state(2), {1, 2})
    assert np.array_equal(out.amplitudes, np.array([0.5, 0.5, 0.5, -0.5], dtype=complex))


def test_ckz_is_involution():
    s = QubitStateVector(3, np.random.default_rng(0).integers(0, 2, size=8))
    twice = apply_ckz(apply_ckz(s, {1, 3}), {1, 3})
    assert np.array_equal(twice.signs, s.signs)


def test_ckz_empty_targets_global_phase():
    s = plus_state(2)
    out = apply_ckz(s, set())
    assert np.array_equal(out.amplitudes, -s.amplitudes)


def test_ckz_negates_zero_imaginary_part():
    """Amplitudes taken from the sign table read -0 as the imaginary part wherever the sign
    is negative, as complex negation gives it; CI checks these bits on arm64 too."""
    out = apply_ckz(plus_state(2), {1, 2})
    assert np.signbit(out.amplitudes.imag).tolist() == [False, False, False, True]
    full = apply_ckz(plus_state(2), set())
    assert np.signbit(full.amplitudes.imag).all()


def test_states_are_frozen_and_unaliased():
    signs = np.array([0, 1, 1, 0], dtype=np.uint8)
    state = QubitStateVector(2, signs)
    signs[0] = 1
    out = apply_ckz(state, [1, 2])
    assert state.signs.tolist() == [0, 1, 1, 0] and out.signs.tolist() == [0, 1, 1, 1]
    assert not np.shares_memory(out.signs, state.signs)
    for table in (state.signs, out.signs, boolean_function(out), state.amplitudes):
        assert not table.flags.writeable
    assert state.amplitudes is not state.amplitudes  # built on each access


@settings(deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_ckz_matches_per_index_negation_bit_for_bit(n, data):
    # n up to 12 crosses apply_ckz's rows of 2**10 bytes
    targets = data.draw(st.sets(st.integers(1, n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = QubitStateVector(n, rng.integers(0, 2, size=2**n))
    before, amps = state.signs.copy(), state.amplitudes.copy()
    out = apply_ckz(state, targets)
    ref, ref_amps = before.copy(), amps.copy()
    for i in range(2**n):
        if all((i >> (n - q)) & 1 for q in targets):
            ref[i] ^= 1
            ref_amps[i] = -ref_amps[i]
    assert np.array_equal(out.signs, ref) and out.signs.dtype == np.uint8
    assert np.array_equal(out.amplitudes.view(np.uint64), ref_amps.view(np.uint64))
    assert np.array_equal(state.signs, before)
    assert not out.signs.flags.writeable
    assert not np.shares_memory(out.signs, state.signs)
    assert out.n_qubits == n


def test_ckz_target_range_checked():
    with pytest.raises(ValueError, match=r"^targets: expected an integer in 1\.\.2, got 3$"):
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


BIG = Hypergraph(21)


@pytest.mark.parametrize("h, parent, parts, message", [
    (BIG, BIG, [range(1, 11), range(11, 22)],
     "vertices (qubits, capped for the dense encoding): expected an integer <= 20, got 21"),
    (BIG, BIG, [range(1, 21)], "partition must cover every vertex"),
    (BIG, BIG, [range(1, 22), []], "empty parts cannot be encoded"),
    # an equal hypergraph is not this one
    (Hypergraph(2), Hypergraph(2), [[1], [2]], "partition ensemble does not belong to this hypergraph"),
])
def test_encode_partitioned_refusals_are_named(h, parent, parts, message):
    with pytest.raises(ValueError) as info:
        encode_partitioned(h, PartitionEnsemble(parent, parts, 0.5))
    assert str(info.value) == message


def test_boolean_function_single_and():
    table = boolean_function(encode_hypergraph(Hypergraph(2, [({1, 2}, 1.0)])))
    assert table.dtype == np.uint8
    assert table.tolist() == [0, 0, 0, 1]


def test_boolean_function_edgeless():
    assert boolean_function(encode_hypergraph(Hypergraph(3))).tolist() == [0] * 8


def test_boolean_function_fig4(fig4):
    table = boolean_function(encode_hypergraph(fig4))
    assert table[0b1111] == 1
    for v in range(16):
        assert table[v] == brute_force_f(fig4, v)


def test_boolean_function_empty_edge_constant_one():
    table = boolean_function(encode_hypergraph(Hypergraph(2, [(set(), 1.0)])))
    assert table.tolist() == [1, 1, 1, 1]


# --- real equally weighted check --------------------------------------------------

def test_real_equally_weighted_recognition(fig4):
    assert is_real_equally_weighted(encode_hypergraph(fig4))
    assert is_real_equally_weighted(plus_state(3))
    assert is_real_equally_weighted(apply_ckz(plus_state(20), []))


def test_real_equally_weighted_reads_no_amplitudes():
    # tracemalloc peak at 20 qubits: ~50 MB when the check built 2**20 complex amplitudes
    state = apply_ckz(plus_state(20), [1, 20])
    tracemalloc.start()
    try:
        assert is_real_equally_weighted(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


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
    assert dump_labels(state) == ["00", "01", "10", "11"]


def dump_labels(state: QubitStateVector) -> list[str]:
    """The basis-state labels the state dump writes, one per line."""
    return [line.split(" ")[0] for line in state_dump(state).decode("ascii").splitlines()]


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_basis_labels_are_padded_binary(n):
    assert dump_labels(plus_state(n)) == [format(i, f"0{n}b") for i in range(2**n)]


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
    gated = apply_ckz(plain, range(1, 5))
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


@st.composite
def covered_documents(draw):
    """A JSON document on up to 7 vertices (empty and repeated edges allowed) and a
    partition that covers it, in up to n parts, so single-vertex parts are common."""
    n = draw(st.integers(1, 7))
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    parts = [[v for v in range(1, n + 1) if owner[v - 1] == k] for k in dict.fromkeys(owner)]
    edges = draw(st.lists(st.tuples(st.lists(st.integers(1, n), max_size=n), st.integers(1, 9)),
                          max_size=8))
    doc = {"vertices": n, "edges": [{"members": m, "weight": w} for m, w in edges]}
    return json.dumps(doc), parts


@settings(deadline=None)
@given(covered_documents())
def test_partition_states_follow_the_cut_rule(case):
    """The combined state encodes exactly the edges cut_cost does not count, and each part
    the edges a reference vertex-to-part map puts in it (an empty edge in part 1)."""
    text, parts = case
    h = parse_hypergraph(text)
    n, p = h.n_vertices, PartitionEnsemble(h, parts, 0.5)
    states, combined = encode_partitioned(h, p)
    uncounted = [e for e in h.hyperedges if cut_cost(PartitionEnsemble(Hypergraph(n, [e]), parts, 0.5)) == 0]
    assert np.array_equal(combined.signs, encode_hypergraph(Hypergraph(n, uncounted)).signs)
    owner = {v: k for k, part in enumerate(parts) for v in part}
    spans = [{owner[v] for v in m} or {0} for m in h.edge_members()]
    assert cut_cost(p) == sum(len(m) - 1 for m, s in zip(h.edge_members(), spans) if len(s) > 1)
    assert len(states) == len(parts)
    for k, (part, state) in enumerate(zip(parts, states)):
        local = {v: i + 1 for i, v in enumerate(sorted(part))}
        mine = [([local[v] for v in m], w) for (m, w), s in zip(h.hyperedges, spans) if s == {k}]
        assert np.array_equal(state.signs, encode_hypergraph(Hypergraph(len(part), mine)).signs)


@st.composite
def hypergraphs(draw, n_max=10):
    """A hypergraph on up to n_max vertices; empty and repeated edges allowed."""
    n = draw(st.integers(1, n_max))
    edges = draw(st.lists(st.sets(st.integers(1, n)), max_size=12))
    return Hypergraph(n, [(e, 1.0) for e in edges])


@settings(deadline=None)
@given(hypergraphs())
def test_hypergraph_state_stabilizers(h):
    # X_i times the CZs of the edges through i, restricted to e \ {i}, fixes the
    # state (Rossi et al. 2013): f(x + e_i) + f(x) = XOR over e containing i of
    # AND over e \ {i}, mod 2.
    n = h.n_vertices
    f = boolean_function(encode_hypergraph(h))
    x = np.arange(2**n)
    bit = {q: (x >> (n - q)) & 1 for q in range(1, n + 1)}
    for i in range(1, n + 1):
        expected = np.zeros(2**n, dtype=np.int64)
        for members, _ in h.hyperedges:
            if i in members:
                term = np.ones(2**n, dtype=np.int64)
                for q in members - {i}:
                    term &= bit[q]
                expected ^= term
        assert np.array_equal(f[x ^ (1 << (n - i))] ^ f, expected)


def gate_chain_amplitudes(h: Hypergraph, global_gate: bool) -> np.ndarray:
    """The encoding as a chain of gates on complex amplitudes: |+>^n, then np.negative
    of each hyperedge's block (unary minus, so an imaginary 0 becomes -0)."""
    n = h.n_vertices
    amps = np.full(2**n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    edges = [members for members, _ in h.hyperedges] + [set(range(1, n + 1))] * global_gate
    for members in edges:
        index = tuple(1 if q in members else slice(None) for q in range(1, n + 1)) + (...,)
        block = amps.reshape((2,) * n)[index]
        np.negative(block, out=block)
    return amps


@settings(deadline=None)
@given(hypergraphs(n_max=13), st.booleans())
def test_amplitudes_equal_the_complex_gate_chain_bit_for_bit(h, global_gate):
    state = encode_hypergraph(h)
    if global_gate:
        state = apply_ckz(state, range(1, h.n_vertices + 1))
    want = gate_chain_amplitudes(h, global_gate)
    assert np.array_equal(state.amplitudes.view(np.uint64), want.view(np.uint64))


@settings(deadline=None)
@given(hypergraphs())
def test_boolean_function_matches_brute_force(h):
    table = boolean_function(encode_hypergraph(h))
    assert table.tolist() == [brute_force_f(h, v) for v in range(2**h.n_vertices)]


def test_encoder_holds_one_byte_per_basis_state():
    # tracemalloc peak of a 16-qubit, 48-edge encoding: ~0.17 MB as sign tables,
    # ~2.4 MB when each gate copied 16-byte complex amplitudes
    rng = np.random.default_rng(16)
    edges = [(set(rng.choice(np.arange(1, 17), size=int(rng.integers(0, 5)), replace=False)), 1.0)
             for _ in range(48)]
    h = Hypergraph(16, edges)
    encode_hypergraph(h)
    tracemalloc.start()
    try:
        encode_hypergraph(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**16, peak
