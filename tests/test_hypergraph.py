import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase import (
    Hypergraph,
    PartitionEnsemble,
    adjacency_matrix,
    cut_cost,
    edge_degree_matrix,
    edge_weight_sum_matrix,
    incidence_matrix,
    is_balanced,
    momentum_laplacian,
    part_weight,
    position_laplacian,
    vertex_degree_matrix,
)
from hyperphase.formats import parse_hypergraph, serialize_hypergraph
from hyperphase.hypergraph import _digits

from conftest import float_hypergraphs, random_hypergraph


def naive_gram(h: Hypergraph, diag) -> np.ndarray:
    """Triple-loop H diag(d) H^T, independent of the library's matrix path."""
    n, m = h.n_vertices, h.n_edges
    inc = [[1.0 if v + 1 in h.hyperedges[j][0] else 0.0 for j in range(m)] for v in range(n)]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(inc[i][l] * diag[l] * inc[j][l] for l in range(m))
    return out


# --- incidence / degrees -------------------------------------------------

def test_fig4_incidence(fig4):
    expected = np.array([[1, 0, 1], [1, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=float)
    assert np.array_equal(incidence_matrix(fig4), expected)


def test_fig4_vertex_degree(fig4):
    assert np.array_equal(vertex_degree_matrix(fig4), np.diag([4.0, 3.0, 3.0, 5.0]))


def test_fig4_edge_degree(fig4):
    assert np.array_equal(edge_degree_matrix(fig4), np.diag([3.0, 3.0, 2.0]))


def test_edgeless_matrices():
    h = Hypergraph(3)
    assert incidence_matrix(h).shape == (3, 0)
    assert edge_degree_matrix(h).shape == (0, 0)
    for op in (vertex_degree_matrix, adjacency_matrix, momentum_laplacian, position_laplacian):
        assert np.array_equal(op(h), np.zeros((3, 3)))


def test_empty_hyperedge_column():
    h = Hypergraph(2, [(set(), 1.0)])
    assert np.array_equal(incidence_matrix(h), np.zeros((2, 1)))
    assert edge_degree_matrix(h)[0, 0] == 0.0
    assert edge_weight_sum_matrix(h)[0, 0] == 0.0


def test_full_edge_degree():
    h = Hypergraph(5, [({1, 2, 3, 4, 5}, 2.0)])
    assert edge_degree_matrix(h)[0, 0] == 5.0


def test_single_edge_vertex_degree():
    h = Hypergraph(2, [({1, 2}, 5.0)])
    assert np.array_equal(vertex_degree_matrix(h), np.diag([5.0, 5.0]))


def test_edge_weight_sum_unit_weights_matches_cardinality(fig4):
    assert np.array_equal(edge_weight_sum_matrix(fig4), edge_degree_matrix(fig4))


def test_edge_weight_sum_weighted_vertices():
    h = Hypergraph(4, [({1, 4}, 1.0)], vertex_weights=[1, 2, 3, 4])
    assert edge_weight_sum_matrix(h)[0, 0] == 5.0


# --- adjacency / Laplacians ----------------------------------------------

def test_fig4_adjacency(fig4):
    expected = np.array(
        [[0, 1, 1, 3], [1, 0, 3, 2], [1, 3, 0, 2], [3, 2, 2, 0]], dtype=float
    )
    assert np.array_equal(adjacency_matrix(fig4), expected)
    gram = naive_gram(fig4, [1.0, 2.0, 3.0])
    assert np.array_equal(adjacency_matrix(fig4), gram - np.diag([4.0, 3.0, 3.0, 5.0]))


def test_fig4_momentum_laplacian(fig4):
    expected = np.array(
        [[4, -1, -1, -3], [-1, 3, -3, -2], [-1, -3, 3, -2], [-3, -2, -2, 5]],
        dtype=float,
    )
    lap = momentum_laplacian(fig4)
    assert np.array_equal(lap, expected)
    assert np.array_equal(lap, 2.0 * np.diag([4.0, 3.0, 3.0, 5.0]) - naive_gram(fig4, [1.0, 2.0, 3.0]))
    assert np.array_equal(lap, vertex_degree_matrix(fig4) - adjacency_matrix(fig4))


def test_fig4_position_laplacian(fig4):
    expected = 2.0 * np.diag([4.0, 3.0, 3.0, 5.0]) - naive_gram(fig4, [3.0, 3.0, 2.0])
    assert np.array_equal(position_laplacian(fig4), expected)


def test_graph_case_two_vertices():
    h = Hypergraph(2, [({1, 2}, 1.0)])
    assert np.array_equal(adjacency_matrix(h), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(momentum_laplacian(h), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_position_equals_momentum_when_weights_are_cardinalities():
    rng = np.random.default_rng(11)
    for _ in range(50):
        base = random_hypergraph(rng, allow_empty=False)
        h = Hypergraph(
            base.n_vertices,
            [(members, float(len(members))) for members, _ in base.hyperedges],
        )
        assert np.array_equal(position_laplacian(h), momentum_laplacian(h))


def test_degree_consistency_random():
    rng = np.random.default_rng(42)
    for _ in range(500):
        h = random_hypergraph(rng)
        inc = incidence_matrix(h)
        w = np.array(h.edge_weights())
        assert np.array_equal((inc * w).sum(axis=1), np.diag(vertex_degree_matrix(h)))
        assert np.array_equal(inc.sum(axis=0), np.diag(edge_degree_matrix(h)))
        a, lm, lp = adjacency_matrix(h), momentum_laplacian(h), position_laplacian(h)
        assert np.array_equal(a, a.T)
        assert np.array_equal(lm, lm.T)
        assert np.array_equal(lp, lp.T)
        assert np.all(np.diag(a) == 0.0)


def test_overflowing_weights_rejected():
    h = Hypergraph(2, [({1, 2}, 1e308), ({1}, 1e308)])
    for matrix in (vertex_degree_matrix, momentum_laplacian, position_laplacian):
        with pytest.raises(ValueError, match="edge weights"):
            matrix(h)
    # only the zeroed diagonal of H W H^T overflows; A itself is representable
    assert np.array_equal(adjacency_matrix(h), [[0.0, 1e308], [1e308, 0.0]])
    heavy_vertices = Hypergraph(2, [({1, 2}, 1.0)], vertex_weights=[1e308, 1e308])
    with pytest.raises(ValueError, match="overflow"):
        edge_weight_sum_matrix(heavy_vertices)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality, so -0.0 and +0.0 differ (np.array_equal takes them as equal)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Float weights (float_hypergraphs): the identities hold exactly because every
# matrix is formed from the same incidence product, not only up to rounding.
@settings(deadline=None)
@given(float_hypergraphs())
def test_property_laplacian_is_degree_minus_adjacency(h):
    """Matrix CSV bytes rest on the in-place Laplacian assembly: 0 - G in the Gram product's
    own array, then the degrees added on its diagonal, must give the bits of diag(d) - G,
    +0.0 where D_v - A has it, not -0.0."""
    assert same_bits(momentum_laplacian(h), vertex_degree_matrix(h) - adjacency_matrix(h))


@settings(deadline=None)
@given(float_hypergraphs())
def test_property_vertex_degrees_are_incidence_times_weights(h):
    """d = H w, each d(v) an np.bincount sum from 0.0 in edge order: plain IEEE adds in one
    order, no BLAS, so the bits (and the grids of hypergraph-mode evolve, built from them)
    are the same whatever the BLAS build."""
    expected = [0.0] * h.n_vertices
    for members, w in h.hyperedges:
        for v in members:
            expected[v - 1] += w
    dv = vertex_degree_matrix(h)
    assert same_bits(np.diag(dv), np.array(expected))
    assert np.array_equal(dv, np.diag(np.diag(dv)))


@settings(deadline=None)
@given(float_hypergraphs())
def test_property_edge_weight_sums_are_weights_times_incidence(h):
    """f_w = vw H, each f_w(e) an np.bincount sum from 0.0 in ascending vertex order."""
    expected = []
    for members, _ in h.hyperedges:
        total = 0.0
        for v in sorted(members):
            total += h.vertex_weights[v - 1]
        expected.append(total)
    fw = edge_weight_sum_matrix(h)
    assert same_bits(np.diag(fw), np.array(expected, dtype=np.float64))
    assert np.array_equal(fw, np.diag(np.diag(fw)))


BUILDERS = (incidence_matrix, vertex_degree_matrix, edge_degree_matrix, edge_weight_sum_matrix,
            adjacency_matrix, momentum_laplacian, position_laplacian)


@settings(deadline=None)
@given(float_hypergraphs(), st.randoms(use_true_random=False))
def test_property_member_order_does_not_reach_the_bits(h, rnd):
    # Vertices spread to multiples of 8 share a hash slot, so a frozenset of them
    # iterates in the order its members were inserted: a sum taken in that order
    # differs between the shuffled copies.
    spread = Hypergraph(8 * h.n_vertices, [([8 * v for v in m], w) for m, w in h.hyperedges],
                        vertex_weights=[h.vertex_weights[i // 8] for i in range(8 * h.n_vertices)])
    for g in (h, spread):
        shuffled = Hypergraph(g.n_vertices, [(rnd.sample(sorted(m), len(m)), w)
                                             for m, w in g.hyperedges], g.vertex_weights)
        reread = parse_hypergraph(serialize_hypergraph(g))
        for build in BUILDERS:
            assert same_bits(build(shuffled), build(g)), build.__name__
            assert same_bits(build(reread), build(g)), build.__name__


@settings(deadline=None)
@given(float_hypergraphs())
def test_property_position_laplacian_form(h):
    inc = incidence_matrix(h)
    f = np.diag(edge_weight_sum_matrix(h))
    expected = 2.0 * vertex_degree_matrix(h) - (inc * f) @ inc.T
    assert same_bits(position_laplacian(h), expected)


def test_graph_specialization_matches_classic_laplacian():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 8))
        edges = []
        for _ in range(m):
            pair = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            edges.append((set(int(v) for v in pair), 1.0))
        h = Hypergraph(n, edges)
        # classic graph Laplacian D - A, built edge by edge
        classic = np.zeros((n, n))
        for members, _ in h.hyperedges:
            a, b = sorted(members)
            classic[a - 1, a - 1] += 1
            classic[b - 1, b - 1] += 1
            classic[a - 1, b - 1] -= 1
            classic[b - 1, a - 1] -= 1
        assert np.array_equal(momentum_laplacian(h), classic)


# --- construction validation ----------------------------------------------

def test_member_out_of_range_rejected():
    with pytest.raises(ValueError, match=r"expected an integer in 1\.\.4, got 5"):
        Hypergraph(4, [({1, 5}, 1.0)])


def test_nonpositive_weights_rejected():
    with pytest.raises(ValueError, match="weight"):
        Hypergraph(2, [({1}, 0.0)])
    with pytest.raises(ValueError, match="vertex_weights"):
        Hypergraph(2, [], vertex_weights=[1.0, -1.0])


def test_bad_vertex_count_rejected():
    with pytest.raises(ValueError):
        Hypergraph(0)
    with pytest.raises(ValueError):
        Hypergraph(True, [])
    with pytest.raises(ValueError):
        Hypergraph(2, [], vertex_weights=[1.0])


def test_duplicate_members_collapse():
    h = Hypergraph(3, [([1, 1, 2], 1.0)])
    assert h.hyperedges[0][0] == frozenset({1, 2})
    assert edge_degree_matrix(h)[0, 0] == 2.0


@pytest.mark.parametrize("n, edges, vertex_weights, message", [
    (0, [], None, "vertices: expected an integer in 1..16777216, got 0"),
    (True, [], None, "vertices: expected an integer, got True"),
    (4.0, [], None, "vertices: expected an integer, got 4.0"),
    (4, [([1.5, 2.9], 1.0)], None, "edges[0].members[0]: expected an integer, got 1.5"),
    (4, [([1.5], 1.0)], None, "edges[0].members[0]: expected an integer, got 1.5"),
    (4, [(["3"], 1.0)], None, "edges[0].members[0]: expected an integer, got '3'"),
    (4, [([1], 1.0), ([2, True], 1.0)], None, "edges[1].members[1]: expected an integer, got True"),
    (4, [([np.bool_(True)], 1.0)], None, "edges[0].members[0]: expected an integer, got np.True_"),
    (4, [([1, np.int64(5)], 1.0)], None, "edges[0].members[1]: expected an integer in 1..4, got 5"),
    (4, [([1], "2")], None, "edges[0].weight: expected a number, got '2'"),
    (4, [([1], True)], None, "edges[0].weight: expected a number, got True"),
    (4, [([1, 2], float("inf"))], None, "edges[0].weight: expected a finite number, got inf"),
    (4, [([1, 2], np.nan)], None, "edges[0].weight: expected a finite number, got nan"),
    (4, [([1], 10**400)], None, "edges[0].weight: expected a finite number, got 401 digits"),
    (4, [([1], 10**5000)], None, "edges[0].weight: expected a finite number, got 5001 digits"),
    (4, [], ["1", 1.0, 1.0, 1.0], "vertex_weights[0]: expected a number, got '1'"),
    (4, [], [float("inf"), 1.0, 1.0, 1.0], "vertex_weights[0]: expected a finite number, got inf"),
    (4, [], [1.0, -10**400, 1.0, 1.0], "vertex_weights[1]: expected a finite number, got 401 digits"),
    (4, [], [1.0, 1.0, 1 - 10**5000, 1.0],
     "vertex_weights[2]: expected a finite number, got 5000 digits"),
    (4, [], [1.0, 1.0, False, 1.0], "vertex_weights[2]: expected a number, got False"),
    (4, [], [1.0] * 3, "vertex_weights: expected 4 entries, got 3"),
    # refused before any per-vertex array is made; past 4300 digits, by their count
    (2**24 + 1, [], None, "vertices: expected an integer in 1..16777216, got 16777217"),
    (10**10, [], None, "vertices: expected an integer in 1..16777216, got 10000000000"),
    (10**21, [], None, "vertices: expected an integer in 1..16777216, got 1000000000000000000000"),
    pytest.param(10**5000, [], None, "vertices: expected an integer in 1..16777216, got 5001 digits",
                 id="vertices-5001-digits"),  # pytest's own id would call str()
    pytest.param(-(10**5000), [], None, "vertices: expected an integer in 1..16777216, got 5001 digits",
                 id="vertices-minus-5001-digits"),
    (4, [([1, 10**5000], 1.0)], None, "edges[0].members[1]: expected an integer in 1..4, got 5001 digits"),
])
def test_library_refuses_what_a_document_refuses(n, edges, vertex_weights, message):
    with pytest.raises(ValueError) as info:
        Hypergraph(n, edges, vertex_weights=vertex_weights)
    assert str(info.value) == message


def test_digit_counts_need_no_str():
    """``_digits`` agrees with len(str(n)) at and around every power of 10 and of 2 that str()
    converts, and counts past the 4300 digits where str() of an int is refused."""
    for k in range(1, 1300):
        for n in (10**k - 1, 10**k, 10**k + 1, 2**k - 1, 2**k, 2**k + 1):
            assert _digits(n) == len(str(n)), n
    assert [_digits(n) for n in (10**5000 - 1, 10**5000, 2**20000)] == [5000, 5001, 6021]


def test_numpy_values_sets_and_generators_build_the_same_hypergraph():
    plain = Hypergraph(4, [([1, 2], 2.0), ([3], 0.5), ([], 1.0)], vertex_weights=[1.0, 2.0, 3.0, 4.0])
    for h in (
        Hypergraph(np.int64(4), [(np.array([2, 1, 2]), np.float64(2.0)),
                                 ([np.int32(3)], np.float32(0.5)), (set(), np.int8(1))],
                   vertex_weights=np.arange(1, 5)),
        Hypergraph(4, ((iter(m), w) for m, w in [({1, 2}, 2), ({3}, 0.5), ((), 1)]),
                   vertex_weights=(float(v) for v in range(1, 5))),
    ):
        assert h == plain and hash(h) == hash(plain)
        assert type(h.n_vertices) is int
        assert all(type(v) is int for m in h.edge_members() for v in m)
        assert all(type(w) is float for w in h.edge_weights() + h.vertex_weights)


# --- partitions -------------------------------------------------------------

def test_part_weight_examples():
    h = Hypergraph(4)
    p = PartitionEnsemble(h, [{1, 2, 3}, {4}], 0.5)
    assert part_weight(p, 0) == 3.0
    hw = Hypergraph(4, [], vertex_weights=[1, 2, 3, 4])
    pw = PartitionEnsemble(hw, [{2, 4}, {1, 3}], 0.5)
    assert part_weight(pw, 0) == 6.0
    empty = PartitionEnsemble(h, [set(), {1}], 0.5)
    assert part_weight(empty, 0) == 0.0
    with pytest.raises(ValueError, match=r"^k: expected an integer in 0\.\.1, got 2$"):
        part_weight(p, 2)


def test_is_balanced_332():
    h = Hypergraph(8)
    parts = [{1, 2, 3}, {4, 5, 6}, {7, 8}]
    loose = is_balanced(PartitionEnsemble(h, parts, 0.2))
    assert loose.part_weights == (3.0, 3.0, 2.0)
    assert loose.bound == pytest.approx(3.2)
    assert bool(loose)
    tight = is_balanced(PartitionEnsemble(h, parts, 0.1))
    assert tight.bound == pytest.approx(8.0 / 3.0 * 1.1)
    assert not bool(tight)
    assert tight.per_part_ok == (False, False, True)


def test_is_balanced_single_part():
    h = Hypergraph(3)
    report = is_balanced(PartitionEnsemble(h, [{1, 2, 3}], 0.3))
    assert bool(report)  # f = mean, and f < (1+delta) * mean for delta > 0


def test_is_balanced_requires_parts():
    h = Hypergraph(2)
    with pytest.raises(ValueError, match="no parts"):
        is_balanced(PartitionEnsemble(h, [], 0.5))


@pytest.mark.parametrize("weights, parts, message", [
    ([1e308, 1e308], [[1, 2]], "vertex weight sum of parts[0]: expected a finite number, got inf"),
    ([1.0, 1e308, 1e308], [[1], [2, 3]], "vertex weight sum of parts[1]: expected a finite number, got inf"),
    ([1e308, 1e308], [[1], [2]], "mean weight of parts[0..1]: expected a finite number, got inf"),
    # each sum and the mean are finite: only the bound past them overflows
    ([8.5e307, 8.5e307], [[1, 2]],
     "(1 + delta) * mean weight of parts[0..0] for delta=0.1: expected a finite number, got inf"),
])
def test_balance_sums_past_float64_are_refused(weights, parts, message):
    """A part weight, the mean or the bound past float64 is refused under the parts it sums,
    where it was reported as inf (and written to report.json as Infinity)."""
    p = PartitionEnsemble(Hypergraph(len(weights), vertex_weights=weights), parts, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            is_balanced(p)
    assert str(info.value) == message


def test_balance_invariant_under_weight_scaling():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        weights = rng.uniform(0.1, 5.0, size=n)
        scale = float(rng.uniform(0.01, 100.0))
        delta = float(rng.uniform(0.05, 0.95))
        n_parts = int(rng.integers(1, n + 1))
        assignment = rng.integers(0, n_parts, size=n)
        parts = [{int(v + 1) for v in np.where(assignment == k)[0]} for k in range(n_parts)]
        a = is_balanced(PartitionEnsemble(Hypergraph(n, [], vertex_weights=weights), parts, delta))
        b = is_balanced(
            PartitionEnsemble(Hypergraph(n, [], vertex_weights=weights * scale), parts, delta)
        )
        assert bool(a) == bool(b)


def test_cut_cost_fig4(fig4):
    assert cut_cost(PartitionEnsemble(fig4, [{1, 2}, {3, 4}], 0.5)) == 5.0
    assert cut_cost(PartitionEnsemble(fig4, [{1, 2, 3, 4}], 0.5)) == 0.0
    assert cut_cost(PartitionEnsemble(fig4, [{1}, {2}, {3}, {4}], 0.5)) == 5.0


def test_cut_cost_requires_coverage(fig4):
    with pytest.raises(ValueError, match="not assigned"):
        cut_cost(PartitionEnsemble(fig4, [{1, 2}], 0.5))


def test_cut_cost_zero_iff_no_edge_spans():
    rng = np.random.default_rng(17)
    for _ in range(100):
        h = random_hypergraph(rng, n_max=7, m_max=6)
        n_parts = int(rng.integers(1, h.n_vertices + 1))
        assignment = {v: int(rng.integers(0, n_parts)) for v in range(1, h.n_vertices + 1)}
        parts = [
            {v for v, k in assignment.items() if k == kk} for kk in range(n_parts)
        ]
        p = PartitionEnsemble(h, parts, 0.5)
        spans = any(
            len({assignment[v] for v in members}) >= 2 for members, _ in h.hyperedges
        )
        assert (cut_cost(p) == 0.0) == (not spans)
        total = sum(part_weight(p, k) for k in range(p.n_parts))
        assert total == pytest.approx(sum(h.vertex_weights))


def test_coverage_and_cut_cost_match_a_reference_owner_map():
    rng = np.random.default_rng(29)
    for _ in range(200):
        h = random_hypergraph(rng, n_max=7, m_max=6)
        n_parts = int(rng.integers(1, h.n_vertices + 1))
        # -1 leaves a vertex out of every part
        assignment = {v: int(rng.integers(-1, n_parts)) for v in range(1, h.n_vertices + 1)}
        p = PartitionEnsemble(h, [[v for v, k in assignment.items() if k == kk]
                                  for kk in range(n_parts)], 0.5)
        assert p.covers_all_vertices() == (-1 not in assignment.values())
        missing = [(j, v) for j, (members, _) in enumerate(h.hyperedges)
                   for v in members if assignment[v] == -1]
        if missing:
            j = missing[0][0]
            with pytest.raises(ValueError, match=rf"^hyperedge {j}: vertex \d+ is not assigned"):
                cut_cost(p)
            continue
        assert cut_cost(p) == sum(float(len(m) - 1) for m, _ in h.hyperedges
                                  if len({assignment[v] for v in m}) >= 2)


def test_partition_validation(fig4):
    with pytest.raises(ValueError, match="already assigned"):
        PartitionEnsemble(fig4, [{1, 2}, {2, 3}], 0.5)
    with pytest.raises(ValueError, match=r"expected an integer in 1\.\.4, got 9"):
        PartitionEnsemble(fig4, [{1, 9}], 0.5)
    for delta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="delta"):
            PartitionEnsemble(fig4, [{1}], delta)


@pytest.mark.parametrize("parts, delta, message", [
    ([[1.5, 2.9], ["3"]], 0.1, "parts[0]: expected an integer, got 1.5"),
    ([[1], ["3"]], 0.1, "parts[1]: expected an integer, got '3'"),
    ([[True]], 0.1, "parts[0]: expected an integer, got True"),
    ([[1], [2, None]], 0.1, "parts[1]: expected an integer, got None"),
    ([[1]], "0.5", "delta: expected a number, got '0.5'"),
    ([[1]], True, "delta: expected a number, got True"),
    ([[1]], None, "delta: expected a number, got None"),
    ([[1]], float("nan"), "delta: expected a finite number, got nan"),
    ([[1], [5]], 0.5, "parts[1]: expected an integer in 1..4, got 5"),
    ([[1], [2, 10**5000]], 0.5, "parts[1]: expected an integer in 1..4, got 5001 digits"),
])
def test_partition_members_and_delta_are_checked(fig4, parts, delta, message):
    with pytest.raises(ValueError) as err:
        PartitionEnsemble(fig4, parts, delta)
    assert str(err.value) == message


def test_partition_accepts_numpy_integers_sets_and_generators(fig4):
    p = PartitionEnsemble(fig4, [np.array([1, 2]), {3}, (v for v in [4])], np.float64(0.5))
    assert p.parts == (frozenset({1, 2}), frozenset({3}), frozenset({4})) and p.delta == 0.5
    assert all(type(v) is int for part in p.parts for v in part)
