import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from hyperphase import Hypergraph, formats


@pytest.fixture
def fig4() -> Hypergraph:
    """The worked 4-vertex example: E = {{1,2,3},{2,3,4},{1,4}}, weights (1,2,3)."""
    return Hypergraph(4, [({1, 2, 3}, 1.0), ({2, 3, 4}, 2.0), ({1, 4}, 3.0)])


def traced_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs: what it allocates, not what it was given."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_hypergraph(rng: np.random.Generator, n_max: int = 8, m_max: int = 8,
                      allow_empty: bool = True, weight_pool=(1, 2, 3, 4, 5)) -> Hypergraph:
    """Seeded random hypergraph with integer edge weights."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    edges = []
    for _ in range(m):
        lo = 0 if allow_empty else 1
        size = int(rng.integers(lo, n + 1))
        members = rng.choice(np.arange(1, n + 1), size=size, replace=False)
        edges.append((set(int(v) for v in members), float(rng.choice(weight_pool))))
    return Hypergraph(n, edges)


_weights = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def float_hypergraphs(draw) -> Hypergraph:
    """Hypergraphs of 1-8 vertices and up to 8 edges with float weights in [1e-3, 1e3]."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.tuples(st.sets(st.integers(1, n)), _weights), max_size=8))
    vertex_weights = draw(st.lists(_weights, min_size=n, max_size=n))
    return Hypergraph(n, edges, vertex_weights=vertex_weights)


def state_dump(state) -> bytes:
    """The text ``formats.dump_state`` writes for ``state``, collected in memory."""
    out = io.BytesIO()
    formats.dump_state(state, out)
    return out.getvalue()


def dump_amplitudes(dump: bytes) -> np.ndarray:
    """Amplitudes of a state dump, whose lines are 'bits re im' in basis order."""
    fields = np.array(dump.split()).reshape(-1, 3)
    n = len(fields[0, 0])
    assert fields[:, 0].tolist() == [f"{i:0{n}b}".encode() for i in range(2**n)]
    return fields[:, 1].astype(float) + 1j * fields[:, 2].astype(float)
