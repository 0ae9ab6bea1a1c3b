import importlib

import numpy as np
import pytest

import hyperphase
from hyperphase import (
    BalanceReport,
    Hypergraph,
    PartitionEnsemble,
    PhaseMap,
    PhaseSpaceGrid,
    WignerField,
    build_phase_map,
    formats,
    gaussian_wavefunction,
    grid_from_boundary,
    is_balanced,
    plus_state,
)

SUBMODULES = ("hypergraph", "hyperstate", "phasemap", "wigner")


def test_package_exports_are_the_submodule_exports():
    modules = [importlib.import_module(f"hyperphase.{name}") for name in SUBMODULES]
    union = {name for module in modules for name in module.__all__}
    assert len(hyperphase.__all__) == len(set(hyperphase.__all__))
    assert set(hyperphase.__all__) == union
    for module in modules:
        for name in module.__all__:
            assert getattr(hyperphase, name) is getattr(module, name), f"{module.__name__}.{name}"
    # the benchmark tracer looks up every __all__ name, so a stale entry would crash it
    for module in modules + [importlib.import_module(f"hyperphase.{n}") for n in ("cli", "formats")]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


# --- value types ----------------------------------------------------------------

FIG4_DOC = '{"vertices": 4, "edges": [{"members": [1, 2, 3], "weight": 1}, ' \
           '{"members": [2, 3, 4], "weight": 2}, {"members": [1, 4], "weight": 3}]}'


def value_instances():
    h = formats.parse_hypergraph(FIG4_DOC)
    ensemble = PartitionEnsemble(h, [[1, 4], [2, 3]], 0.2)
    grid = grid_from_boundary(h, 8, 8)
    psi = gaussian_wavefunction(grid, sigma=2.0)
    return [h, ensemble, is_balanced(ensemble), grid, build_phase_map(h, grid),
            WignerField(grid, np.zeros((8, 8))), psi, plus_state(2)]


def test_value_types_refuse_assignment_and_have_no_dict():
    for obj in value_instances():
        name = type(obj).__name__
        for attr in type(obj).__slots__ + ("extra",):
            with pytest.raises(AttributeError, match=f"{name} is immutable"):
                setattr(obj, attr, 1)
        assert not hasattr(obj, "__dict__"), name


def test_derived_values_have_no_public_constructor():
    # a phase map and a balance report are only derived: build_phase_map and is_balanced
    # make them, with no constructor to check or copy their inputs
    for value_type in (PhaseMap, BalanceReport):
        assert "__init__" not in vars(value_type), value_type.__name__
        with pytest.raises(TypeError):
            value_type(1, 2)


def test_equal_documents_parse_to_equal_hypergraphs():
    reordered = ('{"edges": [{"members": [3, 2, 1, 1]}, {"weight": 2.0, "members": [4, 3, 2]}, '
                 '{"members": [4, 1], "weight": 3}], "vertices": 4}')
    a, b = formats.parse_hypergraph(FIG4_DOC), formats.parse_hypergraph(reordered)
    assert a == b and hash(a) == hash(b)
    assert a != formats.parse_hypergraph(FIG4_DOC.replace('"weight": 3', '"weight": 4'))
    assert a != Hypergraph(4, a.hyperedges[::-1]) and a != a.hyperedges


def test_grid_takes_keyword_arguments():
    g = PhaseSpaceGrid(n_q=4, n_p=2, q_min=0.0, q_max=4.0, p_min=-1.0, p_max=1.0, hbar=0.5)
    assert (g.dq, g.dp, g.mass, g.hbar) == (1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="mass must be > 0"):
        PhaseSpaceGrid(4, 2, 0.0, 4.0, -1.0, 1.0, mass=0.0)
