import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperphase
from hyperphase import (
    BalanceReport,
    Hypergraph,
    PartitionEnsemble,
    PhaseMap,
    PhaseSpaceGrid,
    Wavefunction,
    WignerField,
    build_phase_map,
    evolve,
    formats,
    free_stream_step,
    gaussian_wavefunction,
    grid_from_boundary,
    initial_field_from_hypergraph,
    is_balanced,
    make_grid,
    plane_wave_slice,
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


def test_cli_import_loads_every_layer_the_bench_tracer_wraps():
    """bench/tracer.py looks up each of its LAYERS in sys.modules after importing
    hyperphase.cli, so a layer imported lazily would break every traced bench run."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    child = ("import sys, hyperphase.cli; loaded = set(sys.modules); "
             f"sys.path.insert(0, {str(bench)!r}); from tracer import LAYERS; "
             "print(sorted(name for name in LAYERS if f'hyperphase.{name}' not in loaded), len(LAYERS))")
    env = {**os.environ, "PYTHONPATH": str(Path(hyperphase.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, check=True,
                         env=env, timeout=120)
    assert out.stdout == "[] 6\n"


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
    with pytest.raises(ValueError, match="mass: expected a positive number, got 0.0"):
        PhaseSpaceGrid(4, 2, 0.0, 4.0, -1.0, 1.0, mass=0.0)


# --- reals ----------------------------------------------------------------------

_FIG4 = formats.parse_hypergraph(FIG4_DOC)
_GRID = make_grid(4, 4, (0, 1), (0, 1))
_ROW = plane_wave_slice(_GRID, 1, 1.0)

# (callable, parameter) -> (the name its refusal gives, a call with the parameter set to x).
# The hypergraph weights' rows are in test_hypergraph's table of document refusals.
FINITE_REFUSALS = {
    ("PhaseSpaceGrid", "q_min"): ("q_min", lambda x: PhaseSpaceGrid(4, 4, x, 1.0, 0.0, 1.0)),
    ("PhaseSpaceGrid", "q_max"): ("q_max", lambda x: PhaseSpaceGrid(4, 4, 0.0, x, 0.0, 1.0)),
    ("PhaseSpaceGrid", "p_min"): ("p_min", lambda x: PhaseSpaceGrid(4, 4, 0.0, 1.0, x, 1.0)),
    ("PhaseSpaceGrid", "p_max"): ("p_max", lambda x: PhaseSpaceGrid(4, 4, 0.0, 1.0, 0.0, x)),
    ("PhaseSpaceGrid", "mass"): ("mass", lambda x: PhaseSpaceGrid(4, 4, 0.0, 1.0, 0.0, 1.0, mass=x)),
    ("PhaseSpaceGrid", "hbar"): ("hbar", lambda x: PhaseSpaceGrid(4, 4, 0.0, 1.0, 0.0, 1.0, hbar=x)),
    ("make_grid", "q_bounds"): ("q_min", lambda x: make_grid(4, 4, (x, 1), (0, 1))),
    ("make_grid", "p_bounds"): ("p_max", lambda x: make_grid(4, 4, (0, 1), (0, x))),
    ("make_grid", "m"): ("mass", lambda x: make_grid(4, 4, (0, 1), (0, 1), m=x)),
    ("make_grid", "hbar"): ("hbar", lambda x: make_grid(4, 4, (0, 1), (0, 1), hbar=x)),
    ("WignerField", "t"): ("t", lambda x: WignerField(_GRID, np.zeros((4, 4)), t=x)),
    ("Wavefunction", "q_min"): ("q_min", lambda x: Wavefunction(x, 1.0, [1.0, 1.0])),
    ("Wavefunction", "q_max"): ("q_max", lambda x: Wavefunction(0.0, x, [1.0, 1.0])),
    ("gaussian_wavefunction", "sigma"): ("sigma", lambda x: gaussian_wavefunction(_GRID, sigma=x)),
    ("gaussian_wavefunction", "q0"): ("q0", lambda x: gaussian_wavefunction(_GRID, q0=x)),
    ("gaussian_wavefunction", "p0"): ("p0", lambda x: gaussian_wavefunction(_GRID, p0=x)),
    ("free_stream_step", "dt"): ("dt", lambda x: free_stream_step(_ROW, x)),
    ("evolve", "dt"): ("dt", lambda x: evolve(_ROW, x, 2)),
    ("plane_wave_slice", "k"): ("k", lambda x: plane_wave_slice(_GRID, 1, x)),
    ("plane_wave_slice", "t"): ("t", lambda x: plane_wave_slice(_GRID, 1, 1.0, x)),
    ("grid_from_boundary", "margin"): ("margin", lambda x: grid_from_boundary(_FIG4, 8, 8, x)),
    ("grid_from_boundary", "m"): ("mass", lambda x: grid_from_boundary(_FIG4, 8, 8, m=x)),
    ("grid_from_boundary", "hbar"): ("hbar", lambda x: grid_from_boundary(_FIG4, 8, 8, hbar=x)),
    ("initial_field_from_hypergraph", "k_default"):
        ("k_default", lambda x: initial_field_from_hypergraph(_FIG4, _GRID, x)),
    ("PartitionEnsemble", "delta"): ("delta", lambda x: PartitionEnsemble(_FIG4, [[1, 4], [2, 3]], x)),
}
NOT_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan, "10**400": 10**400,
              "10**5000": 10**5000}  # past the 4300 digits that str() of an int allows


@pytest.mark.parametrize("value", NOT_FINITE.values(), ids=NOT_FINITE.keys())
@pytest.mark.parametrize("key", FINITE_REFUSALS, ids="{0[0]}.{0[1]}".format)
def test_every_real_must_be_finite(key, value):
    """One check refuses each real that is not a finite float64, under its name, before any
    numpy warning; an int past float64 is refused the same way, not with an OverflowError."""
    name, call = FINITE_REFUSALS[key]
    with pytest.raises(ValueError, match=f"^{name}: expected a finite number, got "):
        call(value)


def test_every_real_parameter_is_in_the_finite_table():
    """A parameter annotated ``float`` in a public signature, constructors included, has a row
    above, so a new real cannot skip the finite check unnoticed."""
    reals = set()
    for module in (importlib.import_module(f"hyperphase.{name}") for name in SUBMODULES):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                reals.update((name, p) for p, param in inspect.signature(obj).parameters.items()
                             if param.annotation in ("float", float))
    assert len(reals) > 20 and reals <= FINITE_REFUSALS.keys(), sorted(reals - FINITE_REFUSALS.keys())
