import ast
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hyperphase
from hyperphase import (
    MAX_CELLS,
    BalanceReport,
    Hypergraph,
    PartitionEnsemble,
    PhaseMap,
    PhaseSpaceGrid,
    QubitStateVector,
    Wavefunction,
    WignerField,
    adjacency_matrix,
    apply_ckz,
    build_phase_map,
    edge_degree_matrix,
    edge_weight_sum_matrix,
    evolve,
    formats,
    free_stream_step,
    gaussian_wavefunction,
    grid_from_boundary,
    incidence_matrix,
    initial_field_from_hypergraph,
    is_balanced,
    make_grid,
    momentum_laplacian,
    part_weight,
    plane_wave_slice,
    plus_state,
    position_laplacian,
    vertex_degree_matrix,
    wigner_transform,
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


def test_every_array_a_value_holds_is_read_only():
    values = value_instances()
    grid, psi = values[3], values[6]
    field = wigner_transform(psi, grid)
    values += [field, free_stream_step(field, 0.1), apply_ckz(plus_state(2), [1])]
    arrays = [getattr(v, name) for v in values for name in type(v).__slots__
              if isinstance(getattr(v, name), np.ndarray)]
    assert len(arrays) == 6 and not any(a.flags.writeable for a in arrays)


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


# --- phases ---------------------------------------------------------------------

_PSI4 = gaussian_wavefunction(_GRID)

# (callable, parameter) -> (the name its refusal gives, a call with the parameter set from x).
# A phase grows with each input but hbar, which divides it: hbar is set to 1 / x.
PHASE_REFUSALS = {
    ("gaussian_wavefunction", "p0"): ("p0", lambda x: gaussian_wavefunction(_GRID, p0=x)),
    ("plane_wave_slice", "k"): ("k", lambda x: plane_wave_slice(_GRID, 1, x)),
    ("plane_wave_slice", "t"): ("t", lambda x: plane_wave_slice(_GRID, 1, 1.0, x)),
    ("initial_field_from_hypergraph", "k_default"):
        ("k_default", lambda x: initial_field_from_hypergraph(_FIG4, _GRID, x)),
    ("free_stream_step", "dt"): ("dt", lambda x: free_stream_step(_ROW, x)),
    ("make_grid", "hbar"):
        ("hbar", lambda x: wigner_transform(_PSI4, make_grid(4, 4, (0, 1), (0, 1), hbar=1 / x))),
}


@pytest.mark.parametrize("value", [1e300, 1e308])
@pytest.mark.parametrize("key", PHASE_REFUSALS, ids="{0[0]}.{0[1]}".format)
def test_every_phase_is_bounded(key, value):
    """A finite input whose phase is past 2**53 rad, where no digit of it is left, is refused by
    one check under its name, before the phase is computed and any numpy warning."""
    name, call = PHASE_REFUSALS[key]
    with pytest.raises(ValueError, match=rf"\b{name}=[^:]*: expected a phase of at most 2\*\*53 rad, "):
        call(value)


# --- integers -------------------------------------------------------------------

_HALVES = PartitionEnsemble(_FIG4, [[1, 4], [2, 3]], 0.2)
_CELLS = MAX_CELLS // 2  # a grid count's largest value: the other count is at least 2

# (callable, parameter) -> (the name its refusal gives, lowest and highest value (None: open),
# a call with the parameter set to x).  Members, parts and targets are integers in a list.
RANGE_REFUSALS = {
    ("Hypergraph", "n_vertices"): ("vertices", 1, MAX_CELLS, lambda x: Hypergraph(x)),
    ("Hypergraph", "hyperedges"): ("edges[0].members[0]", 1, 4, lambda x: Hypergraph(4, [([x], 1.0)])),
    ("PartitionEnsemble", "parts"): ("parts[0]", 1, 4, lambda x: PartitionEnsemble(_FIG4, [[x]], 0.5)),
    ("part_weight", "k"): ("k", 0, 1, lambda x: part_weight(_HALVES, x)),
    ("QubitStateVector", "n_qubits"): ("n_qubits", 1, 20, lambda x: QubitStateVector(x, np.zeros(2, int))),
    ("plus_state", "n"): ("n", 1, 20, lambda x: plus_state(x)),
    ("apply_ckz", "targets"): ("targets", 1, 2, lambda x: apply_ckz(plus_state(2), [x])),
    ("PhaseSpaceGrid", "n_q"): ("n_q", 2, _CELLS, lambda x: PhaseSpaceGrid(x, 4, 0.0, 1.0, 0.0, 1.0)),
    ("PhaseSpaceGrid", "n_p"): ("n_p", 2, _CELLS, lambda x: PhaseSpaceGrid(4, x, 0.0, 1.0, 0.0, 1.0)),
    ("make_grid", "n_q"): ("n_q", 2, _CELLS, lambda x: make_grid(x, 4, (0, 1), (0, 1))),
    ("make_grid", "n_p"): ("n_p", 2, _CELLS, lambda x: make_grid(4, x, (0, 1), (0, 1))),
    ("grid_from_boundary", "n_q"): ("n_q", 2, _CELLS, lambda x: grid_from_boundary(_FIG4, x, 8)),
    ("grid_from_boundary", "n_p"): ("n_p", 2, _CELLS, lambda x: grid_from_boundary(_FIG4, 8, x)),
    ("plane_wave_slice", "slice_index"): ("slice_index", 0, 3, lambda x: plane_wave_slice(_GRID, x, 1.0)),
    ("free_stream_step", "steps"): ("steps", 1, None, lambda x: free_stream_step(_ROW, 0.1, x)),
    ("evolve", "steps"): ("steps", 1, None, lambda x: evolve(_ROW, 0.1, x)),
    ("evolve", "snapshot_every"): ("snapshot_every", 0, None, lambda x: evolve(_ROW, 0.1, 2, x)),
}


@pytest.mark.parametrize("key", RANGE_REFUSALS, ids="{0[0]}.{0[1]}".format)
def test_every_integer_is_range_checked(key):
    """One check refuses each integer outside its range, under its name, with the bound and the
    value; a value past the 4300 digits str() allows is given by its digit count."""
    name, low, high, call = RANGE_REFUSALS[key]
    bound = f">= {low}" if high is None else f"in {low}..{high}"
    outside = {low - 1: str(low - 1), -(10**5000): "5001 digits"}
    if high is not None:
        outside.update({high + 1: str(high + 1), 10**5000: "5001 digits"})
    for value, shown in outside.items():
        message = f"{name}: expected an integer {bound}, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: expected an integer, got True$"):
        call(True)


def test_open_ended_counts_take_any_size():
    """A step count has no integer bound, but t / steps needs it as a finite float64; a
    snapshot interval longer than the run is the whole run."""
    with pytest.raises(ValueError, match="^steps: expected a finite number, got 5001 digits$"):
        evolve(_ROW, 0.1, 10**5000)
    assert len(evolve(_ROW, 0.1, 2, 10**5000)) == 1


def test_every_integer_parameter_is_in_the_range_table():
    """A public parameter annotated with ``int``, alone or in a list, has a row above, so a new
    integer cannot skip the range check unnoticed."""
    ints = set()
    for module in (importlib.import_module(f"hyperphase.{name}") for name in SUBMODULES):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                ints.update((name, p) for p, param in inspect.signature(obj).parameters.items()
                            if re.search(r"\bint\b", str(param.annotation)))
    assert len(ints) > 15 and ints <= RANGE_REFUSALS.keys(), sorted(ints - RANGE_REFUSALS.keys())


# --- cells ----------------------------------------------------------------------

# 4200**2 and 4097**2 cells are past MAX_CELLS = 2**24; each input is small, and no builder
# may allocate its refused array: tracemalloc measured 134.7-151.5 MiB where one did.
_WIDE = Hypergraph(4200, [([1], 1.0)])  # an n x n past the cap, its incidence matrix 4200 x 1
_LONG = Hypergraph(1, [([1], 1.0)] * 4097)  # an m x m past the cap
_SQUARE = Hypergraph(4097, [([v], 1.0) for v in range(1, 4098)])  # an n x m past the cap
_NARROW = make_grid(8192, 2, (-8, 8), (-8, 8))  # its n_q x ceil(n_q / 2) correlation is past the cap
_PSI = gaussian_wavefunction(_NARROW)
CELL_REFUSALS = {
    "incidence_matrix": lambda: incidence_matrix(_SQUARE),
    "vertex_degree_matrix": lambda: vertex_degree_matrix(_WIDE),
    "edge_degree_matrix": lambda: edge_degree_matrix(_LONG),
    "edge_weight_sum_matrix": lambda: edge_weight_sum_matrix(_LONG),
    "adjacency_matrix": lambda: adjacency_matrix(_WIDE),
    "momentum_laplacian": lambda: momentum_laplacian(_WIDE),
    "position_laplacian": lambda: position_laplacian(_WIDE),
    "PhaseSpaceGrid": lambda: PhaseSpaceGrid(4097, 4097, 0.0, 1.0, 0.0, 1.0),
    "wigner_transform": lambda: wigner_transform(_PSI, _NARROW),
    "vertex_degree_matrix of 2**24 vertices": lambda: vertex_degree_matrix(Hypergraph(2**24)),
}


@pytest.mark.parametrize("name", CELL_REFUSALS)
def test_every_dense_builder_refuses_before_it_allocates(name):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^cells of the .*: expected an integer <= 16777216, got \d+$"):
            CELL_REFUSALS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_a_count_no_diagonal_can_hold_is_refused():
    # a vertex count needs no per-vertex array; its 2**48-cell D_v is refused
    with pytest.raises(ValueError, match=r"^cells of the vertex degree matrix \(16777216 x 16777216\)"):
        vertex_degree_matrix(Hypergraph(2**24))


# --- one home per bound ---------------------------------------------------------

# a line may match each pattern only inside its helpers
BOUND_HOMES = {
    r"out of range|must be >=|must be at most|must be in ": (),
    r"[<>]=? *MAX_(CELLS|QUBITS)": ("_require_int", "_require_cells"),
    r"math\.isfinite": ("_require_real",),
    r"[<>]=? *2(\.0)? *\*\* *53": ("_require_phase",),
}


def source_lines(homes: dict) -> tuple[list[str], list[str]]:
    """'file:line' of each package source line that matches a pattern of ``homes``: those inside
    a function the pattern names, and those outside every one."""
    inside, outside = [], []
    for path in sorted(Path(hyperphase.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = {f.name: range(f.lineno, f.end_lineno + 1) for f in ast.walk(ast.parse(text))
                 if isinstance(f, ast.FunctionDef)}
        for i, line in enumerate(text.splitlines(), start=1):
            for pattern, helpers in homes.items():
                if re.search(pattern, line):
                    home = any(i in spans.get(name, ()) for name in helpers)
                    (inside if home else outside).append(f"{path.name}:{i}")
    return inside, outside


def test_each_bound_has_one_home():
    """An integer's range is refused only by ``_require_int``, an array's cells only by
    ``_require_cells``, a real that is not finite only by ``_require_real`` and a phase past
    2**53 rad only by ``_require_phase``: no other code words a range refusal, compares with a
    cap or with 2**53, or calls math.isfinite."""
    assert source_lines(BOUND_HOMES)[1] == []


def test_only_the_outputs_that_print_vertex_weights_read_them():
    """Only the outputs that print vertex weights read ``vertex_weights``, which builds unit
    weights on each read: equality, hashing, f_w and part weights read the stored form."""
    inside, outside = source_lines({r"\.vertex_weights\b": ("cmd_info", "serialize_hypergraph")})
    assert len(inside) == 2 and outside == []


def test_arrays_are_made_read_only_in_one_place():
    """``_Value._set`` marks each array a value stores read-only, and ``amplitudes`` the array it
    builds on each read: no other code sets ``flags.writeable``."""
    inside, outside = source_lines({r"\.flags\.writeable *=(?!=)": ("_set", "amplitudes")})
    assert len(inside) == 2 and outside == []
