import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase import (
    MAX_CELLS,
    Hypergraph,
    PhaseSpaceGrid,
    Wavefunction,
    WignerField,
    evolve,
    free_stream_step,
    gaussian_wavefunction,
    grid_from_boundary,
    initial_field_from_hypergraph,
    make_grid,
    marginals,
    plane_wave_slice,
    total_mass,
    wigner_transform,
    wigner_transform_pure,
)
from hyperphase import formats, wigner

from conftest import traced_peak


def smooth_field(grid, rng, n_modes: int = 5) -> WignerField:
    """Band-limited random field: a few low FFT modes per row, exactly shiftable."""
    q = grid.q_centers()
    L = grid.q_max - grid.q_min
    values = np.zeros((grid.n_p, grid.n_q))
    for j in range(grid.n_p):
        for mode in range(n_modes):
            k = 2.0 * math.pi * mode / L
            values[j] += rng.normal() * np.cos(k * q) + rng.normal() * np.sin(k * q)
    return WignerField(grid, values, field_mode=True)


# --- grids -----------------------------------------------------------------

def test_make_grid_unit_cells():
    g = make_grid(4, 4, (0, 4), (0, 4))
    assert g.dq == 1.0 and g.dp == 1.0
    assert g.q_centers()[0] == 0.5 and g.p_centers()[0] == 0.5


def test_make_grid_fine():
    g = make_grid(256, 256, (-8, 8), (-8, 8))
    assert g.dq == pytest.approx(1.0 / 16.0)


def test_make_grid_validation():
    with pytest.raises(ValueError, match=r"^n_q: expected an integer in 2\.\.8388608, got 1$"):
        make_grid(1, 4, (0, 1), (0, 1))
    with pytest.raises(ValueError, match="inverted q"):
        make_grid(4, 4, (1, 0), (0, 1))
    with pytest.raises(ValueError, match="mass"):
        make_grid(4, 4, (0, 1), (0, 1), m=0.0)
    with pytest.raises(ValueError, match="hbar"):
        make_grid(4, 4, (0, 1), (0, 1), hbar=-1.0)
    with pytest.raises(ValueError, match=r"^q_max: expected a finite number, got inf$"):
        make_grid(4, 4, (0, math.inf), (0, 1))
    with pytest.raises(ValueError, match=r"^p_min: expected a finite number, got nan$"):
        make_grid(4, 4, (0, 1), (math.nan, 1))
    with pytest.raises(ValueError, match=r"cell area.*q in \[-1e\+308, 1e\+308\]"):
        make_grid(4, 4, (-1e308, 1e308), (0, 1))
    with pytest.raises(ValueError, match=r"cell area.*p in \[0.0, 1e\+308\]"):
        make_grid(4, 4, (0, 1e308), (0, 1e308))
    # the cell cap is checked on the counts alone, before any array exists
    with pytest.raises(ValueError, match=r"\(1000000 x 1000000\): expected an integer <= 16777216, "
                                         r"got 1000000000000$"):
        make_grid(10**6, 10**6, (0, 1), (0, 1))
    with pytest.raises(ValueError, match=r"^n_q: expected an integer in 2\.\.8388608, got 8388609$"):
        make_grid(MAX_CELLS // 2 + 1, 2, (0, 1), (0, 1))
    make_grid(MAX_CELLS // 2, 2, (0, 1), (0, 1))


def test_numpy_grid_numbers_are_taken_as_python_numbers(tmp_path):
    g = PhaseSpaceGrid(np.int64(8), np.uint16(4), np.float32(-1), 1.0, np.int64(0), 2, np.float64(2))
    assert [type(getattr(g, k)) for k in g.__slots__] == [int, int] + [float] * 6
    _, meta = formats.write_snapshot(tmp_path, 0, plane_wave_slice(g, np.int64(3), 1.0))
    assert json.loads(meta.read_text())["n_q"] == 8


def test_field_validation_and_immutability():
    g = make_grid(4, 4, (0, 4), (0, 4))
    with pytest.raises(ValueError, match="shape"):
        WignerField(g, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="finite"):
        WignerField(g, np.full((4, 4), np.nan))
    for bad in (np.nan, np.inf, -np.inf):  # the check reads the min and max: one cell is enough
        values = np.arange(16.0).reshape(4, 4)
        values[2, 1] = bad
        with pytest.raises(ValueError, match="^field values must be finite$"):
            WignerField(g, values)
    f = WignerField(g, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
    with pytest.raises(AttributeError):
        f.t = 2.0


# --- states ------------------------------------------------------------------

def test_wavefunction_requires_unit_norm():
    with pytest.raises(ValueError, match="norm"):
        Wavefunction(-8, 8, np.ones(16))
    with pytest.raises(ValueError, match="norm"):
        Wavefunction(0, 1, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("build, message", [
    (lambda: make_grid(4, 4, (0, 1), (1, 0)), "inverted p bounds: [1.0, 0.0]"),
    (lambda: Wavefunction(0, 1, np.full((2, 2), 0.5)), "samples must be a 1-D array of length >= 2"),
    (lambda: Wavefunction(0, 1, [1.0]), "samples must be a 1-D array of length >= 2"),
    (lambda: Wavefunction(1, 0, [1.0, 1.0]), "inverted q bounds: [1, 0]"),
    (lambda: PhaseSpaceGrid(2.5, 4, 0.0, 1.0, 0.0, 1.0), "n_q: expected an integer, got 2.5"),
    (lambda: PhaseSpaceGrid(4, True, 0.0, 1.0, 0.0, 1.0), "n_p: expected an integer, got True"),
    (lambda: PhaseSpaceGrid(4, 4, 0.0, 1.0, 0.0, True), "p_max: expected a number, got True"),
    (lambda: make_grid(4, 4, ("0", 1), (0, 1)), "q_min: expected a number, got '0'"),
    (lambda: make_grid(4, 4, (0, 1), (0, 1), m="1"), "mass: expected a number, got '1'"),
    (lambda: make_grid(4, 4, (0, 1), (0, 1), hbar=None), "hbar: expected a number, got None"),
    (lambda: plane_wave_slice(make_grid(4, 4, (0, 1), (0, 1)), 1.5, 1.0),
     "slice_index: expected an integer, got 1.5"),
    (lambda: plane_wave_slice(make_grid(4, 4, (0, 1), (0, 1)), True, 1.0),
     "slice_index: expected an integer, got True"),
    (lambda: WignerField(make_grid(4, 4, (0, 1), (0, 1)), np.zeros((4, 4)), field_mode="no"),
     "field_mode: expected a bool, got 'no'"),
])
def test_bad_grid_and_state_are_named(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


_GRID = make_grid(4, 4, (0, 1), (0, 1))
_ROW = plane_wave_slice(_GRID, 1, 1.0)
_FIG4 = Hypergraph(4, [({1, 2, 3}, 1.0), ({2, 3, 4}, 2.0), ({1, 4}, 3.0)])


@pytest.mark.parametrize("build, message", [
    (lambda: plane_wave_slice(_GRID, 1, "1"), "k: expected a number, got '1'"),
    (lambda: plane_wave_slice(_GRID, 1, 1.0, "1"), "t: expected a number, got '1'"),
    (lambda: initial_field_from_hypergraph(_FIG4, _GRID, "1"), "k_default: expected a number, got '1'"),
    (lambda: gaussian_wavefunction(_GRID, sigma="1"), "sigma: expected a number, got '1'"),
    (lambda: gaussian_wavefunction(_GRID, sigma=True), "sigma: expected a number, got True"),
    (lambda: gaussian_wavefunction(_GRID, q0="1"), "q0: expected a number, got '1'"),
    (lambda: gaussian_wavefunction(_GRID, p0=None), "p0: expected a number, got None"),
    (lambda: Wavefunction("0", 1, [1.0, 1.0]), "q_min: expected a number, got '0'"),
    (lambda: Wavefunction(0, [1], [1.0, 1.0]), "q_max: expected a number, got [1]"),
    (lambda: free_stream_step(_ROW, True), "dt: expected a number, got True"),
    (lambda: free_stream_step(_ROW, "0.1"), "dt: expected a number, got '0.1'"),
    (lambda: grid_from_boundary(_FIG4, 8, 8, "0.1"), "margin: expected a number, got '0.1'"),
    (lambda: WignerField(_GRID, np.zeros((4, 4)), t="0.5"), "t: expected a number, got '0.5'"),
    (lambda: make_grid(4, 4, 5, (0, 1)), "q_bounds: expected a (min, max) pair, got 5"),
    (lambda: make_grid(4, 4, (0, 1), (0, 1, 2)), "p_bounds: expected a (min, max) pair, got (0, 1, 2)"),
])
def test_library_numbers_are_checked_by_name(build, message):
    """Each number a library function takes goes through the one number check, under its name."""
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# --- Wigner transform --------------------------------------------------------

def test_gaussian_wigner_matches_analytic():
    grid = make_grid(128, 128, (-8, 8), (-8, 8))
    w = wigner_transform_pure(gaussian_wavefunction(grid), grid)
    q = grid.q_centers()[None, :]
    p = grid.p_centers()[:, None]
    exact = np.exp(-(q**2) - p**2) / math.pi
    assert np.max(np.abs(w.values - exact)) <= 1e-12
    assert abs(total_mass(w) - 1.0) <= 1e-6
    assert w.values.min() >= -1e-9
    # peak sits at the cell center nearest the origin, 1/16 off axis here
    assert abs(w.values.max() - 1.0 / math.pi) <= 5e-3


@pytest.mark.parametrize("values, spacing", [
    ([[1e308, 1e308], [1e308, 1e308]], 1.0),  # the column sums overflow
    ([[1e308, 1e308], [0.0, 0.0]], 1.0),  # fsum's partials overflow (an OverflowError)
    ([[1e308, -1e308], [1e308, -1e308]], 1.0),  # inf and -inf sums (fsum's own ValueError)
    ([[1e308, 0.0], [0.0, 0.0]], 2.0),  # a finite sum times the cell area
])
def test_mass_past_float64_is_refused(values, spacing):
    """A total mass or a marginal past float64 is refused by name, before any numpy warning."""
    w = WignerField(make_grid(2, 2, (0, 2 * spacing), (0, 2 * spacing)), values, field_mode=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"total mass sum(values)*dq*dp for dq={spacing}, "
                                                       f"dp={spacing}: expected a finite number, got ")):
            total_mass(w)
        with pytest.raises(ValueError, match=r"^largest \|(position|momentum) marginal\|: expected a finite"):
            marginals(w)


def test_gaussian_marginals():
    grid = make_grid(128, 128, (-8, 8), (-8, 8))
    psi = gaussian_wavefunction(grid)
    w = wigner_transform_pure(psi, grid)
    pos, mom = marginals(w)
    assert np.max(np.abs(pos - np.abs(psi.samples) ** 2)) <= 1e-8
    assert abs(pos.sum() * grid.dq - 1.0) <= 1e-6
    assert abs(mom.sum() * grid.dp - 1.0) <= 1e-6


def test_gaussian_sigma_validation():
    grid = make_grid(33, 33, (-8, 8), (-8, 8))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match=rf"^sigma: expected a positive number, got {bad}$"):
            gaussian_wavefunction(grid, sigma=bad)
    with pytest.raises(ValueError, match=r"^2\*sigma\*\*2 for sigma=1e\+200: expected a finite number, "
                                         r"got inf$"):
        gaussian_wavefunction(grid, sigma=1e200)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^sigma: expected a finite number, got "):
            gaussian_wavefunction(grid, sigma=bad)
    # 2 sigma**2 underflows to 0, or every sample lies many sigmas off a cell center
    for n in (33, 32):
        with pytest.raises(ValueError, match=r"^2\*sigma\*\*2 for sigma=1e-300: expected a positive number, "
                                             r"got 0\.0$"):
            gaussian_wavefunction(make_grid(n, n, (-8, 8), (-8, 8)), sigma=1e-300)
    with pytest.raises(ValueError, match="^norm of the Gaussian of sigma=0.001 at q0=0.0 on "):
        gaussian_wavefunction(make_grid(32, 32, (-8, 8), (-8, 8)), sigma=1e-3)


@pytest.mark.parametrize("kwargs, message", [
    ({"q0": 1e200}, "norm of the Gaussian of sigma=1.0 at q0=1e+200 on q in [-4.0, 4.0], dq=1.0: "
     "expected a positive number, got 0.0"),
    ({"p0": 1e308}, "p0*q/hbar for p0=1e+308, hbar=1.0 on q in [-4.0, 4.0]: "
     "expected a phase of at most 2**53 rad, got inf"),
    ({"p0": -1e308}, "p0*q/hbar for p0=-1e+308, hbar=1.0 on q in [-4.0, 4.0]: "
     "expected a phase of at most 2**53 rad, got inf"),
    # it was refused by the norm, nan after dividing by 2 * sigma**2 = 0
    ({"sigma": 1e-200}, "2*sigma**2 for sigma=1e-200: expected a positive number, got 0.0"),
    # 2 sigma**2 overflows where sigma**2 does not: the norm was blamed, or, with q0 = 0, every
    # exponent was -0 and the packet was accepted
    ({"sigma": 1e154, "q0": 1e300}, "2*sigma**2 for sigma=1e+154: expected a finite number, got inf"),
    ({"sigma": 1e154}, "2*sigma**2 for sigma=1e+154: expected a finite number, got inf"),
])
def test_gaussian_refusal_names_the_input_at_fault(kwargs, message):
    """A packet centred off the grid names q0; a phase past 2**53 rad names p0, and a 2 sigma**2
    that underflows or overflows names sigma, before any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            gaussian_wavefunction(make_grid(8, 8, (-4, 4), (-4, 4)), **kwargs)
    assert str(info.value) == message


def test_gaussian_samples_are_adopted_and_their_norm_checked():
    grid = make_grid(64, 64, (-8, 8), (-8, 8))
    psi = gaussian_wavefunction(grid, sigma=0.7, q0=0.5, p0=1.0)
    again = Wavefunction(grid.q_min, grid.q_max, psi.samples)  # the copying, checking path
    assert not psi.samples.flags.writeable
    assert np.array_equal(psi.samples.view(np.uint64), again.samples.view(np.uint64))
    assert (psi.q_min, psi.q_max) == (again.q_min, again.q_max)
    # a norm summed from subnormal squares is off: the normalized samples miss 1 by 7e-5
    with pytest.raises(ValueError, match=r"wavefunction norm is 0\.9999.*expected 1 within"):
        gaussian_wavefunction(make_grid(32, 32, (-8, 8), (-8, 8)), sigma=0.0092)


def analytic_gaussian_inline(grid, sigma, t):
    """The closed form as the CLI wrote it inline, one IEEE operation at a time: the bit oracle."""
    p = grid.p_centers()[:, None]
    with np.errstate(over="ignore"):
        err = grid.q_centers()[None, :] - p * t / grid.mass
        np.divide(np.square(err, out=err), -sigma**2, out=err)
        err -= (sigma * p / grid.hbar) ** 2
        np.divide(np.exp(err, out=err), math.pi * grid.hbar, out=err)
    return err


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("t", [0.0, 0.7, -3.0])
@pytest.mark.parametrize("mass, hbar", [(1.0, 1.0), (0.3, 2.0), (5.0, 0.1)])
def test_gaussian_closed_form_keeps_the_inline_bits(sigma, t, mass, hbar):
    grid = make_grid(48, 31, (-8, 8), (-6, 7), mass, hbar)
    got = wigner._gaussian_wigner(grid, sigma, t)
    assert got.flags.writeable and got.shape == (31, 48)
    assert np.array_equal(got.view(np.uint64), analytic_gaussian_inline(grid, sigma, t).view(np.uint64))
    q, p = grid.q_centers()[None, :], grid.p_centers()[:, None]
    exact = np.exp(-((q - p * t / mass) ** 2) / sigma**2 - (sigma * p / hbar) ** 2) / (math.pi * hbar)
    assert np.max(np.abs(got - exact)) <= 1e-15 / hbar


@pytest.mark.parametrize("t, hbar", [(1e308, 1.0), (1.0, 1e-160)])
def test_gaussian_closed_form_overflow_gives_its_zero_limit(t, hbar):
    # p t / m, or (sigma p / hbar)**2, overflows to inf: exp(-inf) is +0.0, with no warning
    grid = make_grid(16, 16, (-8, 8), (-8, 8), 0.5, hbar)
    got = wigner._gaussian_wigner(grid, 1.0, t)
    assert np.array_equal(got.view(np.uint64), analytic_gaussian_inline(grid, 1.0, t).view(np.uint64))
    assert not got.view(np.uint64).any()


def test_plane_wave_state_momentum_concentration():
    grid = make_grid(128, 128, (-8, 8), (-8, 8))
    L = grid.q_max - grid.q_min
    k0 = 2.0 * math.pi * 8 / L
    psi = Wavefunction(-8, 8, np.exp(1j * k0 * grid.q_centers()) / math.sqrt(L))
    _, mom = marginals(wigner_transform_pure(psi, grid))
    expected_row = int(np.argmin(np.abs(grid.p_centers() - grid.hbar * k0)))
    assert int(np.argmax(mom)) == expected_row


def test_spike_state_column():
    grid = make_grid(64, 64, (-8, 8), (-8, 8))
    samples = np.zeros(64, dtype=complex)
    samples[20] = 1.0 / math.sqrt(grid.dq)
    w = wigner_transform_pure(Wavefunction(-8, 8, samples), grid)
    nonzero_cols = np.nonzero(np.abs(w.values).max(axis=0) > 1e-14)[0]
    assert list(nonzero_cols) == [20]
    assert np.ptp(w.values[:, 20]) == 0.0  # flat in p


def test_real_even_state_momentum_symmetry():
    grid = make_grid(128, 128, (-8, 8), (-8, 8))
    rng = np.random.default_rng(1)
    q = grid.q_centers()
    raw = sum(rng.normal() * np.exp(-(q**2) / (2 * s**2)) for s in (0.7, 1.3, 2.1))
    raw = raw + raw[::-1]  # even about q = 0
    raw = raw / math.sqrt(np.sum(raw**2) * grid.dq)
    w = wigner_transform_pure(Wavefunction(-8, 8, raw.astype(complex)), grid)
    assert np.max(np.abs(w.values - w.values[::-1, :])) <= 1e-10


def test_transform_dimension_checks():
    grid = make_grid(64, 64, (-8, 8), (-8, 8))
    other = make_grid(32, 32, (-8, 8), (-8, 8))
    psi = gaussian_wavefunction(other)
    with pytest.raises(ValueError, match="does not match"):
        wigner_transform_pure(psi, grid)
    with pytest.raises(ValueError, match="does not match"):
        wigner_transform(psi, grid)
    shifted = make_grid(64, 64, (-4, 12), (-8, 8))
    with pytest.raises(ValueError, match="axis"):
        wigner_transform(gaussian_wavefunction(grid), shifted)


def test_transform_correlation_cap():
    # a narrow p window keeps the grid small; the n_q x ceil(n_q/2) correlation would not be
    grid = make_grid(8192, 2, (-8, 8), (-8, 8))
    assert 8192 * 4096 > MAX_CELLS
    psi = gaussian_wavefunction(grid)
    expected = r"\(8192 x 4096\): expected an integer <= 16777216, got 33554432$"
    for transform in (wigner_transform, wigner_transform_pure):
        with pytest.raises(ValueError, match=expected):
            transform(psi, grid)


def reference_transform(matrix: np.ndarray, grid) -> np.ndarray:
    """The former complex-matmul transform: all n_q signed offsets, imaginary part dropped."""
    n = grid.n_q
    idx = np.arange(n)
    offsets = np.where(idx <= n // 2, idx, idx - n)
    rows = idx[:, None] + offsets[None, :]
    cols = idx[:, None] - offsets[None, :]
    valid = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    corr = np.where(valid, matrix[rows.clip(0, n - 1), cols.clip(0, n - 1)], 0.0)
    kernel = np.exp(-2j * np.outer(offsets * grid.dq, grid.p_centers()) / grid.hbar)
    w = (grid.dq / (math.pi * grid.hbar)) * (corr @ kernel)
    assert np.max(np.abs(w.imag)) <= 1e-10
    return w.real.T


transform_grids = dict(
    half=st.integers(1, 40),
    n_p=st.integers(2, 48),
    q_half=st.floats(1.0, 8.0),
    p_center=st.floats(-5.0, 5.0),
    p_half=st.floats(0.5, 8.0),
    hbar=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)


def random_wavefunction(grid, rng) -> Wavefunction:
    raw = rng.normal(size=grid.n_q) + 1j * rng.normal(size=grid.n_q)
    return Wavefunction(grid.q_min, grid.q_max, raw / math.sqrt(np.sum(np.abs(raw) ** 2) * grid.dq))


@pytest.mark.parametrize("parity", [0, 1])
@settings(deadline=None)
@given(**transform_grids)
def test_pure_transform_matches_reference(parity, half, n_p, q_half, p_center, p_half, hbar, seed):
    grid = make_grid(2 * half + parity, n_p, (-q_half, q_half),
                     (p_center - p_half, p_center + p_half), hbar=hbar)
    psi = random_wavefunction(grid, np.random.default_rng(seed))
    want = reference_transform(np.outer(psi.samples, psi.samples.conj()), grid)
    tol = 1e-12 * np.max(np.abs(want))
    for got in (wigner_transform(psi, grid), wigner_transform_pure(psi, grid)):
        assert np.max(np.abs(got.values - want)) <= tol


def pair_kernel_transform(psi: Wavefunction, grid) -> WignerField:
    """The momentum sum against a kernel built as pair * stack, then WignerField(grid, scale * w.T)."""
    half = (grid.n_q + 1) // 2
    theta = (2.0 * grid.dq / grid.hbar) * np.outer(np.arange(half), grid.p_centers())
    pair = np.full((half, 1, 1), 2.0)
    pair[0] = 1.0
    kernel = (pair * np.stack([np.cos(theta), np.sin(theta)], axis=1)).reshape(2 * half, -1)
    w = wigner._correlation(psi).view(np.float64) @ kernel
    return WignerField(grid, (grid.dq / (math.pi * grid.hbar)) * w.T)


@pytest.mark.parametrize("parity", [0, 1])
@settings(deadline=None)
@given(**transform_grids)
def test_transform_has_the_pair_kernel_bits(parity, half, n_p, q_half, p_center, p_half, hbar, seed):
    """Wigner bytes do not depend on how the transform builds its kernel and field: its m > 0
    rows are doubled in place, which is exact, and the C-ordered scaled field is one IEEE
    multiply per cell, as a scaled copy is.  So no bit may differ from a pair * stack kernel
    and a scaled copy, on arm64 as on x86."""
    grid = make_grid(2 * half + parity, n_p, (-q_half, q_half),
                     (p_center - p_half, p_center + p_half), hbar=hbar)
    psi = random_wavefunction(grid, np.random.default_rng(seed))
    got, want = wigner_transform(psi, grid).values, pair_kernel_transform(psi, grid).values
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_transform_holds_under_four_fields_above_its_input():
    n = 1024
    grid = make_grid(n, n, (-8, 8), (-8, 8))
    psi = gaussian_wavefunction(grid)
    tracemalloc.start()
    try:
        field = wigner_transform_pure(psi, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.values.shape == (n, n)
    # theta is half a field; the kernel, the correlation, the product and the scaled field are
    # one each.  theta is let go once the kernel is built and the kernel once the product is,
    # so three fields are alive at a time (3.6 while both were kept)
    assert peak < 3.5 * n * n * 8


# --- free streaming -----------------------------------------------------------

def test_zero_dt_is_exact_identity():
    g = make_grid(32, 8, (0, 8), (0, 4))
    f = WignerField(g, np.random.default_rng(0).normal(size=(8, 32)), field_mode=True)
    out = free_stream_step(f, 0.0)
    assert np.array_equal(out.values, f.values)
    assert out.t == f.t


def test_zero_dt_returns_the_field_itself():
    n = 1024
    w = plane_wave_slice(make_grid(n, n, (-8, 8), (-8, 8)), 3, 1.0)
    out = []
    peak = traced_peak(lambda: out.append(free_stream_step(w, 0.0, steps=5)))
    assert out[0] is w and peak <= 0.1 * n * n * 8  # 1.13 fields for a checked copy


def test_streamed_field_is_read_only_and_the_constructor_copies():
    g = make_grid(32, 8, (0, 8), (0, 4))
    source = np.random.default_rng(3).normal(size=(8, 32))
    f = WignerField(g, source, field_mode=True)
    assert not np.shares_memory(f.values, source)
    out = free_stream_step(f, 0.3)  # takes its fresh array over without a copy
    assert out.values.shape == (8, 32) and out.values.dtype == np.float64
    with pytest.raises(ValueError):
        out.values[0, 0] = 1.0
    with pytest.raises(AttributeError):
        out.t = 2.0


def test_zero_momentum_row_unchanged():
    g = make_grid(32, 4, (0, 8), (-0.5, 3.5))  # p centers 0, 1, 2, 3
    assert g.p_centers()[0] == 0.0
    f = WignerField(g, np.random.default_rng(2).normal(size=(4, 32)), field_mode=True)
    out = free_stream_step(f, 0.7)
    assert np.max(np.abs(out.values[0] - f.values[0])) <= 1e-13


def test_integer_cell_shift_equals_roll():
    g = make_grid(64, 4, (0, 16), (0, 4))  # dq = 0.25, p centers 0.5..3.5
    rng = np.random.default_rng(7)
    f = WignerField(g, rng.normal(size=(4, 64)), field_mode=True)
    dt = 1.5  # shifts = p * dt / dq = 3, 9, 15, 21 cells
    out = free_stream_step(f, dt)
    for j, p in enumerate(g.p_centers()):
        cells = p * dt / g.dq
        assert cells == round(cells)
        assert np.max(np.abs(out.values[j] - np.roll(f.values[j], int(cells)))) <= 1e-10


def test_reversibility():
    g = make_grid(64, 16, (-8, 8), (-4, 4))
    f = smooth_field(g, np.random.default_rng(3))
    back = free_stream_step(free_stream_step(f, 0.37), -0.37)
    assert np.max(np.abs(back.values - f.values)) <= 1e-10


def test_even_n_nyquist_row_damped_by_cosine_each_step():
    g = make_grid(16, 4, (0, 4), (0, 4))  # dq = 0.25, p centers 0.5..3.5
    alternating = (-1.0) ** np.arange(g.n_q)  # the pure Nyquist mode of an even row
    values = np.zeros((g.n_p, g.n_q))
    values[1] = alternating
    f = WignerField(g, values, field_mode=True)
    dt = 0.05
    shift = g.p_centers()[1] * dt / g.mass  # 0.3 cells
    damp = math.cos(math.pi * shift / g.dq)
    one = free_stream_step(f, dt)
    assert np.max(np.abs(one.values[1] - damp * alternating)) <= 1e-13
    two = evolve(f, dt, 2)[-1]
    assert np.max(np.abs(two.values[1] - damp**2 * alternating)) <= 1e-13
    # per-step damping, not one shear of the summed shift
    sheared = free_stream_step(f, 2 * dt).values[1]
    assert np.max(np.abs(sheared - math.cos(2 * math.pi * shift / g.dq) * alternating)) <= 1e-13
    assert np.max(np.abs(two.values[1] - sheared)) > 0.5
    for out in (one, two):
        assert np.all(np.delete(out.values, 1, axis=0) == 0.0)


def test_linearity():
    g = make_grid(64, 16, (-8, 8), (-4, 4))
    rng = np.random.default_rng(4)
    f1, f2 = smooth_field(g, rng), smooth_field(g, rng)
    a, b = 0.7, -1.9
    combo = WignerField(g, a * f1.values + b * f2.values, field_mode=True)
    lhs = free_stream_step(combo, 0.21).values
    rhs = a * free_stream_step(f1, 0.21).values + b * free_stream_step(f2, 0.21).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_mass_and_momentum_marginal_conservation():
    g = make_grid(64, 16, (-8, 8), (-4, 4))
    f = smooth_field(g, np.random.default_rng(5))
    m0 = total_mass(f)
    _, mom0 = marginals(f)
    cur = f
    for _ in range(20):
        cur = free_stream_step(cur, 0.13)
    scale = max(abs(m0), 1.0)
    assert abs(total_mass(cur) - m0) / scale <= 1e-12
    _, mom = marginals(cur)
    assert np.max(np.abs(mom - mom0)) <= 1e-12 * max(1.0, np.max(np.abs(mom0)))


@settings(deadline=None)
@given(
    n_q=st.integers(2, 65),
    n_p=st.integers(2, 17),
    q_half=st.floats(0.5, 10.0),
    p_half=st.floats(0.5, 10.0),
    dt=st.floats(-3.0, 3.0),
    steps=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_streaming_conserves_momentum_marginal_and_mass(n_q, n_p, q_half, p_half, dt, steps, seed):
    # each row only shifts along q, and the DC rfft bin is never touched
    g = make_grid(n_q, n_p, (-q_half, q_half), (-p_half, p_half))
    f = WignerField(g, np.random.default_rng(seed).normal(size=(n_p, n_q)), field_mode=True)
    out = free_stream_step(f, dt, steps)
    _, mom0 = marginals(f)
    _, mom = marginals(out)
    row_l1 = np.abs(f.values).sum(axis=1) * g.dq
    assert np.all(np.abs(mom - mom0) <= 1e-12 * row_l1)
    l1 = np.abs(f.values).sum() * g.dq * g.dp
    assert abs(total_mass(out) - total_mass(f)) <= 1e-12 * l1


def test_non_finite_dt_rejected():
    g = make_grid(8, 4, (0, 8), (0, 4))
    f = WignerField(g, np.zeros((4, 8)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            free_stream_step(f, bad)


def test_overflowing_shear_rejected():
    g = make_grid(8, 4, (0, 8), (-4, 4))
    f = WignerField(g, np.zeros((4, 8)))
    with pytest.raises(ValueError, match=r"^spectral phase p\*dt/m\*pi/dq of a step for dt=1e\+308, m=1.0: "
                                         r"expected a phase of at most 2\*\*53 rad, got inf$"):
        free_stream_step(f, 1e308)
    tiny_mass = WignerField(make_grid(8, 4, (0, 8), (-4, 4), m=1e-320), np.zeros((4, 8)))
    with pytest.raises(ValueError, match=r"^spectral phase .* for dt=0.1, m=1e-320: .*, got inf$"):
        free_stream_step(tiny_mass, 0.1)
    # the phase is refused before the end time: here it is 1.3e298 rad
    late = WignerField(make_grid(8, 4, (0, 8), (-4, 4), m=1e10), np.zeros((4, 8)), t=1.7e308)
    with pytest.raises(ValueError, match=r"^spectral phase .* for dt=1e\+307, m=10000000000.0: "):
        free_stream_step(late, 1e307, 2)
    # a phase of 1.3e8 rad, but the end time overflows
    late = WignerField(make_grid(8, 4, (0, 8), (-4, 4), m=1e300), np.zeros((4, 8)), t=1.7e308)
    with pytest.raises(ValueError, match=r"^end time of 2 steps of dt=1e\+307 from "
                                         r"t=1.7e\+308: expected a finite number, got inf$"):
        free_stream_step(late, 1e307, 2)
    # the end time is the sum of the steps: 100 additions overflow where 100 * dt does not, and
    # 10 additions end at the largest float64 where 10 * dt overflows
    ones = WignerField(make_grid(4, 4, (0, 4), (-1e-300, 1e-300)), np.ones((4, 4)))
    with pytest.raises(ValueError, match=r"^end time of 100 steps of dt=1.7976931348623153e\+306 from "
                                         r"t=0.0: expected a finite number, got inf$"):
        free_stream_step(ones, 1.7976931348623153e306, 100)
    assert free_stream_step(ones, 1.797693134862316e307, 10).t == sys.float_info.max
    with pytest.raises(ValueError, match=r"^steps: expected a finite number, got 401 digits$"):
        free_stream_step(f, 0.1, 10**400)  # a step count past float64, refused as a ValueError
    with pytest.raises(ValueError, match=r"^steps: expected a finite number, got 5001 digits$"):
        free_stream_step(f, 0.1, 10**5000)  # past the digits str() of an int may have


def test_meaningless_shear_rejected():
    # finite, but past 2**53 rad the spectral phase has no correct digit
    tiny_mass = WignerField(make_grid(8, 4, (0, 8), (-4, 4), m=1e-300), np.zeros((4, 8)))
    with pytest.raises(ValueError, match=r"^spectral phase .* for dt=0.1, m=1e-300: expected a phase "
                                         r"of at most 2\*\*53 rad, got 1.2566370614359173e\+300$"):
        free_stream_step(tiny_mass, 0.1)
    # dq = 1 and |p| <= 4, so the largest phase is 4 * pi * dt
    f = WignerField(make_grid(8, 4, (0, 8), (-4, 4)), np.zeros((4, 8)))
    assert free_stream_step(f, 2.0**49).t == 2.0**49  # 2**51 * pi rad
    with pytest.raises(ValueError, match=r"expected a phase of at most 2\*\*53 rad"):
        free_stream_step(f, 2.0**50)  # 2**52 * pi rad


def test_tiny_hbar_rejected():
    psi = gaussian_wavefunction(make_grid(16, 16, (-4, 4), (-4, 4)), sigma=1.0)
    # dq = 0.5, 8 half offsets and |p| <= 4: the largest kernel phase is 28 / hbar
    for hbar in (1e-320, 1e-300, 28 / 2.0**54):
        grid = make_grid(16, 16, (-4, 4), (-4, 4), hbar=hbar)
        with pytest.raises(ValueError, match=re.escape(f"Wigner kernel phase 2*dq*m*p/hbar for hbar={hbar}: "
                                                       "expected a phase of at most 2**53 rad, got ")):
            wigner_transform(psi, grid)
    grid = make_grid(16, 16, (-4, 4), (-4, 4), hbar=28 / 2.0**52)
    assert np.isfinite(wigner_transform(psi, grid).values).all()
    # two samples have one half offset, so no phase, but dq/(pi*hbar) still overflows
    two = Wavefunction(0.0, 2.0, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match=r"^Wigner normalization dq/\(pi\*hbar\) for hbar=1e-320: "
                                         r"expected a finite number, got inf$"):
        wigner_transform(two, make_grid(2, 2, (0, 2), (-1, 1), hbar=1e-320))
    # dq/(pi*hbar) is finite at hbar=1e-308, but the kernel's 2*dq/hbar overflows: it was nan * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^Wigner kernel factor 2\*dq/hbar for hbar=1e-308: "
                                             r"expected a finite number, got inf$"):
            wigner_transform(two, make_grid(2, 2, (0, 2), (-1, 1), hbar=1e-308))


def test_non_integer_steps_rejected():
    g = make_grid(8, 4, (0, 8), (0, 4))
    f = WignerField(g, np.zeros((4, 8)))
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError, match="steps"):
            free_stream_step(f, 0.1, bad)


@pytest.mark.parametrize("parity", [0, 1])
@settings(deadline=None)
@given(
    half=st.integers(1, 16),
    n_p=st.integers(2, 9),
    dt=st.floats(-2.0, 2.0),
    a=st.integers(1, 12),
    b=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_multi_step_composes(parity, half, n_p, dt, a, b, seed):
    # random, not band-limited rows: the per-step Nyquist rule is exercised for even n_q
    n_q = 2 * half + parity
    g = make_grid(n_q, n_p, (-3, 5), (-2, 2))
    f = WignerField(g, np.random.default_rng(seed).normal(size=(n_p, n_q)), field_mode=True)
    whole = free_stream_step(f, dt, a + b)
    split = free_stream_step(free_stream_step(f, dt, a), dt, b)
    assert np.max(np.abs(whole.values - split.values)) <= 1e-12 * np.max(np.abs(f.values))
    assert whole.t == split.t


def full_array_shift(values, shifts, spacing, steps):
    """The spectral shift that transforms every row, empty or not."""
    n = values.shape[1]
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=spacing)
    phase = np.exp(-1j * np.outer(shifts, k))
    coeffs = np.fft.rfft(values)
    for _ in range(steps):
        coeffs *= phase
        if n % 2 == 0:
            coeffs[:, -1] = coeffs[:, -1].real
    return np.fft.irfft(coeffs, n=n)


@settings(deadline=None)
@given(
    # at 191 and 257 the full-array round trip of a zero row gives -0
    n_q=st.one_of(st.integers(2, 40), st.sampled_from([64, 191, 256, 257])),
    n_p=st.integers(2, 12),
    dt=st.floats(-2.0, 2.0).filter(lambda x: x != 0.0),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_skips_zero_rows_and_keeps_live_row_bits(n_q, n_p, dt, steps, seed):
    """The spectral step skips rows of +0.0 and keeps every other row's bytes only because
    pocketfft transforms each row on its own, whatever the batch; CI checks it on arm64 too."""
    rng = np.random.default_rng(seed)
    g = make_grid(n_q, n_p, (-3, 5), (-2, 2))
    values = rng.normal(size=(n_p, n_q))
    values[rng.random(n_p) < 0.5] = 0.0
    values[rng.random(n_p) < 0.2] = -0.0  # a row of -0.0 has bits set: it is transformed
    out = free_stream_step(WignerField(g, values, field_mode=True), dt, steps).values
    ref = full_array_shift(values, g.p_centers() * dt / g.mass, g.dq, steps)
    live = values.view(np.uint64).any(axis=1)
    assert np.array_equal(out[live].view(np.uint64), ref[live].view(np.uint64))
    assert not out[~live].view(np.uint64).any()


@pytest.mark.parametrize("shape", [(1024, 1024), (16, 65536)], ids=["1024x1024", "16x65536"])
def test_stream_holds_its_output_and_one_block(shape):
    """A step transforms its live rows a block of at most 2**16 cells at a time into one output
    array, so it holds little above that output: 1.19 fields at 1024**2 and 1.22 at
    16 x 65536, where it held 2.00 and 2.03 while a field was transformed whole.  Its bytes
    match a whole-field transform's because pocketfft transforms each row on its own."""
    n_p, n_q = shape
    grid = make_grid(n_q, n_p, (-8, 8), (-8, 8))
    if n_p == n_q:  # an all-live Gaussian
        w = wigner_transform_pure(gaussian_wavefunction(grid), grid)
    else:  # the transform refuses this shape: its correlation is past MAX_CELLS
        w = WignerField(grid, np.random.default_rng(35).normal(size=shape), field_mode=True)
    assert w.values.view(np.uint64).any(axis=1).all()
    tracemalloc.start()  # the input was made before: the peak is what the step adds
    try:
        out = free_stream_step(w, 0.125, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n_p * n_q * 8
    ref = full_array_shift(w.values, grid.p_centers() * 0.125 / grid.mass, grid.dq, 8)
    assert np.array_equal(out.values.view(np.uint64), ref.view(np.uint64))


def test_stream_check_holds_no_field_sized_mask():
    """The output's finiteness check reads its min and max, so at 2048**2, where one block is
    small against the field, a step holds 1.05 fields above its input; a bool mask of the
    output made it 1.13."""
    grid = make_grid(2048, 2048, (-8, 8), (-8, 8))
    w = WignerField(grid, np.random.default_rng(36).normal(size=(2048, 2048)), field_mode=True)
    assert traced_peak(lambda: free_stream_step(w, 0.125)) < 1.08 * 2048 * 2048 * 8


@pytest.mark.parametrize("n_q", [4096, 4095])
def test_stream_blocks_keep_every_row_bits(n_q):
    """At n_q = 4096 or 4095 a block is 16 rows, so these live rows, with rows of +0.0 and
    -0.0 between them, take several blocks; each live row keeps the bits of a whole-field
    transform, and each +0.0 row stays +0.0."""
    n_p = 96
    g = make_grid(n_q, n_p, (-3, 5), (-2, 2))
    values = np.random.default_rng(n_q).normal(size=(n_p, n_q))
    values[::3] = 0.0
    values[1::7] = -0.0  # a row of -0.0 has bits set: it is transformed
    live = values.view(np.uint64).any(axis=1)
    assert live.sum() > 3 * 16 and (~live).any()
    out = free_stream_step(WignerField(g, values, field_mode=True), 0.3, 3).values
    ref = full_array_shift(values, g.p_centers() * 0.3 / g.mass, g.dq, 3)
    assert np.array_equal(out[live].view(np.uint64), ref[live].view(np.uint64))
    assert not out[~live].view(np.uint64).any()


def test_edgeless_hypergraph_field_streams_to_positive_zeros():
    g = make_grid(191, 8, (0, 4), (0, 4))
    field = initial_field_from_hypergraph(Hypergraph(3), g)
    for snap in evolve(field, 0.1, 5, 2):
        assert not snap.values.view(np.uint64).any()


# --- evolve ---------------------------------------------------------------------

def test_evolve_single_step_matches_free_stream():
    g = make_grid(64, 16, (-8, 8), (-4, 4))
    f = smooth_field(g, np.random.default_rng(10))
    snaps = evolve(f, 0.2, 1)
    direct = free_stream_step(f, 0.2)
    assert len(snaps) == 1
    assert np.array_equal(snaps[0].values, direct.values)


@pytest.mark.parametrize("n_q", [64, 63])
@pytest.mark.parametrize("steps, every", [(10, 3), (12, 4), (7, 0), (5, 9), (6, 1)])
def test_evolve_matches_stepwise_reference(n_q, steps, every):
    g = make_grid(n_q, 16, (-8, 8), (-4, 4))
    f = WignerField(g, np.random.default_rng(13).normal(size=(16, n_q)), field_mode=True)
    dt = 0.1
    reference, cur = [], f
    for s in range(1, steps + 1):
        cur = free_stream_step(cur, dt)
        if every > 0 and s % every == 0:
            reference.append(cur)
    if not reference or reference[-1] is not cur:
        reference.append(cur)
    snaps = evolve(f, dt, steps, every)
    assert len(snaps) == len(reference)
    for got, want in zip(snaps, reference):
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(f.values))
        assert got.t == want.t


def test_evolve_snapshot_cadence():
    g = make_grid(32, 8, (-4, 4), (-2, 2))
    f = smooth_field(g, np.random.default_rng(11))
    snaps = evolve(f, 0.1, 10, snapshot_every=3)
    assert len(snaps) == 4  # steps 3, 6, 9 and the final state
    assert [s.t for s in snaps] == pytest.approx([0.3, 0.6, 0.9, 1.0])
    only_final = evolve(f, 0.1, 10, snapshot_every=0)
    assert len(only_final) == 1
    every_step = evolve(f, 0.1, 10, snapshot_every=1)
    assert len(every_step) == 10


def test_evolve_validates_steps():
    g = make_grid(8, 4, (0, 4), (0, 4))
    f = WignerField(g, np.zeros((4, 8)))
    with pytest.raises(ValueError, match="steps"):
        evolve(f, 0.1, 0)
    with pytest.raises(ValueError, match="snapshot_every"):
        evolve(f, 0.1, 1, snapshot_every=-1)
    for bad in (True, 2.0, 1.5):
        with pytest.raises(ValueError, match=r"^steps: expected an integer, got "):
            evolve(f, 0.1, bad)
    for bad in (True, False, 2.0, "1", None):
        with pytest.raises(ValueError, match=r"^snapshot_every: expected an integer, got "):
            evolve(f, 0.1, 3, snapshot_every=bad)


def test_numpy_integer_counts_stream_like_python_ints():
    f = plane_wave_slice(make_grid(16, 8, (0, 4), (0, 4)), 5, 1.5)
    three = free_stream_step(f, 0.1, 3).values.tobytes()
    for steps in (np.int64(3), np.uint8(3)):
        assert free_stream_step(f, 0.1, steps).values.tobytes() == three
    ints, numpy_ints = evolve(f, 0.1, 5, 2), evolve(f, 0.1, np.int64(5), np.int32(2))
    assert [(w.t, w.values.tobytes()) for w in numpy_ints] == [(w.t, w.values.tobytes()) for w in ints]


def test_evolve_gaussian_matches_analytic_shear():
    grid = make_grid(128, 128, (-8, 8), (-8, 8))
    w0 = wigner_transform_pure(gaussian_wavefunction(grid), grid)
    final = evolve(w0, 0.01, 50)[-1]
    q = grid.q_centers()[None, :]
    p = grid.p_centers()[:, None]
    analytic = np.exp(-((q - p * final.t) ** 2) - p**2) / math.pi
    assert np.max(np.abs(final.values - analytic)) <= 1e-6
    back = evolve(final, -0.01, 50)[-1]
    assert np.max(np.abs(back.values - w0.values)) <= 1e-10


@settings(deadline=None, max_examples=40)
@given(
    sigma=st.floats(0.8, 1.2),
    t=st.floats(0.0, 1.0),
    steps=st.integers(1, 10),
    n=st.sampled_from([128, 255, 256]),
)
def test_gaussian_position_marginal_spreads_analytically(sigma, t, steps, n):
    # |psi(q, t)|^2 = exp(-q^2 / s^2) / sqrt(pi s^2), s^2 = sigma^2 (1 + (hbar t / (m sigma^2))^2)
    grid = make_grid(n, n, (-8, 8), (-8, 8))
    w0 = wigner_transform_pure(gaussian_wavefunction(grid, sigma=sigma), grid)
    final = evolve(w0, t / steps, steps)[-1]
    width2 = sigma**2 * (1.0 + (grid.hbar * t / (grid.mass * sigma**2)) ** 2)
    q = grid.q_centers()
    exact = np.exp(-(q**2) / width2) / math.sqrt(math.pi * width2)
    pos, _ = marginals(final)
    assert np.max(np.abs(pos - exact)) <= 1e-8  # criterion 04's marginal tolerance


# --- marginals / mass -------------------------------------------------------------

def test_marginals_zero_field():
    g = make_grid(16, 8, (0, 4), (0, 4))
    pos, mom = marginals(WignerField(g, np.zeros((8, 16))))
    assert np.array_equal(pos, np.zeros(16))
    assert np.array_equal(mom, np.zeros(8))


def test_total_mass_scaling():
    g = make_grid(16, 8, (0, 4), (0, 4))
    values = np.random.default_rng(12).normal(size=(8, 16))
    m1 = total_mass(WignerField(g, values, field_mode=True))
    m2 = total_mass(WignerField(g, 2.0 * values, field_mode=True))
    assert m2 == 2.0 * m1
    assert total_mass(WignerField(g, np.zeros((8, 16)))) == 0.0


def test_mass_has_one_bit_pattern_at_every_alignment():
    # a sheared 512x64 Gaussian snapshot, copied in its own memory order to each
    # 8-byte offset mod 64: np.sum's rounding may follow the data pointer, the mass must not
    g = make_grid(512, 64, (-8, 8), (-8, 8))
    field = evolve(wigner_transform_pure(gaussian_wavefunction(g), g), 0.125, 8, 1)[6]
    order = "F" if field.values.flags.f_contiguous else "C"
    masses = set()
    for offset in range(0, 64, 8):
        buf = np.empty(field.values.nbytes + 64, dtype=np.uint8)
        start = (offset - buf.ctypes.data) % 64
        values = np.ndarray((64, 512), np.float64, buffer=buf, offset=start, order=order)
        values[...] = field.values
        assert values.ctypes.data % 64 == offset
        masses.add(wigner._mass(values, g).hex())
        masses.add(wigner._mass(np.abs(values, out=values), g).hex() + " L1")
    assert len(masses) == 2, masses
    assert total_mass(field).hex() in masses


def test_fields_are_c_ordered_so_mass_does_not_follow_memory_order():
    # the transform's product is transposed; a field kept in its order sums its
    # columns in another order than a row-major copy of the same values
    g = make_grid(512, 64, (-8, 8), (-8, 8))
    field = evolve(wigner_transform(gaussian_wavefunction(g, sigma=1.0), g), 0.125, 8)[0]
    assert field.values.flags.c_contiguous
    masses = {total_mass(WignerField(g, copy(field.values))).hex()
              for copy in (np.ascontiguousarray, np.asfortranarray)}
    assert masses == {total_mass(field).hex()} == {"0x1.0000000000000p+0"}


# --- plane-wave slices --------------------------------------------------------------

def test_plane_wave_slice_at_zero_time():
    g = make_grid(64, 8, (0, 16), (0, 4))
    k = 2.0 * math.pi * 2 / 16.0
    f = plane_wave_slice(g, 3, k, t=0.0)
    assert np.array_equal(f.values[3], np.cos(k * g.q_centers()))
    assert np.all(f.values[np.arange(8) != 3] == 0.0)
    assert f.field_mode


def test_plane_wave_zero_wavenumber_constant_row():
    g = make_grid(32, 8, (0, 16), (0, 4))
    f = plane_wave_slice(g, 5, 0.0)
    assert np.array_equal(f.values[5], np.ones(32))


def test_plane_wave_dispersion_under_streaming():
    g = make_grid(128, 16, (0, 16), (0, 4))
    k = 2.0 * math.pi * 3 / 16.0
    stepped = free_stream_step(plane_wave_slice(g, 5, k, t=0.0), 0.37)
    analytic = plane_wave_slice(g, 5, k, t=0.37)
    assert np.max(np.abs(stepped.values - analytic.values)) <= 1e-10


def test_plane_wave_slice_adopts_its_fresh_values():
    n = 1024
    g = make_grid(n, n, (-8, 8), (-8, 8))
    made = []
    peak = traced_peak(lambda: made.append(plane_wave_slice(g, 3, 1.0, t=0.5)))
    # the values and their finiteness mask (2.13 fields when the constructor copied them)
    assert peak <= 1.3 * n * n * 8, peak / (n * n * 8)
    assert not made[0].values.flags.writeable and made[0].field_mode and made[0].t == 0.5


def test_plane_wave_slice_validation():
    g = make_grid(16, 8, (0, 4), (0, 4))
    with pytest.raises(ValueError, match=r"^slice_index: expected an integer in 0\.\.7, got 8$"):
        plane_wave_slice(g, 8, 1.0)
    # finite k and t whose phase k*q - omega*t overflows: refused before the cosine, by name
    with pytest.raises(ValueError, match=r"^k\*q - omega\*t for k=1e\+308, t=1e\+308 on row 1: "
                                         r"expected a phase of at most 2\*\*53 rad, got inf$"):
        plane_wave_slice(g, 1, 1e308, 1e308)
