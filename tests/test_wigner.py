import math

import numpy as np
import pytest

from hyperphase import (
    DensityMatrix,
    Wavefunction,
    WignerField,
    evolve,
    free_stream_step,
    gaussian_wavefunction,
    make_grid,
    marginals,
    plane_wave_slice,
    total_mass,
    vertical_step,
    wigner_transform,
    wigner_transform_pure,
)


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
    with pytest.raises(ValueError, match="counts"):
        make_grid(1, 4, (0, 1), (0, 1))
    with pytest.raises(ValueError, match="inverted q"):
        make_grid(4, 4, (1, 0), (0, 1))
    with pytest.raises(ValueError, match="mass"):
        make_grid(4, 4, (0, 1), (0, 1), m=0.0)
    with pytest.raises(ValueError, match="hbar"):
        make_grid(4, 4, (0, 1), (0, 1), hbar=-1.0)
    with pytest.raises(ValueError, match=r"finite.*q in \[0.0, inf\]"):
        make_grid(4, 4, (0, math.inf), (0, 1))
    with pytest.raises(ValueError, match=r"finite.*p in \[nan, 1.0\]"):
        make_grid(4, 4, (0, 1), (math.nan, 1))
    with pytest.raises(ValueError, match=r"cell area.*q in \[-1e\+308, 1e\+308\]"):
        make_grid(4, 4, (-1e308, 1e308), (0, 1))
    with pytest.raises(ValueError, match=r"cell area.*p in \[0.0, 1e\+308\]"):
        make_grid(4, 4, (0, 1e308), (0, 1e308))


def test_field_validation_and_immutability():
    g = make_grid(4, 4, (0, 4), (0, 4))
    with pytest.raises(ValueError, match="shape"):
        WignerField(g, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="finite"):
        WignerField(g, np.full((4, 4), np.nan))
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


def test_density_matrix_validation():
    g = make_grid(8, 8, (-4, 4), (-4, 4))
    psi = gaussian_wavefunction(g)
    rho = psi.density_matrix()
    assert rho.n_q == 8
    bad = np.array(rho.matrix)
    bad[0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(-4, 4, bad)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(-4, 4, 2.0 * np.array(rho.matrix))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(0, 1, np.array([[np.nan, 0.0], [0.0, 0.0]]))
    # Hermitian, unit trace, but indefinite
    diag = np.zeros(8)
    diag[0] = 1.1 / g.dq
    diag[1] = -0.1 / g.dq
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(-4, 4, np.diag(diag).astype(complex))


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


def test_gaussian_marginals():
    grid = make_grid(128, 128, (-8, 8), (-8, 8))
    psi = gaussian_wavefunction(grid)
    w = wigner_transform_pure(psi, grid)
    pos, mom = marginals(w)
    assert np.max(np.abs(pos - np.abs(psi.samples) ** 2)) <= 1e-8
    assert abs(pos.sum() * grid.dq - 1.0) <= 1e-6
    assert abs(mom.sum() * grid.dp - 1.0) <= 1e-6


def test_pure_and_density_routes_agree():
    grid = make_grid(64, 64, (-6, 6), (-6, 6))
    psi = gaussian_wavefunction(grid, sigma=0.8, q0=0.5, p0=1.0)
    via_pure = wigner_transform_pure(psi, grid)
    via_rho = wigner_transform(psi.density_matrix(), grid)
    assert np.max(np.abs(via_pure.values - via_rho.values)) <= 1e-12


def test_mixed_state_transform_is_linear_in_rho():
    grid = make_grid(64, 64, (-8, 8), (-8, 8))
    psi1 = gaussian_wavefunction(grid, sigma=0.9, q0=-1.5)
    psi2 = gaussian_wavefunction(grid, sigma=1.1, q0=2.0)
    mixed = DensityMatrix(
        -8, 8, 0.5 * psi1.density_matrix().matrix + 0.5 * psi2.density_matrix().matrix
    )
    w_mixed = wigner_transform(mixed, grid)
    w1 = wigner_transform_pure(psi1, grid)
    w2 = wigner_transform_pure(psi2, grid)
    assert np.max(np.abs(w_mixed.values - 0.5 * (w1.values + w2.values))) <= 1e-12
    assert abs(total_mass(w_mixed) - 1.0) <= 1e-6


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
    shifted = make_grid(64, 64, (-4, 12), (-8, 8))
    with pytest.raises(ValueError, match="axis"):
        wigner_transform(gaussian_wavefunction(grid).density_matrix(), shifted)


# --- free streaming -----------------------------------------------------------

def test_zero_dt_is_exact_identity():
    g = make_grid(32, 8, (0, 8), (0, 4))
    f = WignerField(g, np.random.default_rng(0).normal(size=(8, 32)), field_mode=True)
    out = free_stream_step(f, 0.0)
    assert np.array_equal(out.values, f.values)
    assert out.t == f.t


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


def test_non_finite_dt_rejected():
    g = make_grid(8, 4, (0, 8), (0, 4))
    f = WignerField(g, np.zeros((4, 8)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            free_stream_step(f, bad)


# --- vertical step -------------------------------------------------------------

def test_vertical_zero_force_is_identity():
    g = make_grid(32, 16, (0, 8), (-4, 4))
    f = WignerField(g, np.random.default_rng(6).normal(size=(16, 32)), field_mode=True)
    out = vertical_step(f, 0.9, np.zeros(32))
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


def test_vertical_single_column_shift():
    g = make_grid(32, 16, (0, 8), (-4, 4))
    rng = np.random.default_rng(8)
    f = WignerField(g, rng.normal(size=(16, 32)), field_mode=True)
    force = np.zeros(32)
    force[11] = 2.0 * g.dp / 0.5
    out = vertical_step(f, 0.5, force)
    assert np.max(np.abs(out.values[:, 11] - np.roll(f.values[:, 11], 2))) <= 1e-10
    mask = np.ones(32, dtype=bool)
    mask[11] = False
    assert np.max(np.abs(out.values[:, mask] - f.values[:, mask])) <= 1e-12


def test_vertical_zero_dt_identity():
    g = make_grid(16, 8, (0, 4), (0, 4))
    f = WignerField(g, np.random.default_rng(9).normal(size=(8, 16)), field_mode=True)
    out = vertical_step(f, 0.0, np.ones(16))
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


def test_vertical_force_length_checked():
    g = make_grid(16, 8, (0, 4), (0, 4))
    f = WignerField(g, np.zeros((8, 16)))
    with pytest.raises(ValueError, match="length"):
        vertical_step(f, 0.1, np.zeros(5))


# --- evolve ---------------------------------------------------------------------

def test_evolve_single_step_matches_free_stream():
    g = make_grid(64, 16, (-8, 8), (-4, 4))
    f = smooth_field(g, np.random.default_rng(10))
    snaps = evolve(f, 0.2, 1)
    direct = free_stream_step(f, 0.2)
    assert len(snaps) == 1
    assert np.array_equal(snaps[0].values, direct.values)


def test_evolve_snapshot_cadence():
    g = make_grid(32, 8, (-4, 4), (-2, 2))
    f = smooth_field(g, np.random.default_rng(11))
    snaps = evolve(f, 0.1, 10, snapshot_every=3)
    assert len(snaps) == 4  # steps 3, 6, 9 and the final state
    assert snaps[-1].t == pytest.approx(1.0)
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


def test_plane_wave_vertical_slice():
    g = make_grid(16, 64, (0, 4), (0, 16))
    k = 2.0 * math.pi / 16.0
    f = plane_wave_slice(g, 7, k, orientation="vertical")
    assert np.array_equal(f.values[:, 7], np.cos(k * g.p_centers()))


def test_plane_wave_slice_validation():
    g = make_grid(16, 8, (0, 4), (0, 4))
    with pytest.raises(ValueError, match="out of range"):
        plane_wave_slice(g, 8, 1.0)
    with pytest.raises(ValueError, match="orientation"):
        plane_wave_slice(g, 2, 1.0, orientation="diagonal")
