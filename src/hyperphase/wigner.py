"""Phase-space grid, Wigner transform, and slice-wise spectral free streaming.

The zero-potential Liouville flow dP/dt = -(p/m) dP/dq is solved exactly by
shearing each fixed-momentum row: P(q, p, t+dt) = P(q - p*dt/m, p, t).  Rows
are shifted spectrally (real FFT along q, unit-modulus phase per mode,
inverse real FFT), which on the periodic q axis is trigonometric
interpolation of the shear and is exact for band-limited data.  For even
n_q the real interpolant has no Nyquist sine term, so each step scales a
(-1)^i row by cos(pi * shift / dq); two steps scale it by the product of
their cosines, not by one shear of the summed shift.  A run of steps stays
in rfft space: one forward transform, the per-step phase (and the per-step
Nyquist rule) applied once per step, one inverse transform, so ``evolve``
transforms once per snapshot rather than once per step.

The Wigner transform takes pure states only.  It gathers
psi(q + y) psi*(q - y) from psi's samples over the half offsets y = m dq
inside the window, with no density matrix, and pairs +-y into one real
cos/sin momentum sum.

Conventions: field values are stored as an (n_p, n_q) real array, rows
indexed from p_min upward; hbar and mass default to 1 and live on the grid.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .hypergraph import (MAX_CELLS, _echo, _require_cells, _require_int, _require_number, _require_phase,
                         _require_real, _Value)

__all__ = [
    "PhaseSpaceGrid",
    "WignerField",
    "Wavefunction",
    "MAX_CELLS",
    "make_grid",
    "gaussian_wavefunction",
    "wigner_transform",
    "wigner_transform_pure",
    "free_stream_step",
    "evolve",
    "marginals",
    "total_mass",
    "plane_wave_slice",
]


class PhaseSpaceGrid(_Value):
    """Uniform n_p x n_q phase-space lattice with cell-centered samples; immutable."""

    __slots__ = ("n_q", "n_p", "q_min", "q_max", "p_min", "p_max", "mass", "hbar")

    def __init__(self, n_q: int, n_p: int, q_min: float, q_max: float, p_min: float,
                 p_max: float, mass: float = 1.0, hbar: float = 1.0) -> None:
        # each under its slot's name; the other count is at least 2, so each is at most MAX_CELLS / 2
        self._set(_require_int(n_q, "n_q", 2, MAX_CELLS // 2), _require_int(n_p, "n_p", 2, MAX_CELLS // 2),
                  *map(_require_real, (q_min, q_max, p_min, p_max), self.__slots__[2:6]),
                  _require_number(mass, "mass"), _require_number(hbar, "hbar"))
        _require_cells("n_q x n_p grid", self.n_q, self.n_p)
        bounds = f"q in [{self.q_min}, {self.q_max}], p in [{self.p_min}, {self.p_max}]"
        if not self.q_max > self.q_min:
            raise ValueError(f"inverted q bounds: [{self.q_min}, {self.q_max}]")
        if not self.p_max > self.p_min:
            raise ValueError(f"inverted p bounds: [{self.p_min}, {self.p_max}]")
        _require_real(self.dq * self.dp, f"phase-space cell area dq*dp for {bounds}")
        for name, d in (("dq", self.dq), ("dp", self.dp)):  # 0 only by underflow; pi / 0.0 would raise
            _require_real(math.pi / d if d else math.inf, f"pi/{name} of the spacing {name}={d} for {bounds}")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    def q_centers(self) -> np.ndarray:
        return self.q_min + (np.arange(self.n_q) + 0.5) * self.dq

    def p_centers(self) -> np.ndarray:
        return self.p_min + (np.arange(self.n_p) + 0.5) * self.dp


def make_grid(
    n_q: int,
    n_p: int,
    q_bounds: Sequence[float],
    p_bounds: Sequence[float],
    m: float = 1.0,
    hbar: float = 1.0,
) -> PhaseSpaceGrid:
    """Build a PhaseSpaceGrid from bounds pairs; see PhaseSpaceGrid for invariants."""
    (q_min, q_max), (p_min, p_max) = _pair(q_bounds, "q_bounds"), _pair(p_bounds, "p_bounds")
    return PhaseSpaceGrid(n_q, n_p, q_min, q_max, p_min, p_max, m, hbar)


def _pair(bounds, path: str) -> tuple:
    """The two items of ``bounds``; anything else is refused under ``path``."""
    try:
        low, high = bounds
    except (TypeError, ValueError):
        raise ValueError(f"{path}: expected a (min, max) pair, got {_echo(bounds)}") from None
    return low, high


class WignerField(_Value):
    """Real quasiprobability samples on a grid at time t.

    values[j, i] is the sample at (q_i, p_j).  Fields are immutable; the
    backing array is marked read-only.  ``field_mode`` flags synthetic
    slice-carrier fields (plane-wave rows, hypergraph-derived sums) that are
    exempt from the unit-mass expectation of physical Wigner functions.
    """

    __slots__ = ("grid", "values", "t", "field_mode")

    def __init__(
        self,
        grid: PhaseSpaceGrid,
        values: np.ndarray,
        t: float = 0.0,
        field_mode: bool = False,
    ) -> None:
        if not isinstance(field_mode, (bool, np.bool_)):
            raise ValueError(f"field_mode: expected a bool, got {_echo(field_mode)}")
        self._adopt(grid, np.array(values, dtype=np.float64, copy=True, order="C"),
                    _require_real(t, "t"), bool(field_mode))

    def _adopt(self, grid: PhaseSpaceGrid, arr: np.ndarray, t: float, field_mode: bool):
        """Check the float64 ``arr`` and make it the read-only values, without a copy."""
        shape = (grid.n_p, grid.n_q)
        if arr.shape != shape:
            raise ValueError(f"values shape {arr.shape} does not match grid {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        arr.flags.writeable = False
        return self._set(grid, arr, t, field_mode)


class Wavefunction(_Value):
    """Complex position-basis samples psi(q_i) with unit discrete norm."""

    __slots__ = ("q_min", "q_max", "samples")

    def __init__(self, q_min: float, q_max: float, samples: np.ndarray) -> None:
        low, high = _require_real(q_min, "q_min"), _require_real(q_max, "q_max")
        arr = np.array(samples, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("samples must be a 1-D array of length >= 2")
        if not high > low:
            raise ValueError(f"inverted q bounds: [{q_min}, {q_max}]")
        self._adopt(low, high, arr)

    def _adopt(self, q_min: float, q_max: float, arr: np.ndarray):
        """Check the norm of the complex128 ``arr`` and make it the read-only samples, uncopied."""
        with np.errstate(over="ignore"):  # an overflowing norm is inf, refused below
            norm = float(np.sum(np.abs(arr) ** 2) * ((q_max - q_min) / arr.size))
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"wavefunction norm is {norm}, expected 1 within 1e-10")
        arr.flags.writeable = False
        return self._set(q_min, q_max, arr)

    @property
    def n_q(self) -> int:
        return self.samples.size

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q


def gaussian_wavefunction(
    grid: PhaseSpaceGrid, sigma: float = 1.0, q0: float = 0.0, p0: float = 0.0
) -> Wavefunction:
    """Gaussian packet exp(-(q-q0)^2 / (2 sigma^2)) * exp(i p0 q / hbar), unit-normalized.

    sigma must be > 0 with a finite, nonzero sigma**2, the phase p0 q / hbar at most
    2**53 rad on the grid, and the samples must have a finite, nonzero norm on
    the grid (a packet far narrower than dq, or far off it, can underflow to zero).
    """
    sigma, q0, p0 = _require_number(sigma, "sigma"), _require_real(q0, "q0"), _require_real(p0, "p0")
    _require_number(sigma * sigma, f"sigma**2 for sigma={sigma}")
    bounds = f"q in [{grid.q_min}, {grid.q_max}]"
    _require_phase(abs(p0) * max(abs(grid.q_min), abs(grid.q_max)) / grid.hbar,
                   f"p0*q/hbar for p0={p0}, hbar={grid.hbar} on {bounds}")
    q = grid.q_centers()
    # a sample far off the packet overflows its exponent to -inf (exp gives 0), or to nan once
    # 2 sigma**2 overflows too; the norm check below refuses a norm of 0 or nan
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.exp(-((q - q0) ** 2) / (2.0 * sigma**2)) * np.exp(1j * p0 * q / grid.hbar)
        norm = float(np.sum(np.abs(raw) ** 2)) * grid.dq
    _require_number(norm, f"norm of the Gaussian of sigma={sigma} at q0={q0} on {bounds}, dq={grid.dq}")
    raw /= math.sqrt(norm)  # checked again: a norm of subnormal squares can be off by > 1e-10
    try:
        return object.__new__(Wavefunction)._adopt(float(grid.q_min), float(grid.q_max), raw)
    except ValueError as exc:
        raise ValueError(f"sigma={sigma} on a grid of dq={grid.dq}: {exc}") from None


def _gaussian_wigner(grid: PhaseSpaceGrid, sigma: float, t: float) -> np.ndarray:
    """exp(-(q - p t/m)^2 / sigma^2 - (sigma p / hbar)^2) / (pi hbar): ``gaussian_wavefunction(grid,
    sigma)`` free-streamed to t, in closed form.  Its IEEE operations run in order in one new array
    (x / -s is -(x / s) exactly); an inf shear gives exp(-inf) = 0, its exact limit."""
    p = grid.p_centers()[:, None]
    with np.errstate(over="ignore"):
        w = grid.q_centers()[None, :] - p * t / grid.mass
        np.divide(np.square(w, out=w), -sigma**2, out=w)
        w -= (sigma * p / grid.hbar) ** 2
        return np.divide(np.exp(w, out=w), math.pi * grid.hbar, out=w)


def _correlation(psi: Wavefunction) -> np.ndarray:
    """c[i, m] = psi(q_i + m dq) psi*(q_i - m dq), m < ceil(n/2), zero outside the window."""
    n = psi.n_q
    half = (n + 1) // 2
    # zero-padded samples: win[k, m] = pad[k + m], so psi(q_i + y) = win[half - 1 + i, m]
    # and psi(q_i - y) = win[i, half - 1 - m], both zero outside the window
    pad = np.zeros(n + 2 * half - 2, dtype=np.complex128)
    pad[half - 1 : half - 1 + n] = psi.samples
    win = np.lib.stride_tricks.sliding_window_view(pad, half)
    return win[half - 1 :] * win[:n, ::-1].conj()


def wigner_transform(psi: Wavefunction, grid: PhaseSpaceGrid) -> WignerField:
    """Discrete Wigner transform of a pure state onto the grid.

    Realizes W(q_i, p_j) = (dq / (pi hbar)) * sum_y psi(q_i + y) psi*(q_i - y)
    * exp(-2 i p_j y / hbar) over offsets y = m dq.  The state is zero
    outside its window (no ghost image of the far side leaks into boundary
    columns), so only |m| < ceil(n_q/2) contribute; for even n_q the unpaired
    m = n_q/2 never does.  The -y term is the conjugate of the +y term, so
    W is the real c_0 + 2 Re sum_{m>0} c_m exp(-2 i p_j m dq / hbar): one
    real matmul of the (Re c_m, Im c_m) pairs against (cos, sin) rows.  The
    c_m come from psi's samples, with no n_q x n_q matrix.  The sum is a
    BLAS dgemm, so output bytes repeat for a fixed numpy/BLAS build and
    thread count.

    Total mass equals psi's norm, sum |psi|^2 dq, whenever the grid's
    momentum window covers psi's momentum content; that is asserted by
    callers, not here.  An hbar that puts the kernel phase past 2**53 rad, or
    overflows the factor 2 dq/hbar or dq/(pi hbar), is refused before anything is computed.
    """
    n = grid.n_q
    if psi.n_q != n:
        raise ValueError(f"wavefunction length {psi.n_q} does not match grid n_q={n}")
    if not (
        math.isclose(psi.q_min, grid.q_min, rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(psi.q_max, grid.q_max, rel_tol=1e-12, abs_tol=1e-12)
    ):
        raise ValueError("wavefunction q axis does not match grid")
    half = (n + 1) // 2
    _require_cells("Wigner correlation of n_q x offsets", n, half)
    _require_phase(2.0 * grid.dq * (half - 1) * max(abs(grid.p_min), abs(grid.p_max)) / grid.hbar,
                   f"Wigner kernel phase 2*dq*m*p/hbar for hbar={grid.hbar}")
    scale = _require_real(grid.dq / (math.pi * grid.hbar),
                          f"Wigner normalization dq/(pi*hbar) for hbar={grid.hbar}")
    factor = _require_real(2.0 * grid.dq / grid.hbar, f"Wigner kernel factor 2*dq/hbar for hbar={grid.hbar}")
    theta = factor * np.outer(np.arange(half), grid.p_centers())
    kernel = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    del theta  # each temporary is let go once used, so the product runs with fewer alive
    kernel[1:] *= 2.0  # row m > 0 stands for the +-m pair; doubling is exact
    # columns 2m, 2m+1 of the float view hold (Re c_m, Im c_m); kernel rows hold (cos, sin)
    w = _correlation(psi).view(np.float64) @ kernel.reshape(2 * half, -1)
    del kernel
    scaled = np.multiply(w.T, scale, order="C")
    return object.__new__(WignerField)._adopt(grid, scaled, 0.0, False)  # fresh: no copy


def wigner_transform_pure(psi: Wavefunction, grid: PhaseSpaceGrid) -> WignerField:
    """Wigner transform of a pure state: ``wigner_transform`` on its samples."""
    return wigner_transform(psi, grid)


def _spectral_shift(
    values: np.ndarray, shifts: np.ndarray, spacing: float, steps: int = 1
) -> np.ndarray:
    """Circularly shift each row by its own displacement, ``steps`` times.

    Trigonometric interpolant of the shift: unit-modulus phase per rfft mode,
    inverted by irfft, so real input gives real output by construction.  The
    coefficients stay in rfft space across steps.  An even-n Nyquist mode is
    set to its real part after every step, which is what irfft does to it
    after one step: each step scales it by cos(k_N * shift).  Rows of +0.0 stay +0.0
    untransformed; the rest go into one zeroed output a block of at most 2**16 cells at a
    time.  pocketfft transforms rows one by one, so neither changes any row's bytes.
    """
    n = values.shape[1]
    live = np.flatnonzero(values.view(np.uint64).any(axis=1))  # any bit set: nonzero or -0.0
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=spacing)
    out = np.zeros_like(values)
    block = max(1, 2**16 // n)
    for start in range(0, live.size, block):
        rows = live[start : start + block]
        coeffs = np.fft.rfft(values[rows])
        phase = np.exp(-1j * np.outer(shifts[rows], k))
        for _ in range(steps):
            coeffs *= phase
            if n % 2 == 0:
                coeffs[:, -1] = coeffs[:, -1].real
        del phase  # the inverse transform then runs with one block fewer alive
        out[rows] = np.fft.irfft(coeffs, n=n)
    return out


def free_stream_step(w: WignerField, dt: float, steps: int = 1) -> WignerField:
    """Advance the field by ``steps`` steps of dt under free streaming.

    Each step shears row j by p_j * dt / m.  The rows stay in rfft space across the
    steps and are inverted once, a bounded block at a time into the one output; the
    per-step Nyquist rule of ``_spectral_shift`` is unchanged, so this equals ``steps``
    single-step calls up to rounding.  The time advances by dt once per step.  A dt whose
    spectral phase is past 2**53 rad, or whose end time overflows float64, is
    refused before anything is computed.
    """
    dt, steps = _require_real(dt, "dt"), _require_steps(steps)
    if dt == 0.0:
        return w  # fields are immutable: the unstreamed field is its own result
    g = w.grid
    # the largest rfft wavenumber is pi/dq, so the largest phase is the largest shear p*dt/m times it
    _require_phase(max(abs(g.p_min), abs(g.p_max)) * abs(dt) / g.mass * math.pi / g.dq,
                   f"spectral phase p*dt/m*pi/dq of a step for dt={dt}, m={g.mass}")
    _require_real(w.t + steps * dt, f"end time t + steps*dt for dt={dt} over {steps} steps from t={w.t}")
    shifts = g.p_centers() * dt / g.mass
    out = _spectral_shift(w.values, shifts, spacing=g.dq, steps=steps)
    t = w.t
    for _ in range(steps):
        t += dt
    return object.__new__(WignerField)._adopt(g, out, t, w.field_mode)  # out is fresh: no copy


def evolve(
    w: WignerField, dt: float, steps: int, snapshot_every: int = 0
) -> list[WignerField]:
    """Run ``steps`` free-streaming steps of size dt, collecting snapshots.

    Snapshots are taken every ``snapshot_every`` steps (none if 0); the final
    state is always included.  Each stretch between snapshots is one
    ``free_stream_step`` call, so the field is transformed once per snapshot.
    """
    return [w := free_stream_step(w, dt, stretch) for stretch in _stretches(steps, snapshot_every)]


def _require_steps(steps) -> int:
    """``steps`` as an int of at least 1 that is a finite float64, as ``t + steps * dt`` takes it."""
    steps = _require_int(steps, "steps", 1)
    _require_real(steps, "steps")
    return steps


def _stretches(steps: int, snapshot_every: int) -> Iterator[int]:
    """Steps between snapshots: ``snapshot_every`` at a time and then the rest, or all if 0.
    Both counts are checked when this is called, before the first stretch is taken."""
    steps = _require_steps(steps)
    every = _require_int(snapshot_every, "snapshot_every", 0) or steps
    return (min(every, steps - done) for done in range(0, steps, every))


def marginals(w: WignerField) -> tuple[np.ndarray, np.ndarray]:
    """(position marginal over p, momentum marginal over q), cell-weighted sums; a sum
    past float64 is refused."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is refused below
        sums = w.values.sum(axis=0) * w.grid.dp, w.values.sum(axis=1) * w.grid.dq
    for name, marginal in zip(("position", "momentum"), sums):
        _require_real(float(np.max(np.abs(marginal))), f"largest |{name} marginal|")
    return sums


def _mass(values: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """Sum of ``values`` times the cell area: one fsum of the column sums.

    ``values.sum()`` was seen to round by the data pointer's offset mod 64;
    this sum has one bit pattern at every offset.  A sum past float64 is refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is refused below
        columns = values.sum(axis=0).tolist()
    try:
        total = math.fsum(columns) * grid.dq * grid.dp
    except (OverflowError, ValueError):  # fsum's partials overflowed, or it met inf and -inf
        total = math.inf
    return _require_real(total, f"total mass sum(values)*dq*dp for dq={grid.dq}, dp={grid.dp}")


def total_mass(w: WignerField) -> float:
    """Integral of the field over the grid: sum of samples times cell area."""
    return _mass(w.values, w.grid)


def plane_wave_slice(
    grid: PhaseSpaceGrid, slice_index: int, k: float, t: float = 0.0
) -> WignerField:
    """Field that is zero except for one plane-wave row.

    Row ``slice_index`` carries cos(k q - omega t) with omega = k p_row / m,
    so one free-streaming step of dt advances the phase by exactly
    k p_row dt / m.  A phase past 2**53 rad is refused before the cosine.
    """
    slice_index = _require_int(slice_index, "slice_index", 0, grid.n_p - 1)
    k, t = _require_real(k, "k"), _require_real(t, "t")
    omega = k * float(grid.p_centers()[slice_index]) / grid.mass
    _require_phase(abs(k) * max(abs(grid.q_min), abs(grid.q_max)) + abs(omega * t),
                   f"k*q - omega*t for k={k}, t={t} on row {slice_index}")
    values = np.zeros((grid.n_p, grid.n_q))
    values[slice_index, :] = np.cos(k * grid.q_centers() - omega * t)
    return object.__new__(WignerField)._adopt(grid, values, t, True)  # fresh: no copy
