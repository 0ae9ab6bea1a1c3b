"""Phase-space grid, Wigner transform, and slice-wise spectral free streaming.

The zero-potential Liouville flow dP/dt = -(p/m) dP/dq is solved exactly by
shearing each fixed-momentum row: P(q, p, t+dt) = P(q - p*dt/m, p, t).  Rows
are shifted spectrally (real FFT along q, unit-modulus phase per mode,
inverse real FFT), which on the periodic q axis is trigonometric
interpolation of the shear and is exact for band-limited data.  For even
n_q the real interpolant has no Nyquist sine term, so each step scales a
(-1)^i row by cos(pi * shift / dq); two steps scale it by the product of
their cosines, not by one shear of the summed shift.  The analogous
column-wise step in p exists for split-step completeness and is the
identity under zero force.

Conventions: field values are stored as an (n_p, n_q) real array, rows
indexed from p_min upward; hbar and mass default to 1 and live on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PhaseSpaceGrid",
    "WignerField",
    "Wavefunction",
    "DensityMatrix",
    "SliceWave",
    "make_grid",
    "gaussian_wavefunction",
    "wigner_transform",
    "wigner_transform_pure",
    "free_stream_step",
    "vertical_step",
    "evolve",
    "marginals",
    "total_mass",
    "plane_wave_slice",
]

_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform n_p x n_q phase-space lattice with cell-centered samples."""

    n_q: int
    n_p: int
    q_min: float
    q_max: float
    p_min: float
    p_max: float
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.n_q < 2 or self.n_p < 2:
            raise ValueError(f"cell counts must be >= 2, got n_q={self.n_q}, n_p={self.n_p}")
        bounds = f"q in [{self.q_min}, {self.q_max}], p in [{self.p_min}, {self.p_max}]"
        if not all(math.isfinite(b) for b in (self.q_min, self.q_max, self.p_min, self.p_max)):
            raise ValueError(f"phase-space bounds must be finite, got {bounds}")
        if not self.q_max > self.q_min:
            raise ValueError(f"inverted q bounds: [{self.q_min}, {self.q_max}]")
        if not self.p_max > self.p_min:
            raise ValueError(f"inverted p bounds: [{self.p_min}, {self.p_max}]")
        if not self.mass > 0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")
        if not math.isfinite(self.dq * self.dp):
            raise ValueError(f"phase-space cell area dq*dp overflows float64 for {bounds}")

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
    q_min, q_max = (float(x) for x in q_bounds)
    p_min, p_max = (float(x) for x in p_bounds)
    return PhaseSpaceGrid(n_q, n_p, q_min, q_max, p_min, p_max, float(m), float(hbar))


class WignerField:
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
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.shape != (grid.n_p, grid.n_q):
            raise ValueError(
                f"values shape {arr.shape} does not match grid ({grid.n_p}, {grid.n_q})"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "field_mode", bool(field_mode))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WignerField is immutable")


class Wavefunction:
    """Complex position-basis samples psi(q_i) with unit discrete norm."""

    __slots__ = ("q_min", "q_max", "samples")

    def __init__(self, q_min: float, q_max: float, samples: np.ndarray) -> None:
        arr = np.array(samples, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("samples must be a 1-D array of length >= 2")
        if not q_max > q_min:
            raise ValueError(f"inverted q bounds: [{q_min}, {q_max}]")
        dq = (q_max - q_min) / arr.size
        norm = float(np.sum(np.abs(arr) ** 2) * dq)
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"wavefunction norm is {norm}, expected 1 within 1e-10")
        arr.flags.writeable = False
        object.__setattr__(self, "q_min", float(q_min))
        object.__setattr__(self, "q_max", float(q_max))
        object.__setattr__(self, "samples", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Wavefunction is immutable")

    @property
    def n_q(self) -> int:
        return self.samples.size

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.q_min, self.q_max, np.outer(self.samples, self.samples.conj()))


class DensityMatrix:
    """Position-basis density matrix rho(q_i, q_j), trace-normalized so tr(rho)*dq = 1."""

    __slots__ = ("q_min", "q_max", "matrix")

    def __init__(self, q_min: float, q_max: float, matrix: np.ndarray) -> None:
        arr = np.array(matrix, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValueError(f"density matrix must be square with n >= 2, got shape {arr.shape}")
        if not q_max > q_min:
            raise ValueError(f"inverted q bounds: [{q_min}, {q_max}]")
        herm_defect = float(np.max(np.abs(arr - arr.conj().T)))
        if not herm_defect <= 1e-10:
            raise ValueError(f"density matrix is not Hermitian (defect {herm_defect:.3e})")
        dq = (q_max - q_min) / arr.shape[0]
        tr = float(np.trace(arr).real) * dq
        if not abs(tr - 1.0) <= 1e-8:
            raise ValueError(f"trace * dq is {tr}, expected 1 within 1e-8")
        min_eig = float(np.linalg.eigvalsh(arr)[0])
        if not min_eig >= -1e-8:
            raise ValueError(f"density matrix has eigenvalue {min_eig:.3e} below -1e-8")
        arr.flags.writeable = False
        object.__setattr__(self, "q_min", float(q_min))
        object.__setattr__(self, "q_max", float(q_max))
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("DensityMatrix is immutable")

    @property
    def n_q(self) -> int:
        return self.matrix.shape[0]

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_q


@dataclass(frozen=True)
class SliceWave:
    """Plane-wave descriptor for a single phase-space slice.

    Horizontal slices ride on a fixed-momentum row and disperse with
    omega = k * p_slice / m, the frequency forced by substituting the wave
    into the free-streaming equation.  Vertical slices are static under zero
    force (omega = 0).
    """

    k: float
    omega_freq: float
    slice_index: int
    orientation: str

    @classmethod
    def horizontal(cls, grid: PhaseSpaceGrid, row: int, k: float) -> "SliceWave":
        if not 0 <= row < grid.n_p:
            raise ValueError(f"row {row} out of range 0..{grid.n_p - 1}")
        p = float(grid.p_centers()[row])
        return cls(k=float(k), omega_freq=float(k) * p / grid.mass, slice_index=row, orientation="horizontal")

    @classmethod
    def vertical(cls, grid: PhaseSpaceGrid, col: int, k: float) -> "SliceWave":
        if not 0 <= col < grid.n_q:
            raise ValueError(f"column {col} out of range 0..{grid.n_q - 1}")
        return cls(k=float(k), omega_freq=0.0, slice_index=col, orientation="vertical")


def gaussian_wavefunction(
    grid: PhaseSpaceGrid, sigma: float = 1.0, q0: float = 0.0, p0: float = 0.0
) -> Wavefunction:
    """Gaussian packet exp(-(q-q0)^2 / (2 sigma^2)) * exp(i p0 q / hbar), unit-normalized."""
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    q = grid.q_centers()
    raw = np.exp(-((q - q0) ** 2) / (2.0 * sigma**2)) * np.exp(1j * p0 * q / grid.hbar)
    raw /= math.sqrt(float(np.sum(np.abs(raw) ** 2)) * grid.dq)
    return Wavefunction(grid.q_min, grid.q_max, raw)


def _signed_offsets(n: int) -> np.ndarray:
    # offsets 0..n-1 mapped to the symmetric range -(n-1)//2 .. n//2
    idx = np.arange(n)
    return np.where(idx <= n // 2, idx, idx - n)


def wigner_transform(rho: DensityMatrix, grid: PhaseSpaceGrid) -> WignerField:
    """Discrete Wigner transform of a density matrix onto the grid.

    Realizes W(q_i, p_j) = (dq / (pi hbar)) * sum_y rho(q_i + y, q_i - y)
    * exp(-2 i p_j y / hbar) with y over the n_q symmetric offsets.  The
    state is treated as zero outside its window (equivalent to transforming
    the zero-padded matrix), so no ghost image of the far side of the window
    leaks into boundary columns.  The surviving offsets pair off as +-y,
    which keeps the output exactly real for Hermitian input; any
    floating-point imaginary residue above 1e-10 raises.

    Total mass equals tr(rho) * dq whenever the grid's momentum window covers
    the state's momentum content; that is asserted by callers, not here.
    """
    n = grid.n_q
    if rho.n_q != n:
        raise ValueError(f"density matrix dimension {rho.n_q} does not match grid n_q={n}")
    if not (
        math.isclose(rho.q_min, grid.q_min, rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(rho.q_max, grid.q_max, rel_tol=1e-12, abs_tol=1e-12)
    ):
        raise ValueError("density matrix q axis does not match grid")

    idx = np.arange(n)
    offsets = _signed_offsets(n)
    rows = idx[:, None] + offsets[None, :]
    cols = idx[:, None] - offsets[None, :]
    valid = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    corr = np.where(valid, rho.matrix[rows.clip(0, n - 1), cols.clip(0, n - 1)], 0.0)

    y = offsets * grid.dq
    p = grid.p_centers()
    kernel = np.exp(-2j * np.outer(y, p) / grid.hbar)

    w = (grid.dq / (math.pi * grid.hbar)) * (corr @ kernel)
    residue = float(np.max(np.abs(w.imag)))
    if residue > _IMAG_TOL:
        raise ValueError(f"Wigner transform imaginary residue {residue:.3e} exceeds 1e-10")
    return WignerField(grid, w.real.T, t=0.0, field_mode=False)


def wigner_transform_pure(psi: Wavefunction, grid: PhaseSpaceGrid) -> WignerField:
    """Wigner transform of a pure state via its outer-product density matrix."""
    if psi.n_q != grid.n_q:
        raise ValueError(f"wavefunction length {psi.n_q} does not match grid n_q={grid.n_q}")
    return wigner_transform(psi.density_matrix(), grid)


def _spectral_shift(values: np.ndarray, shifts: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """Circularly shift each 1-D slice along ``axis`` by its own real displacement.

    Trigonometric interpolant of the shift: unit-modulus phase per rfft mode,
    inverted by irfft, so real input gives real output by construction.  irfft
    drops the imaginary part of an even-n Nyquist mode: it scales by cos(k_N * shift).
    """
    n = values.shape[axis]
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=spacing)
    phase = np.exp(-1j * np.outer(shifts, k))
    if axis == 0:
        phase = phase.T
    return np.fft.irfft(np.fft.rfft(values, axis=axis) * phase, n=n, axis=axis)


def free_stream_step(w: WignerField, dt: float) -> WignerField:
    """Advance the field by dt under free streaming: row j shears by p_j * dt / m."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if dt == 0.0:
        return WignerField(w.grid, w.values, t=w.t, field_mode=w.field_mode)
    shifts = w.grid.p_centers() * dt / w.grid.mass
    out = _spectral_shift(w.values, shifts, axis=1, spacing=w.grid.dq)
    return WignerField(w.grid, out, t=w.t + dt, field_mode=w.field_mode)


def vertical_step(w: WignerField, dt: float, force: Sequence[float]) -> WignerField:
    """Column-wise spectral shift in p by force * dt; identity under zero force."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    f = np.asarray(force, dtype=np.float64)
    if f.shape != (w.grid.n_q,):
        raise ValueError(f"force must have length n_q={w.grid.n_q}, got shape {f.shape}")
    shifts = f * dt
    out = _spectral_shift(w.values, shifts, axis=0, spacing=w.grid.dp)
    return WignerField(w.grid, out, t=w.t, field_mode=w.field_mode)


def evolve(
    w: WignerField, dt: float, steps: int, snapshot_every: int = 0
) -> list[WignerField]:
    """Run ``steps`` free-streaming steps of size dt, collecting snapshots.

    Snapshots are taken every ``snapshot_every`` steps (none if 0); the final
    state is always included.  The zero-force vertical half of the split step
    is the exact identity and is skipped.
    """
    if not isinstance(steps, int) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
    snapshots: list[WignerField] = []
    cur = w
    for s in range(1, steps + 1):
        cur = free_stream_step(cur, dt)
        if snapshot_every > 0 and s % snapshot_every == 0:
            snapshots.append(cur)
    if not snapshots or snapshots[-1] is not cur:
        snapshots.append(cur)
    return snapshots


def marginals(w: WignerField) -> tuple[np.ndarray, np.ndarray]:
    """(position marginal over p, momentum marginal over q), cell-weighted sums."""
    position = w.values.sum(axis=0) * w.grid.dp
    momentum = w.values.sum(axis=1) * w.grid.dq
    return position, momentum


def total_mass(w: WignerField) -> float:
    """Integral of the field over the grid: sum of samples times cell area."""
    return float(w.values.sum() * w.grid.dq * w.grid.dp)


def plane_wave_slice(
    grid: PhaseSpaceGrid,
    slice_index: int,
    k: float,
    t: float = 0.0,
    orientation: str = "horizontal",
) -> WignerField:
    """Field that is zero except for one plane-wave slice.

    Horizontal: row ``slice_index`` carries cos(k q - omega t) with
    omega = k p_row / m, so one free-streaming step of dt advances the phase
    by exactly k p_row dt / m.  Vertical: column carries cos(k p), static
    under zero force.
    """
    values = np.zeros((grid.n_p, grid.n_q))
    if orientation == "horizontal":
        wave = SliceWave.horizontal(grid, slice_index, k)
        values[slice_index, :] = np.cos(wave.k * grid.q_centers() - wave.omega_freq * t)
    elif orientation == "vertical":
        wave = SliceWave.vertical(grid, slice_index, k)
        values[:, slice_index] = np.cos(wave.k * grid.p_centers())
    else:
        raise ValueError(f"orientation must be 'horizontal' or 'vertical', got {orientation!r}")
    return WignerField(grid, values, t=t, field_mode=True)
