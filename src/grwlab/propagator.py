"""Unitary Schrödinger evolution on periodic grids via split-step spectral integration.

Free evolution is exact in the spectral basis; with a potential the
second-order Strang composition (potential half-step, kinetic full-step,
potential half-step) is used.  Both preserve the l2 norm to machine
precision.  Boundaries are periodic: when probability density reaches the
box edges a BoundaryContamination warning is emitted instead of silently
wrapping.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryContamination, NonFiniteInputError
from .state import Grid1D, PhysicsParams, WaveFunction1D

# Cells counted as "boundary" on each side, and the density alarm threshold.
BOUNDARY_CELLS = 5
BOUNDARY_DENSITY_LIMIT = 1e-6


@dataclass(frozen=True)
class Potential1D:
    """Real potential energy sampled on a grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"potential shape {v.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        if not np.all(np.isfinite(v)):
            raise NonFiniteInputError("potential contains NaN or infinity")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def harmonic_potential(
    grid: Grid1D, params: PhysicsParams, omega: float, center: float = 0.0
) -> Potential1D:
    """V(x) = m omega^2 (x - center)^2 / 2 with minimal-image displacement."""
    d = grid.wrap(grid.points - center)
    return Potential1D(grid, 0.5 * params.mass * omega**2 * d**2)


def boundary_density(psi: WaveFunction1D) -> float:
    """Total probability within BOUNDARY_CELLS cells of either box edge."""
    amps, dx = psi.amplitudes, psi.grid.dx
    if amps.size < 2 * BOUNDARY_CELLS:
        # the two edge slices overlap, and their union is every cell
        return psi.norm_squared
    low = np.abs(amps[:BOUNDARY_CELLS]) ** 2 * dx
    high = np.abs(amps[-BOUNDARY_CELLS:]) ** 2 * dx
    return float(np.sum(low) + np.sum(high))


def _check_boundary(psi: WaveFunction1D) -> None:
    leaked = boundary_density(psi)
    if leaked > BOUNDARY_DENSITY_LIMIT:
        warnings.warn(
            BoundaryContamination(
                f"density {leaked:.3e} within {BOUNDARY_CELLS} cells of the box "
                f"edges exceeds {BOUNDARY_DENSITY_LIMIT:.0e}; enlarge the box"
            ),
            stacklevel=3,
        )


def evolve_free(psi: WaveFunction1D, params: PhysicsParams, dt: float) -> WaveFunction1D:
    """Exact free evolution: each momentum component gains exp(-i hbar k^2 dt / 2m).

    dt may be negative (backward evolution); the map is unitary either way.
    The phase is ``evolve``'s kinetic phase, from the cached ``_kinetic_energies``.
    """
    if not np.isfinite(dt):
        raise NonFiniteInputError(f"dt = {dt!r}")
    if dt == 0.0:
        return psi
    energies, mirror = _kinetic_energies(psi.grid, params)
    amps = np.fft.ifft(_unit_phases(energies * -dt)[mirror] * np.fft.fft(psi.amplitudes))
    return WaveFunction1D(psi.grid, amps)


def evolve(
    psi: WaveFunction1D,
    potential: Potential1D | None,
    params: PhysicsParams,
    dt: float,
    n_steps: int,
) -> WaveFunction1D:
    """Strang-split evolution for n_steps steps of size dt.

    Second-order accurate in dt on smooth potentials and exactly
    norm-preserving.  With potential None (or all zeros) the result agrees
    with ``evolve_free`` over the same total time.  Emits a
    BoundaryContamination warning when density reaches the box edges.

    The kinetic energies hbar k^2 / 2m are cached per (grid, params) by
    ``_kinetic_energies``; the phases depend on dt and are built once per
    call, and the steps run in two preallocated buffers.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise NonFiniteInputError(f"dt must be positive and finite, got {dt!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if potential is None:
        out = evolve_free(psi, params, dt * n_steps)
        _check_boundary(out)
        return out
    if potential.grid != psi.grid:
        raise ValueError("potential and state must share one grid")

    energies, mirror = _kinetic_energies(psi.grid, params)
    # kinetic phase with the inverse transform's 1/n folded in
    kinetic = (_unit_phases(energies * -dt) / psi.grid.n_points)[mirror]
    potential_half = _unit_phases(potential.values * (-dt / (2.0 * params.hbar)))
    potential_full = potential_half * potential_half

    # Strang: V/2, then (K, V)^(n-1), K, V/2 -- interior half-steps fused;
    # every step runs in the two buffers amps and spectrum.
    amps = psi.amplitudes * potential_half
    spectrum = np.empty_like(amps)
    for step in range(n_steps):
        np.fft.fft(amps, out=spectrum)
        spectrum *= kinetic
        np.fft.ifft(spectrum, norm="forward", out=amps)
        amps *= potential_full if step < n_steps - 1 else potential_half

    out = WaveFunction1D(psi.grid, amps)
    _check_boundary(out)
    return out


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    """exp(i angles) from one real cos and one real sin, cheaper than a complex exp."""
    phases = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    return phases


@functools.lru_cache(maxsize=8)
def _kinetic_energies(grid: Grid1D, params: PhysicsParams) -> tuple[np.ndarray, np.ndarray]:
    """hbar k^2 / 2m on the n//2 + 1 distinct |k|, and the index mapping them to all k.

    k^2 from fftfreq is exactly symmetric (k_j = -k_{n-j}), so entry j of
    the full array is entry min(j, n - j) of the half.  Both arrays are
    read-only; they depend on (grid, params) and not on dt, which differs
    from one run_grw interval to the next.  At most eight pairs are kept.
    """
    n = grid.n_points
    k = grid.wavenumbers[: n // 2 + 1]
    energies = params.hbar * k**2 / (2.0 * params.mass)
    j = np.arange(n)
    mirror = np.minimum(j, n - j)
    energies.setflags(write=False)
    mirror.setflags(write=False)
    return energies, mirror
