"""Spatial grids, wavefunctions, and branched macroscopic superpositions.

Conventions
-----------
Gaussian packets are written with amplitude exp(-(x - x0)^2 / (4 s^2)), so
the mod-square density is exp(-(x - x0)^2 / (2 s^2)) and the position
variance is exactly s^2.  Every width-dependent formula in the package uses
this convention.

Grids are periodic: n_points cells of spacing dx cover [x_min, x_max) and
x_max is identified with x_min.  All state values are immutable after
construction; operations are pure functions returning new values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteInputError, NotNormalizedError, ZeroNormError

# Unit-norm tolerance applied after every constructor and state-producing op.
NORM_TOL = 1e-9
# Below this dimensionless mod-square norm (a probability) a state counts
# as annihilated.  from_samples, whose norm has dimensions, floors at the
# smallest normal float instead.
NORM_FLOOR = 1e-30


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with n_points cells."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise ValueError(f"x_max ({self.x_max}) must exceed x_min ({self.x_min})")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @cached_property
    def points(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers k matching the discrete Fourier transform."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        k.setflags(write=False)
        return k

    def wrap(self, offsets: np.ndarray | float) -> np.ndarray | float:
        """Minimal-image displacement on the periodic box.

        Exactly ``(offsets + L/2) % L - L/2``, bit for bit, for every finite
        offset: numpy's float ``%`` is ``fmod`` plus L where that is negative
        (and +0 where it is zero, a sign the final ``- L/2`` hides), which
        this spells out at about half the cost.
        """
        L = self.length
        r = np.fmod(np.asarray(offsets) + 0.5 * L, L)
        return np.where(r < 0, r + L, r) - 0.5 * L

    def nearest_index(self, x: float) -> int:
        """Index of the grid cell whose center is closest to x (periodic)."""
        i = int(np.round((x - self.x_min) / self.dx))
        return i % self.n_points

    def region_mask(self, region: tuple[float, float]) -> np.ndarray:
        """Boolean mask of cells with lo <= x <= hi."""
        lo, hi = region
        return (self.points >= lo) & (self.points <= hi)


@dataclass(frozen=True)
class PhysicsParams:
    """Physical constants of a run.

    lam is the spontaneous-hit rate per particle, sigma the localization
    width.  Defaults use SI values; ``scaled()`` gives the desk-unit set
    (hbar = m = 1) used by most scenarios, since the SI rate produces no
    events on any feasible timescale.
    """

    hbar: float = 1.054571817e-34   # J s
    mass: float = 1.67262192369e-27  # kg (nucleon)
    lam: float = 1e-16               # 1/s per particle
    sigma: float = 1e-5              # m

    def __post_init__(self):
        for name in ("hbar", "mass", "lam", "sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value}")

    @classmethod
    def scaled(cls, lam: float = 0.1, sigma: float = 1.0) -> "PhysicsParams":
        return cls(hbar=1.0, mass=1.0, lam=lam, sigma=sigma)


def _norm_squared(amplitudes: np.ndarray, dx: float) -> float:
    return float(np.sum(np.abs(amplitudes) ** 2) * dx)


@dataclass(frozen=True)
class WaveFunction1D:
    """Normalized complex amplitudes on a grid (dimension 1/sqrt(length)).

    The constructor enforces unit norm to within NORM_TOL; use
    ``from_samples`` to build a state from unnormalized samples.
    """

    grid: Grid1D
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n_points,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grid "
                f"({self.grid.n_points} points)"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise NonFiniteInputError("amplitudes contain NaN or infinity")
        n2 = _norm_squared(amps, self.grid.dx)
        if abs(n2 - 1.0) > NORM_TOL:
            raise NotNormalizedError(
                f"norm^2 = {n2!r} outside [1 - {NORM_TOL}, 1 + {NORM_TOL}]; "
                "use WaveFunction1D.from_samples to normalize"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_samples(cls, grid: Grid1D, samples: np.ndarray) -> "WaveFunction1D":
        """Normalize arbitrary complex samples into a valid state."""
        amps = np.asarray(samples, dtype=np.complex128)
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise NonFiniteInputError("samples contain NaN or infinity")
        # this norm has dimensions (unit-height samples of a packet of width
        # s have norm^2 sqrt(2 pi) s), so only one below every normal float
        # counts as zero
        n2 = _norm_squared(amps, grid.dx)
        if n2 < sys.float_info.min:
            raise ZeroNormError(f"norm^2 = {n2!r} below {sys.float_info.min}")
        return cls(grid, amps / np.sqrt(n2))

    @property
    def norm_squared(self) -> float:
        return _norm_squared(self.amplitudes, self.grid.dx)


def gaussian_packet(
    grid: Grid1D, center: float, width: float, wavenumber: float = 0.0
) -> WaveFunction1D:
    """Normalized Gaussian packet of position variance width^2.

    Parameters
    ----------
    grid : Grid1D
        Spatial grid; the packet should fit well inside the box.
    center : float
        Packet center x0.
    width : float
        Position standard deviation s; amplitude envelope
        exp(-(x - x0)^2 / (4 s^2)).
    wavenumber : float, optional
        Plane-wave factor exp(i k0 x) giving the packet mean momentum
        hbar * k0.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    d = grid.wrap(grid.points - center)
    envelope = np.exp(-(d**2) / (4.0 * width**2))
    samples = envelope * np.exp(1j * wavenumber * grid.points)
    return WaveFunction1D.from_samples(grid, samples)


def uniform_state(grid: Grid1D) -> WaveFunction1D:
    """Constant amplitude over the whole box (zero kinetic energy)."""
    return WaveFunction1D.from_samples(grid, np.ones(grid.n_points, dtype=np.complex128))


def superposition(
    components: list[tuple[complex, WaveFunction1D]]
) -> WaveFunction1D:
    """Weighted sum of states on a common grid, renormalized."""
    grid = components[0][1].grid
    total = np.zeros(grid.n_points, dtype=np.complex128)
    for weight, psi in components:
        if psi.grid != grid:
            raise ValueError("superposition components must share one grid")
        total += weight * psi.amplitudes
    return WaveFunction1D.from_samples(grid, total)


def mod_square_density(psi: WaveFunction1D) -> np.ndarray:
    """Pointwise |psi|^2; integrates (sum * dx) to norm^2."""
    return np.abs(psi.amplitudes) ** 2


def momentum_representation(psi: WaveFunction1D) -> np.ndarray:
    """Unitary discrete Fourier transform of the amplitudes.

    Parseval holds exactly in the l2 sense:
    sum_k |psi_k|^2 == sum_i |psi_i|^2.  Wavenumber of bin k is
    ``grid.wavenumbers[k]``; momentum is hbar * k.
    """
    return np.fft.fft(psi.amplitudes) / np.sqrt(psi.grid.n_points)


@dataclass(frozen=True)
class Branch:
    """One branch of a BranchedState, as ``BranchedState.branches`` lists it."""

    weight: complex
    label: str
    positions: np.ndarray


@dataclass(frozen=True)
class BranchedState:
    """Weighted mutually orthogonal point-localized product branches.

    Models a decohered macroscopic superposition: branches never overlap and
    evolve independently.  Branch j has complex weight ``weights[j]``,
    label ``labels[j]`` and particle positions ``positions[j]``, a row of a
    read-only (n_branches, n_particles) matrix; branch_width is the nominal
    per-particle packet width, kept as metadata only (the dynamics treats
    branches as point-localized).
    """

    weights: np.ndarray
    labels: tuple[str, ...]
    positions: np.ndarray
    branch_width: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.complex128)
        positions = np.asarray(self.positions, dtype=np.float64)
        labels, k = tuple(self.labels), len(self.labels)
        if k == 0 or weights.shape != (k,) or positions.ndim != 2 or len(positions) != k:
            raise ValueError(
                "need k >= 1 branches: k weights, k labels and a (k, n_particles) positions "
                f"matrix; got {weights.shape}, {k} and {positions.shape}"
            )
        if len(set(labels)) != len(labels):
            raise ValueError(f"branch labels must be unique, got {list(labels)}")
        if not np.all(np.isfinite(positions)):
            raise NonFiniteInputError("branch positions contain NaN or infinity")
        if self.branch_width <= 0:
            raise ValueError(f"branch_width must be positive, got {self.branch_width}")
        closure = float(np.sum(np.abs(weights) ** 2))
        if not abs(closure - 1.0) <= NORM_TOL:
            raise NotNormalizedError(
                f"sum of mod-square weights = {closure!r} outside 1 +/- {NORM_TOL}"
            )
        weights.setflags(write=False)
        positions.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "positions", positions)

    @classmethod
    def from_amplitudes(
        cls,
        weights: list[complex],
        labels: list[str],
        positions: list[np.ndarray],
        branch_width: float,
    ) -> "BranchedState":
        """Build a branched state, normalizing the weight vector."""
        closure = sum(abs(w) ** 2 for w in weights)
        if closure < NORM_FLOOR:
            raise ZeroNormError("all branch weights are (numerically) zero")
        scale = 1.0 / np.sqrt(closure)
        return cls(
            np.array([w * scale for w in weights], dtype=np.complex128),
            labels,
            np.array(positions, dtype=np.float64),
            branch_width,
        )

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    @property
    def n_branches(self) -> int:
        return self.weights.size

    @property
    def probabilities(self) -> np.ndarray:
        """Mod-square branch weights (Born weights)."""
        return np.abs(self.weights) ** 2

    @property
    def branches(self) -> tuple[Branch, ...]:
        """One record per branch: weight, label and its row of positions."""
        return tuple(map(Branch, self.weights.tolist(), self.labels, self.positions))
