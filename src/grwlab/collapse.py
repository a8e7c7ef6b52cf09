"""The stochastic hit process: exponential hit timing, Born-weighted center
sampling, and application of localization kernels to grid states and
branched states.

Kernel convention
-----------------
The Gaussian hit multiplies amplitudes by exp(-(x - z)^2 / (4 sigma^2)), so
a component at distance d from the collapse center keeps the amplitude
fraction exp(-d^2 / (4 sigma^2)) and the mod-square fraction
exp(-d^2 / (2 sigma^2)).  For center sampling the amplitude kernel carries
the prefactor (2 pi sigma^2)^(-1/4), which makes the center density
p(z) = |L_z psi|^2 integrate to one: p is the mod-square density convolved
with a normal density of variance sigma^2.  GRW write the same amplitude
factor as exp(-d^2 / (2 r_C^2)), so their localization width is
r_C = sqrt(2) sigma.

The compact-support kernel keeps the same Gaussian interior but sets
amplitudes with |x - z| > window exactly to zero.  The ideal kernel
projects onto the single grid cell nearest z; it is kept as an explicitly
unphysical reference (its energy cost diverges with grid resolution).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from decimal import Decimal

import numpy as np

from .errors import ZeroNormError
from .propagator import Potential1D, evolve
from .state import (
    NORM_FLOOR,
    NORM_TOL,
    BranchedState,
    Grid1D,
    PhysicsParams,
    WaveFunction1D,
    mod_square_density,
)


class _SmoothKernel:
    """Grid behaviour shared by the kernels with a Gaussian interior."""

    def localize(self, psi: WaveFunction1D, center: float) -> np.ndarray:
        """Amplitudes multiplied by the kernel centered at z (not renormalized)."""
        grid = psi.grid
        return psi.amplitudes * self.amplitude_factor(grid.wrap(grid.points - center))

    def center_density(self, rho: np.ndarray, grid: Grid1D) -> np.ndarray:
        """p(z) at the grid points: rho circularly convolved with center_profile."""
        return self.center_density_from_spectrum(np.fft.rfft(rho), grid)

    def center_density_from_spectrum(self, rho_spectrum: np.ndarray, grid: Grid1D) -> np.ndarray:
        """p(z) from ``np.fft.rfft(rho)``, for a caller that reuses that spectrum.

        One irfft: the center profile's spectrum is cached per (kernel, grid)
        by ``_profile_spectrum``, so a hit pays for the transforms of rho alone.
        """
        # circular convolution: p_j = sum_i K(x_j - x_i) rho_i dx
        spectrum = rho_spectrum * _profile_spectrum(self, grid)
        p = np.fft.irfft(spectrum, grid.n_points) * grid.dx
        np.clip(p, 0.0, None, out=p)
        return p


@functools.lru_cache(maxsize=8)
def _profile_spectrum(kernel: _SmoothKernel, grid: Grid1D) -> np.ndarray:
    """Read-only rfft of center_profile at the grid offsets from x_min.

    For the normalized amplitude kernel g the profile is g^2; the center
    density and ontology.post_hit_gains read its spectrum.  Kernels and
    grids are frozen and compare by value, so equal pairs share one entry;
    at most eight pairs are kept.
    """
    spectrum = np.fft.rfft(kernel.center_profile(grid.wrap(grid.points - grid.x_min)))
    spectrum.setflags(write=False)
    return spectrum


@dataclass(frozen=True)
class GaussianKernel(_SmoothKernel):
    """Gaussian hit; never annihilates amplitude.

    Multiplies amplitudes by exp(-d^2 / (4 sigma^2)) at distance d from the
    center.  sigma is the standard deviation of the normal that the center
    density is convolved with; the GRW amplitude width is r_C = sqrt(2) sigma.
    """

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def label(self) -> str:
        return f"gaussian(sigma={self.sigma!r})"

    def amplitude_factor(self, distance):
        return np.exp(-np.square(distance) / (4.0 * self.sigma**2))

    def center_profile(self, offsets: np.ndarray) -> np.ndarray:
        """Normal density of variance sigma^2 at the given offsets."""
        sigma = self.sigma
        return np.exp(-(offsets**2) / (2.0 * sigma**2)) / math.sqrt(2.0 * math.pi * sigma**2)


@dataclass(frozen=True)
class CompactSupportKernel(_SmoothKernel):
    """Gaussian interior truncated to |x - z| <= window, then renormalized.

    Inside the window amplitudes are multiplied by exp(-d^2 / (4 sigma^2)),
    as for GaussianKernel: sigma is the standard deviation of the untruncated
    center-sampling normal, and the GRW amplitude width is sqrt(2) sigma.
    """

    sigma: float
    window: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")

    @property
    def label(self) -> str:
        return f"compact_support(sigma={self.sigma!r}, window={self.window!r})"

    def amplitude_factor(self, distance):
        d = np.asarray(distance, dtype=np.float64)
        return GaussianKernel(self.sigma).amplitude_factor(d) * (np.abs(d) <= self.window)

    def center_profile(self, offsets: np.ndarray) -> np.ndarray:
        profile = GaussianKernel(self.sigma).center_profile(offsets)
        profile = profile * (np.abs(offsets) <= self.window)
        return profile / math.erf(self.window / (self.sigma * math.sqrt(2.0)))


@dataclass(frozen=True)
class IdealKernel:
    """Projection onto the single grid cell nearest the center (unphysical)."""

    label = "ideal"

    def amplitude_factor(self, distance):
        return (np.asarray(distance, dtype=np.float64) == 0.0).astype(np.float64)

    def localize(self, psi: WaveFunction1D, center: float) -> np.ndarray:
        idx = psi.grid.nearest_index(center)
        amps = np.zeros(psi.grid.n_points, dtype=np.complex128)
        amps[idx] = psi.amplitudes[idx]
        return amps

    def center_density(self, rho: np.ndarray, grid: Grid1D) -> np.ndarray:
        # zero-width limit: the center density is the mod-square density
        return rho.copy()


CollapseKernel = GaussianKernel | CompactSupportKernel | IdealKernel

# physics.kernel names and classes; a kernel's fields are the physics fields it reads
KERNELS = {
    "gaussian": GaussianKernel,
    "compact_support": CompactSupportKernel,
    "ideal": IdealKernel,
}


class RngStream(np.random.Generator):
    """Counter-based random stream, reproducible across platforms.

    A numpy Generator on Philox keyed by ``SeedSequence(seed, spawn_key)``:
    identical (seed, spawn_key) pairs yield identical draw sequences.
    ``for_trial`` gives a trial an independent stream of any length;
    ``trial_uniforms`` gives each trial of an ensemble one Philox counter
    block (four uniforms) under the seed's key, so a trial's draws are a pure
    function of (seed, trial) and ensembles can run in any order or in
    parallel without changing results.
    """

    def __init__(self, seed: int, spawn_key: tuple[int, ...] = ()):
        sequence = np.random.SeedSequence(int(seed), spawn_key=tuple(spawn_key))
        super().__init__(np.random.Philox(sequence))

    @classmethod
    def for_trial(cls, master_seed: int, trial: int) -> "RngStream":
        """A full stream for one trial, keyed by (master_seed, trial)."""
        return cls(master_seed, spawn_key=(trial,))

    @staticmethod
    def trial_uniforms(seed: int, n_trials: int) -> np.ndarray:
        """(n_trials, 4) uniforms in [0, 1): row i is Philox counter block i.

        ``RngStream(seed).random((n_trials, 4))``: under the stream's key,
        row i is ``Philox(key=key, counter=i).random_raw(4)`` mapped to
        doubles (top 53 bits), so a row depends only on (seed, trial) and not
        on n_trials.
        """
        return RngStream(seed).random((n_trials, 4))


@dataclass(frozen=True)
class CollapseEvent:
    """Record of a single hit.

    pre_weights / post_weights are mod-square branch weights (None for grid
    states, which carry no branch decomposition).
    """

    time: float
    particle: int
    center: float
    kernel: str
    selected_branch: str | None = None
    pre_weights: tuple[float, ...] | None = None
    post_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.post_weights is not None:
            total = sum(self.post_weights)
            if abs(total - 1.0) > NORM_TOL:
                raise ValueError(f"post_weights sum to {total!r}, expected 1")


def hit_rate(n_particles: int, params: PhysicsParams) -> float:
    """Total spontaneous-hit rate n_particles * lam.

    Computed through decimal arithmetic on the shortest decimal
    representation, so that round decimal inputs give round rates
    (1e23 particles at 1e-16 per second is exactly 1e7 per second, which a
    straight float product misses by one part in 1e16).
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    return float(Decimal(repr(n_particles)) * Decimal(repr(params.lam)))


def sample_hit_time(n_particles: int, params: PhysicsParams, rng: RngStream) -> float:
    """Waiting time to the next hit: Exponential(rate = n_particles * lam).

    Which particle is hit is uniform over particles and is drawn separately
    (see run_grw).
    """
    return rng.exponential(1.0 / hit_rate(n_particles, params))


def sample_center(
    psi: WaveFunction1D,
    kernel: CollapseKernel,
    rng: RngStream,
    size: int | None = None,
) -> float | np.ndarray:
    """Draw collapse center(s) z from p(z) = |L_z psi|^2.

    Inverse-CDF sampling over p evaluated at the grid points: exact to grid
    resolution and reproducible.  For the ideal kernel p reduces to the
    mod-square density itself (zero-width limit).  ``size=0`` gives an empty
    array and consumes no uniform.
    """
    p = kernel.center_density(mod_square_density(psi), psi.grid)
    centers = psi.grid.points[draw_center_indices(p, rng.random(1 if size is None else size))]
    return centers if size is not None else float(centers[0])


def draw_center_indices(density: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Grid indices of centers drawn by inverse CDF from a center density.

    One center per uniform in [0, 1).  Any finite weight vector works:
    ``apply_branch_hit`` draws its branch with it.
    """
    cdf = np.cumsum(density)
    if cdf[-1] < NORM_FLOOR:
        raise ZeroNormError("center density vanishes everywhere")
    indices = np.searchsorted(cdf, uniforms * cdf[-1], side="right")
    return np.minimum(indices, density.size - 1, out=indices)


def apply_hit(psi: WaveFunction1D, center: float, kernel: CollapseKernel) -> WaveFunction1D:
    """Multiply by the kernel amplitude centered at z, then renormalize.

    Gaussian hits leave every previously nonzero amplitude nonzero; the
    compact-support hit zeroes amplitudes beyond its window exactly; the
    ideal hit keeps only the single grid cell nearest z.
    """
    amps = kernel.localize(psi, center)
    n2 = float(np.sum(np.abs(amps) ** 2) * psi.grid.dx)
    if n2 < NORM_FLOOR:
        raise ZeroNormError(f"hit at z = {center!r} with {kernel.label} annihilated the state")
    return WaveFunction1D(psi.grid, amps / np.sqrt(n2))


def branch_hit_weights(
    weights: np.ndarray, positions: np.ndarray, center: float, kernel: CollapseKernel
) -> np.ndarray:
    """Branch weights after a hit at ``center``, renormalized.

    positions[k] is branch k's position of the hit particle; each weight is
    multiplied by the kernel amplitude at its distance from the center.
    """
    new_weights = weights * kernel.amplitude_factor(np.abs(positions - center))
    closure = float(np.sum(np.abs(new_weights) ** 2))
    if closure < NORM_FLOOR:
        raise ZeroNormError("hit annihilated every branch weight")
    return new_weights / np.sqrt(closure)


def apply_branch_hit(
    state: BranchedState,
    particle: int,
    kernel: CollapseKernel,
    rng: RngStream,
    time: float = 0.0,
) -> tuple[BranchedState, CollapseEvent]:
    """One hit on a branched state.

    Selects branch k with Born probability |w_k|^2, centers the kernel on
    that branch's position of the hit particle, multiplies every branch
    weight by the kernel amplitude at its distance from the center, and
    renormalizes.
    """
    if not (0 <= particle < state.n_particles):
        raise IndexError(f"particle index out of range (n_particles = {state.n_particles})")
    pre = state.probabilities
    k = int(draw_center_indices(pre, rng.random(1))[0])
    positions = state.positions[:, particle]
    center = float(positions[k])
    # the positions matrix is read-only, so the post-hit state shares it
    new_state = replace(state, weights=branch_hit_weights(state.weights, positions, center, kernel))
    event = CollapseEvent(
        time=time,
        particle=particle,
        center=center,
        kernel=kernel.label,
        selected_branch=state.labels[k],
        pre_weights=tuple(float(p) for p in pre),
        post_weights=tuple(float(p) for p in new_state.probabilities),
    )
    return new_state, event


def run_grw(
    initial: WaveFunction1D | BranchedState,
    duration: float,
    kernel: CollapseKernel,
    params: PhysicsParams,
    rng: RngStream,
    potential: Potential1D | None = None,
    dt: float | None = None,
) -> tuple[WaveFunction1D | BranchedState, list[CollapseEvent]]:
    """Alternate unitary evolution and hits at sampled exponential times.

    Grid states free-evolve exactly between hits (or by Strang steps of size
    dt when a potential is supplied), both through ``evolve``, which warns
    with BoundaryContamination when density reaches the box edges; branched
    states evolve trivially (positions fixed).  The event log is complete,
    time-ordered, and fully reproducible from the stream's seed.  Draw order
    per hit: waiting time, then hit particle (branched states only), then
    branch or center.
    """
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")

    if isinstance(initial, BranchedState):
        n = initial.n_particles

        def advance(state: BranchedState, interval: float) -> BranchedState:
            return state

        def hit(state: BranchedState, t: float) -> tuple[BranchedState, CollapseEvent]:
            return apply_branch_hit(state, int(rng.integers(n)), kernel, rng, time=t)

    else:
        if potential is not None and dt is None:
            raise ValueError("dt is required when evolving with a potential")
        n = 1

        def advance(psi: WaveFunction1D, interval: float) -> WaveFunction1D:
            if interval == 0.0:
                return psi
            # with no potential, evolve takes one exact free step
            n_steps = 1 if potential is None else max(1, int(round(interval / dt)))
            return evolve(psi, potential, params, interval / n_steps, n_steps)

        def hit(psi: WaveFunction1D, t: float) -> tuple[WaveFunction1D, CollapseEvent]:
            center = sample_center(psi, kernel, rng)
            event = CollapseEvent(time=t, particle=0, center=center, kernel=kernel.label)
            return apply_hit(psi, center, kernel), event

    state, t, events = initial, 0.0, []
    while True:
        wait = sample_hit_time(n, params, rng)
        if t + wait > duration:
            return advance(state, duration - t), events
        state = advance(state, wait)
        t += wait
        state, event = hit(state, t)
        events.append(event)


__all__ = [
    "GaussianKernel",
    "CompactSupportKernel",
    "IdealKernel",
    "CollapseKernel",
    "CollapseEvent",
    "RngStream",
    "KERNELS",
    "hit_rate",
    "sample_hit_time",
    "sample_center",
    "draw_center_indices",
    "apply_hit",
    "apply_branch_hit",
    "branch_hit_weights",
    "run_grw",
]
