"""Matter-density ontology and tails diagnostics.

The matter density M(x) is the mass-weighted probability density defined by
the state: for a one-particle grid wavefunction it is m |psi(x)|^2; for a
branched state it is the Born-weighted sum of per-particle mass bumps
rendered at the branch positions.  On top of it sit the diagnostics that
make tails quantitative: region mass fractions with a fuzzy location
verdict, a scale-invariant structural-similarity score, the analytic
tail-peak displacement under a Gaussian hit, and the energy ledger of hits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collapse import (
    CollapseKernel,
    GaussianKernel,
    RngStream,
    _profile_spectrum,
    apply_hit,
    draw_center_indices,
)
from .errors import (
    DegenerateRegionError,
    MassMismatchError,
    ZeroNormError,
    ZeroProfileError,
)
from .propagator import Potential1D, _kinetic_energies
from .state import (
    NORM_FLOOR,
    BranchedState,
    Grid1D,
    PhysicsParams,
    WaveFunction1D,
    mod_square_density,
    momentum_representation,
)

LOCATED_INSIDE = "located_inside"
LOCATED_OUTSIDE = "located_outside"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class MatterDensityField:
    """Non-negative matter density on a grid; integrates to the total mass."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {v.shape} does not match grid ({self.grid.n_points} points)"
            )
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("matter density must be finite and non-negative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.values) * self.grid.dx)


@dataclass(frozen=True)
class FuzzyLinkVerdict:
    """Location verdict for a region at threshold parameter q.

    located_inside iff fraction_inside > 1 - q; located_outside iff
    fraction_inside < q; indeterminate otherwise.  q has no principled
    value and is always reported alongside the verdict.
    """

    region: tuple[float, float]
    fraction_inside: float
    q: float
    verdict: str


def _check_region(region: tuple[float, float]) -> tuple[float, float]:
    lo, hi = float(region[0]), float(region[1])
    if not (hi > lo):
        raise DegenerateRegionError(f"region [{lo}, {hi}] is empty")
    return lo, hi


def matter_density(
    state: WaveFunction1D | BranchedState,
    masses: list[float] | np.ndarray,
    grid: Grid1D | None = None,
) -> MatterDensityField:
    """Mass-weighted density field of a state.

    Grid states give m |psi(x)|^2.  Branched states render each particle of
    each branch as a normalized Gaussian bump of width ``branch_width`` at
    its position, weighted by the branch Born weight; a rendering grid must
    be supplied.  Either way the field integrates to the total mass.
    """
    masses = np.asarray(masses, dtype=np.float64)
    if isinstance(state, WaveFunction1D):
        if masses.size != 1:
            raise MassMismatchError(
                f"grid state holds one particle, got {masses.size} masses"
            )
        return MatterDensityField(state.grid, masses[0] * mod_square_density(state))

    if masses.size != state.n_particles:
        raise MassMismatchError(
            f"expected {state.n_particles} masses, got {masses.size}"
        )
    if grid is None:
        raise ValueError("a rendering grid is required for branched states")
    values = np.zeros(grid.n_points)
    width = state.branch_width
    for prob, row in zip(state.probabilities, state.positions):
        if prob == 0.0:
            continue
        for mass, position in zip(masses, row):
            d = grid.wrap(grid.points - position)
            bump = np.exp(-(d**2) / (2.0 * width**2))
            # normalize on the grid so the mass ledger is exact at any resolution
            bump /= np.sum(bump) * grid.dx
            values += prob * mass * bump
    return MatterDensityField(grid, values)


def _density_on_grid(
    target: WaveFunction1D | MatterDensityField,
) -> tuple[Grid1D, np.ndarray]:
    if isinstance(target, WaveFunction1D):
        return target.grid, mod_square_density(target)
    return target.grid, target.values


def region_fraction(
    target: WaveFunction1D | MatterDensityField, region: tuple[float, float]
) -> float:
    """Fraction of the total (mod-square or matter) density inside [lo, hi]."""
    lo, hi = _check_region(region)
    grid, density = _density_on_grid(target)
    total = float(np.sum(density))
    if total <= 0:
        raise ZeroProfileError("density vanishes everywhere")
    inside = float(np.sum(density[grid.region_mask((lo, hi))]))
    return inside / total


def fuzzy_link(
    target: WaveFunction1D | MatterDensityField,
    region: tuple[float, float],
    q: float,
) -> FuzzyLinkVerdict:
    """Assign a location verdict from the region's density fraction.

    Works on the mod-square density of a wavefunction or on a matter
    density field.  Requires 0 < q < 0.5, which makes the three verdicts
    mutually exclusive and exhaustive.
    """
    if not (0.0 < q < 0.5):
        raise ValueError(f"q must lie in (0, 0.5), got {q}")
    fraction = region_fraction(target, region)
    if fraction > 1.0 - q:
        verdict = LOCATED_INSIDE
    elif fraction < q:
        verdict = LOCATED_OUTSIDE
    else:
        verdict = INDETERMINATE
    return FuzzyLinkVerdict(
        region=(float(region[0]), float(region[1])),
        fraction_inside=fraction,
        q=q,
        verdict=verdict,
    )


def tail_mass(psi: WaveFunction1D, region: tuple[float, float]) -> float:
    """Mod-square fraction outside [lo, hi].

    Exact zeros are preserved: a state whose amplitudes vanish identically
    outside the region reports exactly 0.0.
    """
    lo, hi = _check_region(region)
    density = mod_square_density(psi)
    outside = ~psi.grid.region_mask((lo, hi))
    return float(np.sum(density[outside]) * psi.grid.dx)


def isomorphism_score(profile_a: np.ndarray, profile_b: np.ndarray) -> float:
    """Translation-maximized normalized cross-correlation of two profiles.

    Both profiles are unit-normalized (l2) and compared over all cyclic
    translations; the score is 1 exactly when one profile is a translate of
    the other up to positive scale, which makes the score invariant under
    rescaling either input.  Inputs are non-negative density profiles of
    equal length.
    """
    a = np.asarray(profile_a, dtype=np.float64)
    b = np.asarray(profile_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"profiles must be 1-d and equal length, got {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na <= 0 or nb <= 0:
        raise ZeroProfileError("profiles must have positive norm")
    correlation = np.fft.ifft(np.fft.fft(a / na) * np.conj(np.fft.fft(b / nb))).real
    return float(np.max(correlation))


def displaced_tail_center(
    tail_center: float, collapse_center: float, tail_width: float, sigma: float
) -> float:
    """New tail-peak position after a Gaussian hit.

    Multiplying a Gaussian packet at y (width s) by a Gaussian hit at x
    (width sigma) yields a packet peaked at
    u* = (y sigma^2 + x s^2) / (sigma^2 + s^2): the tail peak moves toward
    the collapse center, all the way to the midpoint when s = sigma.
    """
    if tail_width <= 0 or sigma <= 0:
        raise ValueError("tail_width and sigma must be positive")
    s2, g2 = tail_width**2, sigma**2
    # written as a step from y toward x: y sigma^2 would overflow or
    # underflow long before the result does
    return tail_center + (collapse_center - tail_center) * (s2 / (g2 + s2))


def peak_position(grid: Grid1D, density: np.ndarray) -> float:
    """Grid coordinate of the density argmax."""
    return float(grid.points[int(np.argmax(np.asarray(density, dtype=np.float64)))])


def energy_expectation(
    psi: WaveFunction1D, params: PhysicsParams, potential: Potential1D | None = None
) -> float:
    """<H> = sum_k (hbar^2 k^2 / 2m) |psi_k|^2 dx + sum_i V_i |psi_i|^2 dx."""
    grid = psi.grid
    energies, mirror = _kinetic_energies(grid, params)
    psi_k = momentum_representation(psi)
    kinetic = float(np.sum(params.hbar * energies[mirror] * np.abs(psi_k) ** 2) * grid.dx)
    if potential is None:
        return kinetic
    if potential.grid != grid:
        raise ValueError("potential and state must share one grid")
    return kinetic + float(np.sum(potential.values * mod_square_density(psi)) * grid.dx)


def post_hit_gains(
    psi: WaveFunction1D,
    kernel: CollapseKernel,
    params: PhysicsParams,
    rng: RngStream,
    n_trials: int,
) -> np.ndarray:
    """Kinetic <H> after a hit minus <H> before, at ``n_trials`` drawn centers.

    Centers are drawn from the center density exactly as ``sample_center``
    draws them.  For a Gaussian resolved by the grid (sigma >= 2 dx, the rule
    of ``scenarios._resolves_widths``) with normalized amplitude kernel g,
    by parts on the periodic box the integral of |(g psi)'|^2 is that of
    g^2 |psi'|^2 + h rho with h = -g g'', so the energy at every center z is

        E(z) = (hbar^2 / 2m) [C(|psi'|^2, g^2) + C(rho, h)] / C(rho, g^2)

    with C(a, f)(z) = sum_x a(x) f(x - z) dx, psi' the spectral derivative
    and C(rho, g^2) the center density.  Since h = -(g^2)''/4 + g^2/(4 sigma^2),
    its spectrum is that of g^2 (the (kernel, grid) entry of
    ``collapse._profile_spectrum``) times k^2/4 + 1/(4 sigma^2).  rfft(rho)
    feeds both correlations with rho and E(before) is
    (hbar^2 / 2m) sum |psi'|^2 dx, so a call runs 1 fft, 1 ifft, 2 rfft and
    2 irfft whatever n_trials.  An unresolved Gaussian, whose closed form
    drifts from the per-hit energies below about 1.3 dx, and any other
    kernel apply and price each hit.
    """
    grid = psi.grid
    rho = mod_square_density(psi)
    if not (isinstance(kernel, GaussianKernel) and kernel.sigma >= 2.0 * grid.dx):
        before = energy_expectation(psi, params)
        indices = draw_center_indices(kernel.center_density(rho, grid), rng.random(n_trials))
        hits = (apply_hit(psi, float(grid.points[i]), kernel) for i in indices)
        return np.array([energy_expectation(hit, params) for hit in hits]) - before
    rho_spectrum = np.fft.rfft(rho)
    density = kernel.center_density_from_spectrum(rho_spectrum, grid)
    indices = draw_center_indices(density, rng.random(n_trials))
    norms = density[indices]
    if np.any(norms < NORM_FLOOR):
        z = float(grid.points[indices[np.argmin(norms)]])
        raise ZeroNormError(f"hit at z = {z!r} with {kernel.label} annihilated the state")
    k = grid.wavenumbers
    d_density = np.abs(np.fft.ifft(1j * k * np.fft.fft(psi.amplitudes))) ** 2
    # circular convolutions with profiles indexed by z - x, as in center_density
    by_parts = np.square(k[: grid.n_points // 2 + 1]) / 4.0 + 1.0 / (4.0 * kernel.sigma**2)
    spectrum = np.fft.rfft(d_density) + rho_spectrum * by_parts
    spectrum *= _profile_spectrum(kernel, grid)
    numerator = np.fft.irfft(spectrum, grid.n_points)
    scale = params.hbar**2 / (2.0 * params.mass) * grid.dx
    return scale * (numerator[indices] / norms - float(np.sum(d_density)))


def energy_gain_per_hit(
    psi: WaveFunction1D,
    kernel: CollapseKernel,
    params: PhysicsParams,
    rng: RngStream,
    n_trials: int,
) -> tuple[float, float]:
    """Mean and spread of E(after hit) - E(before) over sampled centers.

    The gains are ``post_hit_gains``: a GaussianKernel of sigma >= 2 dx
    prices all centers at once by parts (one spectral derivative, one rfft
    of rho); a narrower one and any other kernel price each hit.

    For a GaussianKernel the Born-averaged gain is hbar^2 / (8 m sigma^2)
    for any state (hbar^2 / (4 m r_C^2) with r_C = sqrt(2) sigma): the
    center density cancels in the mean, which leaves E(before) plus
    (hbar^2 / 2m) times the integral of h = -g g'', the k = 0 value
    1 / (4 sigma^2) of its spectrum's factor k^2/4 + 1/(4 sigma^2).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    gains = post_hit_gains(psi, kernel, params, rng, n_trials)
    return float(np.mean(gains)), float(np.std(gains))
