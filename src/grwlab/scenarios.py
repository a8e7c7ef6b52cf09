"""Reproducible seeded experiments, one per concrete physical situation.

Each scenario packages a situation into a runnable unit returning a
ScenarioResult: summary statistics (with the statistical half-widths used
by any check), pass/fail verdicts, and plot-ready series.  The parameters
a run used, and only those, are its resolved config, written beside the
result.  Results are deterministic per seed; each ensemble trial draws
from its own Philox counter block, so ensembles are order-independent.

``SCENARIOS`` at the end of the module is the registry: one spec per
scenario declaring its description, physics fields, grid, params fields
(parser, default, bound), cross-field rules, and how the command line calls it.

Scenario defaults assume scaled desk units (hbar = m = 1, sigma order 1):
the SI per-particle rate produces no events on any human timescale, which
is the point of the rate-amplification arithmetic in measurement_chain.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .collapse import (
    KERNELS,
    CompactSupportKernel,
    CollapseKernel,
    GaussianKernel,
    RngStream,
    apply_branch_hit,
    apply_hit,
    branch_hit_weights,
    draw_center_indices,
    hit_rate,
)
from .errors import BoundaryContamination, ConfigError, GridTooCoarseError, NotNormalizedError
from .ontology import (
    displaced_tail_center,
    fuzzy_link,
    isomorphism_score,
    matter_density,
    peak_position,
    region_fraction,
    tail_mass,
)
from .propagator import BOUNDARY_DENSITY_LIMIT, boundary_density, evolve_free
from .state import (
    NORM_TOL,
    BranchedState,
    Grid1D,
    PhysicsParams,
    WaveFunction1D,
    gaussian_packet,
    mod_square_density,
    superposition,
)


@dataclass
class Series:
    """A plot-ready table: column (name, dimension) pairs plus one 1-D array
    per column, all of one length.  A column's dtype sets its CSV text."""

    columns: list[tuple[str, str]]
    data: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.data) != len(self.columns) or len({len(c) for c in self.data}) > 1:
            raise ValueError(f"Series: expected {len(self.columns)} columns of one length")


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario run."""

    name: str
    summary: dict = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    series: dict[str, Series] = field(default_factory=dict)


def _closure_check(a: complex, b: complex) -> tuple[float, float]:
    p, q = abs(a) ** 2, abs(b) ** 2
    if abs(p + q - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"|a|^2 + |b|^2 = {p + q!r}, expected 1")
    return p, q


def _cyclic_window(density: np.ndarray, grid: Grid1D, center: float, half_cells: int) -> np.ndarray:
    """Equal-length density window around a grid position (cyclic indexing)."""
    i = grid.nearest_index(center)
    idx = np.arange(i - half_cells, i + half_cells + 1) % grid.n_points
    return density[idx]


def _evolve_free_in_box(psi: WaveFunction1D, params: PhysicsParams, dt: float) -> WaveFunction1D:
    """Free evolution by dt that raises BoundaryContamination, rather than
    return a state whose density reaches the periodic box's edges."""
    evolved = evolve_free(psi, params, dt)
    leaked = boundary_density(evolved)
    if leaked > BOUNDARY_DENSITY_LIMIT:
        raise BoundaryContamination(
            f"density {leaked:.3e} at the box edges after dt = {dt}; "
            "the packet no longer fits well inside the box"
        )
    return evolved


def measurement_chain(
    a: complex,
    b: complex,
    n_pointer: int,
    separation: float,
    kernel: CollapseKernel,
    params: PhysicsParams,
    n_trials: int,
    seed: int,
) -> ScenarioResult:
    """Microscopic superposition amplified into an n_pointer-particle device.

    Builds the two-branch device state (pointer displaced by ``separation``
    between outcomes), lets the first spontaneous hit decide the outcome in
    each trial, and reports branch-selection frequencies against the Born
    weights, the per-hit tail weight against its closed form, and first-hit
    times against 1/(n_pointer * lam).
    """
    p0, p1 = _closure_check(a, b)
    if n_pointer < 1:
        raise ValueError(f"n_pointer must be >= 1, got {n_pointer}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if separation <= 0:
        raise ValueError(f"separation must be positive, got {separation}")

    state = BranchedState.from_amplitudes(
        [a, b],
        ["0", "1"],
        [np.zeros(n_pointer), separation * np.ones(n_pointer)],
        branch_width=separation / 20.0,
    )
    rate = hit_rate(n_pointer, params)
    suppression = float(kernel.amplitude_factor(np.array([separation]))[0])
    f2 = suppression**2
    # closed-form post-hit tail weight, by which branch was selected; null
    # where the denominator is 0, for a branch of zero weight
    tail_if_0 = p1 * f2 / (p0 + p1 * f2) if p0 + p1 * f2 > 0 else None
    tail_if_1 = p0 * f2 / (p1 + p0 * f2) if p1 + p0 * f2 > 0 else None

    # One Philox counter block per trial: (wait, hit particle, branch, unused).
    # Every pointer particle of a branch sits at one position, so the hit
    # particle does not change the outcome and its draw goes unused.
    u = RngStream.trial_uniforms(seed, n_trials)
    times = np.log1p(-u[:, 0])
    times /= -rate
    cdf = np.cumsum(state.probabilities)
    selected = np.searchsorted(cdf, u[:, 2] * cdf[-1], side="right")
    del u  # the largest array: four doubles a trial, and nothing below reads it
    np.minimum(selected, state.n_branches - 1, out=selected)
    # The post-hit tail weight depends only on the selected branch.  A branch
    # no trial selects (one of zero weight, say) is skipped.
    counts = np.bincount(selected, minlength=state.n_branches)
    positions = state.positions[:, 0]
    tail_by_branch = np.zeros(state.n_branches)
    for k in np.flatnonzero(counts):
        weights = branch_hit_weights(state.weights, positions, positions[k], kernel)
        tail_by_branch[k] = 1.0 - (np.abs(weights) ** 2)[k]
    tails = tail_by_branch[selected]

    frequency_0 = int(counts[0]) / n_trials
    half_width = 3.0 * math.sqrt(p0 * (1.0 - p0) / n_trials)
    mean_hit_time = float(np.mean(times))
    expected_hit_time = 1.0 / rate
    mean_tail = float(np.mean(tails))
    # a null closed form reads as nan, for a branch that no trial selects
    closed_form = np.array([tail_if_0, tail_if_1], dtype=float)[selected]
    tail_deviation = float(np.max(np.abs(tails - closed_form)))

    summary = {
        "n_trials": n_trials,
        "hit_rate": rate,
        "selection_frequency_0": frequency_0,
        "born_weight_0": p0,
        "binomial_half_width_3sigma": half_width,
        "mean_first_hit_time": mean_hit_time,
        "expected_first_hit_time": expected_hit_time,
        "mean_tail_weight": mean_tail,
        "closed_form_tail_weight_if_0": tail_if_0,
        "closed_form_tail_weight_if_1": tail_if_1,
        "max_tail_deviation_from_closed_form": tail_deviation,
    }
    verdicts = {
        "born_frequency_within_3sigma": abs(frequency_0 - p0) <= half_width,
        "mean_hit_time_within_5pct": abs(mean_hit_time - expected_hit_time)
        <= 0.05 * expected_hit_time,
        "tail_weight_matches_closed_form": tail_deviation < 1e-12,
    }
    series = {
        "trials": Series(
            columns=[
                ("trial", "count"),
                ("first_hit_time", "time"),
                ("selected_branch", "label"),
                ("tail_weight", "fraction"),
            ],
            data=(np.arange(n_trials), times, np.asarray(state.labels)[selected], tails),
        )
    }
    return ScenarioResult(
        name="measurement_chain",
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


def marble_in_box(
    inside_weight: float,
    box: tuple[float, float],
    q: float,
    kernel: CollapseKernel,
    seed: int,
) -> ScenarioResult:
    """A marble in superposition of inside / outside a box.

    Renders the matter density of the two-branch state, reports the matter
    fraction outside the box, the fuzzy-link location verdict at threshold
    q, and the structural-similarity score between the inside and outside
    branch profiles (translates of one another, whatever their weights).
    One seeded hit is then applied to show the post-hit sharpening.
    """
    if not (0.0 < inside_weight < 1.0):
        raise ValueError(f"inside_weight must lie in (0, 1), got {inside_weight}")
    lo, hi = float(box[0]), float(box[1])
    span = hi - lo
    if span <= 0:
        raise ValueError(f"box [{lo}, {hi}] is empty")

    # render grid: 4 box-spans wide, branch bumps well separated from edges
    grid = Grid1D(lo - 1.5 * span, hi + 1.5 * span, 1024)
    inside_pos = lo + 0.5 * span
    outside_pos = hi + span
    width = span / 16.0
    marble_mass = 1.0

    state = BranchedState.from_amplitudes(
        [math.sqrt(inside_weight), math.sqrt(1.0 - inside_weight)],
        ["inside", "outside"],
        [np.array([inside_pos]), np.array([outside_pos])],
        branch_width=width,
    )
    density = matter_density(state, [marble_mass], grid)
    fraction_outside = 1.0 - region_fraction(density, (lo, hi))
    verdict = fuzzy_link(density, (lo, hi), q)

    def branch_profile(label: str) -> np.ndarray:
        index = state.labels.index(label)
        solo = BranchedState.from_amplitudes(
            [1.0], [label], [state.positions[index]], branch_width=width
        )
        return matter_density(solo, [marble_mass], grid).values

    profile_in = branch_profile("inside")
    profile_out = branch_profile("outside")
    score = isomorphism_score(profile_in, profile_out)

    rng = RngStream(seed)
    post_state, event = apply_branch_hit(state, 0, kernel, rng)
    post_density = matter_density(post_state, [marble_mass], grid)
    post_fraction_outside = 1.0 - region_fraction(post_density, (lo, hi))
    post_verdict = fuzzy_link(post_density, (lo, hi), q)

    summary = {
        "matter_fraction_outside": fraction_outside,
        "fuzzy_link": asdict(verdict),
        "isomorphism_inside_vs_outside": score,
        "post_hit": {
            "selected_branch": event.selected_branch,
            "matter_fraction_outside": post_fraction_outside,
            "fuzzy_link": asdict(post_verdict),
        },
    }
    verdicts = {
        "matter_ledger_matches_weights": abs(fraction_outside - (1.0 - inside_weight)) < 1e-9,
        "profiles_are_translates": score > 1.0 - 1e-9,
        "located_inside": verdict.verdict == "located_inside",
    }
    series = {
        "matter_density": Series(
            columns=[
                ("x", "length"),
                ("matter_density", "mass_per_length"),
                ("inside_branch", "mass_per_length"),
                ("outside_branch", "mass_per_length"),
            ],
            data=(grid.points, density.values, profile_in, profile_out),
        )
    }
    return ScenarioResult(
        name="marble_in_box",
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


def billiard_collision(a: complex, b: complex) -> ScenarioResult:
    """Two balls, each in a two-way superposition, after a possible collision.

    The post-collision state has four decohered sectors with amplitude
    coefficients (a^2, b^2, ab, ab): two genuine-collision sectors and two
    pass-through sectors.  Sector mod-square weights close algebraically,
    (|a|^2 + |b|^2)^2 = 1.  A sector counts as high-density when its weight
    exceeds all others combined (a reported classification, not a law).
    """
    p, q = _closure_check(a, b)
    labels = [
        "rebound_from_P",
        "rebound_from_Q",
        "pass_through_A",
        "pass_through_B",
    ]
    # schematic ball coordinates: collision points P = +1, Q = -1
    positions = [
        np.array([1.0, 1.0]),
        np.array([-1.0, -1.0]),
        np.array([-1.0, 1.0]),
        np.array([1.0, -1.0]),
    ]
    amplitudes = [a * a, b * b, a * b, a * b]
    state = BranchedState.from_amplitudes(amplitudes, labels, positions, branch_width=0.2)
    weights = [float(w) for w in state.probabilities]
    classification = {
        label: ("high_density" if w > 1.0 - w else "low_density")
        for label, w in zip(labels, weights)
    }
    # "much greater" has no principled cutoff; the ratio is reported and the
    # flag uses a 4:1 threshold
    dominance_ratio = p / q if q > 0 else math.inf
    dominance_met = dominance_ratio >= 4.0
    summary = {
        "sector_weights": dict(zip(labels, weights)),
        "weights_sum": float(sum(weights)),
        "classification": classification,
        # JSON has no infinity: when q is 0 (or p / q overflows) the ratio is null
        "dominance_ratio": dominance_ratio if math.isfinite(dominance_ratio) else None,
        "dominance_assumed_ok": dominance_met,
        "dominance_threshold_ratio": 4.0,
    }
    verdicts = {
        "weights_close": abs(sum(weights) - 1.0) < 1e-12,
        "dominance_assumption_met": dominance_met,
    }
    series = {
        "sectors": Series(
            columns=[("sector", "label"), ("weight", "fraction"), ("class", "label")],
            data=tuple(map(np.asarray, (labels, weights, list(classification.values())))),
        )
    }
    return ScenarioResult(
        name="billiard_collision",
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


def wallace_displacement(
    x: float, y: float, s: float, sigma: float, grid: Grid1D
) -> ScenarioResult:
    """Displacement of a tail peak toward the collapse center.

    Builds an equal superposition of Gaussian packets at x and y (width s),
    applies a Gaussian hit of width sigma centered at x, and measures the
    argmax of the resulting tail lobe (the hit-multiplied y-packet).  The
    analytic peak sits at u* = (y sigma^2 + x s^2) / (sigma^2 + s^2); the
    grid measurement must agree to within one cell.
    """
    if x == y:
        raise ValueError("x and y must differ")
    if s <= 0 or sigma <= 0:
        raise ValueError("widths must be positive")
    packet_center = gaussian_packet(grid, x, s)
    packet_tail = gaussian_packet(grid, y, s)
    psi = superposition([(1.0 / math.sqrt(2), packet_center), (1.0 / math.sqrt(2), packet_tail)])
    kernel = GaussianKernel(sigma)
    post = apply_hit(psi, x, kernel)

    # tail lobe = the y-component under the same multiplicative hit
    tail_component = np.abs(kernel.localize(packet_tail, x)) ** 2
    center_component = np.abs(kernel.localize(packet_center, x)) ** 2

    analytic = displaced_tail_center(y, x, s, sigma)
    numeric = peak_position(grid, tail_component)
    difference = numeric - analytic
    if abs(difference) > 2.0 * grid.dx:
        raise GridTooCoarseError(
            f"tail-peak argmax {numeric} vs analytic {analytic}: "
            f"off by {abs(difference) / grid.dx:.1f} cells"
        )

    mid = 0.5 * (x + y)
    center_region = (min(grid.x_min - grid.dx, x), mid) if x < y else (mid, grid.x_max)
    tail_weight = tail_mass(post, center_region)
    rho = mod_square_density(post)

    summary = {
        "analytic_peak": analytic,
        "numeric_peak": numeric,
        "difference": difference,
        "difference_cells": difference / grid.dx,
        "displacement": analytic - y,
        "tail_weight": tail_weight,
        "tail_isomorphism": isomorphism_score(center_component, tail_component),
        "fuzzy_link_center_region": asdict(fuzzy_link(post, center_region, 0.1)),
    }
    verdicts = {
        "peak_within_one_cell": abs(difference) <= grid.dx * (1.0 + 1e-9),
        "displaced_toward_center": (analytic - y) * (x - y) > 0,
    }
    series = {
        "post_hit_density": Series(
            columns=[
                ("x", "length"),
                ("density", "per_length"),
                ("tail_component", "per_length"),
            ],
            data=(grid.points, rho, tail_component),
        )
    }
    return ScenarioResult(
        name="wallace_displacement",
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


def hegerfeldt_regrowth(
    window: float, dt_list: list[float], params: PhysicsParams, grid: Grid1D
) -> ScenarioResult:
    """Instantaneous tail regrowth of a strictly localized packet.

    Truncates a Gaussian of width params.sigma to |x| <= window (a fresh
    compact-support hit), free-evolves for each dt, and reports the
    probability mass outside the support window: exactly zero at dt = 0,
    strictly positive at every dt > 0, and growing over small dt.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if not dt_list:
        raise ValueError("dt_list must be non-empty")
    if any(dt < 0 for dt in dt_list) or len(set(dt_list)) < len(dt_list):
        raise ValueError("dt values must be distinct and >= 0")

    center = float(grid.points[grid.n_points // 2])
    packet = gaussian_packet(grid, center, params.sigma)
    truncated = apply_hit(packet, center, CompactSupportKernel(params.sigma, window))
    support = (center - window, center + window)

    rows = []
    for dt in dt_list:
        evolved = _evolve_free_in_box(truncated, params, dt)
        rows.append([float(dt), tail_mass(evolved, support)])

    positive = sorted((dt, tm) for dt, tm in rows if dt > 0)
    first = positive[: min(5, len(positive))]
    monotone = all(first[i][1] < first[i + 1][1] for i in range(len(first) - 1))
    zero_rows = [tm for dt, tm in rows if dt == 0.0]

    summary = {
        "window": window,
        "packet_width": params.sigma,
        "tail_mass_by_dt": {repr(dt): tm for dt, tm in rows},
        "smallest_positive_dt": positive[0][0] if positive else None,
        "tail_at_smallest_dt": positive[0][1] if positive else None,
    }
    verdicts = {
        "zero_at_dt_zero": all(tm == 0.0 for tm in zero_rows),
        "positive_at_smallest_dt": bool(positive) and positive[0][1] > 1e-10,
        "monotone_over_first_5": monotone,
    }
    series = {
        "tail_mass": Series(
            columns=[("dt", "time"), ("tail_mass", "fraction")],
            data=tuple(map(np.array, zip(*rows))),
        )
    }
    return ScenarioResult(
        name="hegerfeldt_regrowth",
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


def kernel_dilemma(
    params: PhysicsParams,
    window: float,
    grid: Grid1D,
    separation: float,
    packet_width: float,
    regrow_dt: float,
    seed: int,
) -> ScenarioResult:
    """The two-column trade-off between Gaussian and compact-support hits.

    The same two-packet superposition takes one hit under each kernel of
    width params.sigma (the compact one truncated at |x - z| <= window),
    centered on the Born-selected packet (one draw, shared by both columns
    for comparability).  Gaussian column: a persistent tail that is a
    near-exact structural copy of the collapse center.  Compact column: the
    tail is exactly zero immediately after the hit, but free evolution
    regrows mass outside the window instantly, and the regrown tail carries
    none of the center's structure.
    """
    gaussian_kernel = GaussianKernel(params.sigma)
    compact_kernel = CompactSupportKernel(params.sigma, window)
    if window >= separation / 2.0:
        raise ValueError("compact window must be smaller than half the separation")

    packet_0 = gaussian_packet(grid, 0.0, packet_width)
    packet_1 = gaussian_packet(grid, separation, packet_width)
    psi = superposition([(1.0 / math.sqrt(2), packet_0), (1.0 / math.sqrt(2), packet_1)])

    rng = RngStream(seed)
    selected = int(draw_center_indices(np.array([0.5, 0.5]), rng, 1)[0])
    z = 0.0 if selected == 0 else separation
    far = separation if selected == 0 else 0.0
    mid = separation / 2.0
    center_region = (
        (grid.x_min - grid.dx, mid) if z < far else (mid, grid.x_max + grid.dx)
    )
    half_cells = int(round(3.0 * params.sigma / grid.dx))

    def structure(rho: np.ndarray) -> float:
        """Isomorphism score of the +-3 sigma windows at the centre and the far packet."""
        return isomorphism_score(
            _cyclic_window(rho, grid, z, half_cells),
            _cyclic_window(rho, grid, far, half_cells),
        )

    gaussian_post = apply_hit(psi, z, gaussian_kernel)
    gaussian_rho = mod_square_density(gaussian_post)
    compact_post = apply_hit(psi, z, compact_kernel)
    compact_rho = mod_square_density(compact_post)
    regrown = _evolve_free_in_box(compact_post, params, regrow_dt)
    regrown_rho = mod_square_density(regrown)

    gaussian = {
        "kernel": gaussian_kernel.label,
        "post_hit_tail_weight": tail_mass(gaussian_post, center_region),
        "tail_isomorphism": structure(gaussian_rho),
    }
    compact = {
        "kernel": compact_kernel.label,
        "post_hit_tail_weight": tail_mass(compact_post, center_region),
        "regrown_mass_outside_window": tail_mass(regrown, (z - window, z + window)),
        "tail_weight_after_regrowth": tail_mass(regrown, center_region),
        "regrown_tail_isomorphism": structure(regrown_rho),
        "regrow_dt": regrow_dt,
    }
    summary = {
        "selected_branch": selected,
        "collapse_center": z,
        "gaussian": gaussian,
        "compact_support": compact,
    }
    verdicts = {
        "gaussian_tail_persists": gaussian["post_hit_tail_weight"] > 0.0,
        "gaussian_tail_isomorphic": gaussian["tail_isomorphism"] > 0.99,
        "compact_tail_exactly_zero": compact["post_hit_tail_weight"] == 0.0,
        "compact_tail_regrows": compact["regrown_mass_outside_window"] > 0.0,
        "compact_structure_below_gaussian": compact["regrown_tail_isomorphism"]
        < gaussian["tail_isomorphism"],
    }
    series = {
        "profiles": Series(
            columns=[
                ("x", "length"),
                ("gaussian_post_density", "per_length"),
                ("compact_post_density", "per_length"),
                ("compact_regrown_density", "per_length"),
            ],
            data=(grid.points, gaussian_rho, compact_rho, regrown_rho),
        )
    }
    return ScenarioResult(
        name="kernel_dilemma",
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


# Registry.  Config values are parsed by (field name, raw value) -> value
# functions that raise ConfigError naming the field.


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _finite_floats(value) -> list[float] | None:
    """A list of finite numbers as floats; None for anything else."""
    if isinstance(value, list) and all(_is_finite_number(v) for v in value):
        return [float(v) for v in value]
    return None


def parse_number(name: str, value) -> float:
    if not _is_finite_number(value):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


def parse_integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _parse_amplitude(name: str, value) -> list[float]:
    """A real number or an [re, im] pair, resolved to [re, im]."""
    pair = _finite_floats(value if isinstance(value, list) else [value, 0.0])
    if pair is None or len(pair) != 2:
        raise ConfigError(f"{name}: expected a finite number or [re, im] pair, got {value!r}")
    return pair


def _parse_interval(name: str, value) -> list[float]:
    box = _finite_floats(value)
    if box is None or len(box) != 2 or box[1] <= box[0]:
        raise ConfigError(f"{name}: expected finite [lo, hi] with hi > lo, got {value!r}")
    return box


def _parse_dt_list(name: str, value) -> list[float]:
    dts = _finite_floats(value)
    # a set holds 0.0 and -0.0 as one time
    if not dts or min(dts) < 0 or len(set(dts)) < len(dts):
        raise ConfigError(
            f"{name}: expected a non-empty list of distinct finite dt >= 0, got {value!r}"
        )
    return dts


POSITIVE = (lambda v: v > 0, "must be positive")
# The positive physics numbers and the packet widths: the square of each,
# and the product of any two, stay finite normal floats.
MAGNITUDE = (lambda v: 1e-150 <= v <= 1e150, "must be in [1e-150, 1e150]")
# marble_in_box renders on [lo - 1.5 span, hi + 1.5 span) with bumps of
# width span / 16.  Within these spans its bump exponents (d / width)^2,
# |d| <= 2 span, and the squared profile norms that isomorphism_score takes
# (about 10^3 / span^2) stay finite normal floats.  Far from the origin the
# render grid's spacing, span / 256, falls below the float spacing of its
# coordinates; the first wrong verdict was seen at |lo| / span = 1e11
# (README), and the bound on max(|lo|, |hi|) keeps 1000x below that.
_BOX_SPAN = (
    lambda box: 1e-150 <= box[1] - box[0] <= 1e150
    and max(abs(box[0]), abs(box[1])) <= 1e8 * (box[1] - box[0]),
    "hi - lo must be in [1e-150, 1e150] and at least max(|lo|, |hi|) / 1e8",
)
# measurement_chain's sizes: its arrays grow with both, and one CLI run at
# both caps peaks near 110 MiB RSS (README)
_ENSEMBLE_SIZE = (lambda n: 1 <= n <= 10**6, "must be in [1, 10^6]")


@dataclass(frozen=True)
class Field:
    """One config field.  ``default`` is a value or a function of a dict: the
    section's context (for params, the resolved physics block) updated with
    the fields resolved before this one.  ``bound`` is a (predicate,
    message) pair checked on the parsed value."""

    parse: Callable[[str, object], object]
    default: object = None
    bound: tuple[Callable[[object], bool], str] | None = None

    def default_for(self, context):
        return self.default(context) if callable(self.default) else self.default


def reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        names = ", ".join(f"{where}.{key}" for key in unknown)
        raise ConfigError(f"{names}: unknown key; allowed keys are {sorted(allowed)}")


def resolve_fields(section, where: str, fields: dict[str, Field], context) -> dict:
    """Parse one config mapping: reject unknown keys, fill defaults, check bounds.

    A missing or null field takes its default; a None default stays None.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    reject_unknown(section, fields, where)
    resolved = {}
    for key, entry in fields.items():
        name, value = f"{where}.{key}", section.get(key)
        if value is None:
            value = entry.default_for(context | resolved)
        if value is not None:
            value = entry.parse(name, value)
            if entry.bound is not None and not entry.bound[0](value):
                raise ConfigError(f"{name}: {entry.bound[1]}, got {value}")
        resolved[key] = value
    return resolved


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything the command line knows about one scenario.

    ``physics``: the physics fields that ``run``, the ``fields`` defaults and
    ``check`` read whatever the kernel.  Where it holds "kernel", the
    configured kernel's dataclass fields (``collapse.KERNELS``) are accepted
    too, and no other physics field is.  ``grid``: the default grid,
    (half-width in units of sigma, n_points) centred on zero, or None for no
    grid.  ``check(params, physics, grid)`` raises ConfigError for rules that
    span fields; ``run(params, physics, grid, seed)`` calls the scenario.
    """

    description: str
    fields: dict[str, Field]
    run: Callable[[dict, dict, Grid1D | None, int], ScenarioResult]
    physics: tuple[str, ...] = ()
    check: Callable[[dict, dict, dict | None], None] | None = None
    grid: tuple[float, int] | None = None


def _physics_params(ph: dict) -> PhysicsParams:
    return PhysicsParams(**{k: ph[k] for k in ("hbar", "mass", "lam", "sigma") if k in ph})


def _kernel(physics: dict) -> CollapseKernel:
    kernel = KERNELS[physics["kernel"]]
    return kernel(**{f.name: physics[f.name] for f in fields(kernel)})


def _amplitudes_close(params: dict, physics: dict, grid: None) -> None:
    closure = abs(complex(*params["a"])) ** 2 + abs(complex(*params["b"])) ** 2
    if abs(closure - 1.0) > 1e-9:
        raise ConfigError(f"params.a/b: |a|^2 + |b|^2 = {closure!r}, must equal 1")


def _chain_fits_floats(params: dict, physics: dict, grid: None) -> None:
    _amplitudes_close(params, physics, grid)
    # A trial waits at most 53 ln 2 / rate (its uniform has 53 bits); the
    # summed waits of all trials, and so their mean, must stay finite.
    rate = hit_rate(params["n_pointer"], _physics_params(physics))
    if not (
        sys.float_info.min <= rate < math.inf
        and params["n_trials"] * 53 * math.log(2.0) / rate < math.inf
    ):
        raise ConfigError(
            f"physics.lam: the device rate params.n_pointer * physics.lam = {rate!r} must "
            "be a finite normal float with params.n_trials * 53 ln 2 / rate finite"
        )


def _centers_in_box(params: dict, physics: dict, grid: dict) -> None:
    # The hit at x is periodic and the analytic tail peak is not: the centres
    # must lie closer together than half the box, and both packets in it.
    x, y, lo, hi = params["x"], params["y"], grid["x_min"], grid["x_max"]
    if x == y:
        raise ConfigError("params.x/y: x and y must differ")
    if abs(y - x) >= 0.5 * (hi - lo):
        raise ConfigError(
            "params.x/y: |y - x| must be less than half the grid length "
            f"({0.5 * (hi - lo)}), got {abs(y - x)}"
        )
    _tail_lobe_survives("params.x/y", y - x, physics["sigma"] ** 2 + params["s"] ** 2, params["s"])
    for key in ("x", "y"):
        _keeps_inside(f"params.{key}", grid, [params[key]], params["s"])
    _resolves_widths(grid, {"physics.sigma": physics["sigma"], "params.s": params["s"]})


def _keeps_inside(name: str, grid: dict, centers: list[float], width: float) -> None:
    """Each centre keeps 5 widths (mod-square density down by exp(-12.5))
    inside the periodic box [grid.x_min, grid.x_max).  A rule of thumb: the
    run's exact edge check (``_evolve_free_in_box``) has the last word."""
    lo, hi = grid["x_min"] + 5.0 * width, grid["x_max"] - 5.0 * width
    for center in centers:
        if not lo <= center < hi:
            raise ConfigError(
                f"{name}: a packet centred at {center} must keep 5 widths ({width:.6g} each) "
                f"inside [grid.x_min, grid.x_max) = [{grid['x_min']}, {grid['x_max']}), "
                f"so its centre must lie in [{lo}, {hi})"
            )


def _tail_lobe_survives(name: str, distance: float, spread2: float, s: float) -> None:
    """A Gaussian hit leaves a packet of width s, at ``distance`` from the hit,
    a density of at most exp(-distance^2 / (2 spread2)) / sqrt(2 pi s^2) at the
    point read.  The structure score squares the lobe: below a normal float
    the lobe's l2 norm is 0 and its argmax meaningless."""
    # a product, not a power: a distance past 1e154 overflows to inf, not an error
    suppression = distance * distance / (2.0 * spread2)
    limit = -0.5 * math.log(sys.float_info.min) - 0.5 * math.log(2.0 * math.pi * s**2)
    if suppression > limit:
        raise ConfigError(
            f"{name}: the hit suppresses the tail's density by exp(-{suppression:.6g}); "
            f"its square must be a normal float, so the exponent may be at most {limit:.6g}"
        )


def _resolves_widths(grid: dict, widths: dict[str, float]) -> None:
    """grid.dx at most half the smallest width in play: at least two cells per
    standard deviation of the narrowest density."""
    name, width = min(widths.items(), key=lambda item: item[1])
    length = grid["x_max"] - grid["x_min"]
    dx = length / grid["n_points"]
    if dx > 0.5 * width:
        need = 2.0 * length / width
        fix = f"n_points >= {math.ceil(need)}" if need <= 2**20 else "a shorter grid"
        raise ConfigError(
            f"grid.n_points: the spacing dx = {dx:.6g} must be at most half the smallest "
            f"width in play ({name} = {width}); need {fix}, got {grid['n_points']}"
        )


def _free_width(width: float, dt: float, physics: dict) -> float:
    """Width of a free Gaussian packet of width w after time t:
    w sqrt(1 + (hbar t / 2 m w^2)^2).  Keeping 5 of them inside the box also
    bounds t, and so keeps the kinetic phase hbar k^2 t / 2 m finite."""
    spread = physics["hbar"] * dt / (2.0 * physics["mass"] * width) / width
    return width * math.hypot(1.0, spread)


def _dilemma_fits_grid(params: dict, physics: dict, grid: dict) -> None:
    separation, width, sigma = params["separation"], params["packet_width"], physics["sigma"]
    if physics["window"] >= separation / 2.0:
        raise ConfigError(
            f"physics.window: must be smaller than params.separation / 2 = {separation / 2.0}, "
            f"got {physics['window']}"
        )
    _keeps_inside("grid.x_min/x_max", grid, [0.0], width)
    _keeps_inside("params.separation", grid, [separation], width)
    free_width = _free_width(width, params["regrow_dt"], physics)
    _keeps_inside("params.regrow_dt", grid, [0.0, separation], free_width)
    # The Gaussian column's structure score reads 3 sigma either side of the
    # far packet's centre, where the hit leaves exp(-separation^2 / (2 sigma^2)).
    _tail_lobe_survives("params.separation", separation, sigma**2, width)
    _resolves_widths(
        grid,
        {"physics.sigma": sigma, "physics.window": physics["window"], "params.packet_width": width},
    )


def _regrowth_resolves(params: dict, physics: dict, grid: dict) -> None:
    # the packet's width is physics.sigma; it sits at the box centre
    sigma, mid = physics["sigma"], 0.5 * (grid["x_min"] + grid["x_max"])
    _resolves_widths(grid, {"physics.sigma": sigma})
    _keeps_inside("grid.x_min/x_max", grid, [mid], sigma)
    _keeps_inside("params.window", grid, [mid - params["window"], mid + params["window"]], sigma)
    free_width = _free_width(sigma, max(params["dt_list"]), physics)
    _keeps_inside("params.dt_list", grid, [mid], free_width)


SCENARIOS: dict[str, ScenarioSpec] = {
    "measurement_chain": ScenarioSpec(
        description="amplified two-outcome measurement: Born selection statistics, "
        "per-hit tail weight, and first-hit times at rate n_pointer * lam",
        fields={
            "a": Field(_parse_amplitude, math.sqrt(0.7)),
            "b": Field(_parse_amplitude, math.sqrt(0.3)),
            "n_pointer": Field(parse_integer, 1000, _ENSEMBLE_SIZE),
            "separation": Field(parse_number, lambda ph: 4.0 * ph["sigma"], POSITIVE),
            "n_trials": Field(parse_integer, 10000, _ENSEMBLE_SIZE),
        },
        physics=("lam", "sigma", "kernel"),
        check=_chain_fits_floats,
        run=lambda p, ph, grid, seed: measurement_chain(
            complex(*p["a"]), complex(*p["b"]), p["n_pointer"], p["separation"],
            _kernel(ph), _physics_params(ph), p["n_trials"], seed,
        ),
    ),
    "marble_in_box": ScenarioSpec(
        description="matter-density marble split inside/outside a box: mass ledger, "
        "fuzzy-link location verdict, and inside-vs-outside structure score",
        fields={
            "inside_weight": Field(parse_number, 0.95, (lambda v: 0 < v < 1, "must lie in (0, 1)")),
            "box": Field(_parse_interval, [-2.0, 2.0], _BOX_SPAN),
            "q": Field(
                parse_number, 0.1, (lambda v: 0 < v < 0.5, "must lie in the open interval (0, 0.5)")
            ),
        },
        physics=("kernel",),
        run=lambda p, ph, grid, seed: marble_in_box(
            p["inside_weight"], tuple(p["box"]), p["q"], _kernel(ph), seed
        ),
    ),
    "billiard_collision": ScenarioSpec(
        description="four-sector post-collision superposition with amplitude "
        "coefficients (a^2, b^2, ab, ab) and a high/low density classification",
        fields={
            "a": Field(_parse_amplitude, math.sqrt(0.9)),
            "b": Field(_parse_amplitude, math.sqrt(0.1)),
        },
        check=_amplitudes_close,
        run=lambda p, ph, grid, seed: billiard_collision(complex(*p["a"]), complex(*p["b"])),
    ),
    "wallace_displacement": ScenarioSpec(
        description="tail-peak displacement toward the collapse center under a "
        "Gaussian hit, analytic law vs grid argmax",
        fields={
            "x": Field(parse_number, 0.0),
            "y": Field(parse_number, lambda ph: 10.0 * ph["sigma"]),
            "s": Field(parse_number, lambda ph: ph["sigma"], MAGNITUDE),
        },
        physics=("sigma",),
        check=_centers_in_box,
        grid=(32.0, 4096),
        run=lambda p, ph, grid, seed: wallace_displacement(
            p["x"], p["y"], p["s"], ph["sigma"], grid
        ),
    ),
    "hegerfeldt_regrowth": ScenarioSpec(
        description="instantaneous tail regrowth of a compact-truncated packet "
        "under free unitary evolution",
        fields={
            "window": Field(parse_number, lambda ph: ph["sigma"], MAGNITUDE),
            # in units of the packet dispersion scale m sigma^2 / hbar
            "dt_list": Field(
                _parse_dt_list,
                lambda ph: [
                    dt * (ph["mass"] * ph["sigma"] ** 2 / ph["hbar"])
                    for dt in (0.0, 1e-4, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2)
                ],
            ),
        },
        physics=("hbar", "mass", "sigma"),
        check=_regrowth_resolves,
        grid=(64.0, 4096),
        run=lambda p, ph, grid, seed: hegerfeldt_regrowth(
            p["window"], p["dt_list"], _physics_params(ph), grid
        ),
    ),
    "kernel_dilemma": ScenarioSpec(
        description="Gaussian vs compact-support hits side by side: persistent "
        "structured tail vs exact truncation plus structureless regrowth",
        fields={
            "separation": Field(parse_number, lambda ph: 4.0 * ph["sigma"], POSITIVE),
            "packet_width": Field(parse_number, lambda ph: ph["sigma"] / 8.0, MAGNITUDE),
            # 0.1 in units of the packet dispersion scale m sigma^2 / hbar
            "regrow_dt": Field(
                parse_number, lambda ph: 0.1 * ph["mass"] * ph["sigma"] ** 2 / ph["hbar"], POSITIVE
            ),
        },
        physics=("hbar", "mass", "sigma", "window"),
        check=_dilemma_fits_grid,
        grid=(16.0, 2048),
        run=lambda p, ph, grid, seed: kernel_dilemma(
            _physics_params(ph), ph["window"], grid,
            p["separation"], p["packet_width"], p["regrow_dt"], seed,
        ),
    ),
}
