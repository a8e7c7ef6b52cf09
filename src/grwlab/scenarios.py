"""Reproducible seeded experiments, one per concrete physical situation.

Each scenario packages a situation into a runnable unit returning a
ScenarioResult: the parameters used, per-trial records, summary statistics
(with the statistical half-widths used by any check), pass/fail verdicts,
and plot-ready series.  Results are deterministic per seed; each ensemble
trial draws from its own Philox counter block, so ensembles are
order-independent.

Scenario defaults assume scaled desk units (hbar = m = 1, sigma order 1):
the SI per-particle rate produces no events on any human timescale, which
is the point of the rate-amplification arithmetic in measurement_chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .collapse import (
    CompactSupportKernel,
    CollapseKernel,
    GaussianKernel,
    RngStream,
    apply_branch_hit,
    apply_hit,
    branch_hit_weights,
    hit_rate,
    kernel_label,
)
from .errors import BoundaryContamination, GridTooCoarseError, NotNormalizedError
from .ontology import (
    TailReport,
    displaced_tail_center,
    fuzzy_link,
    isomorphism_score,
    matter_density,
    peak_position,
    region_fraction,
    tail_mass,
)
from .propagator import boundary_density, evolve_free
from .state import (
    NORM_TOL,
    BranchedState,
    Grid1D,
    PhysicsParams,
    gaussian_packet,
    mod_square_density,
    superposition,
)


@dataclass
class Series:
    """A plot-ready table: column (name, dimension) pairs plus rows."""

    columns: list[tuple[str, str]]
    rows: list[list]

    def to_dict(self) -> dict:
        return {"columns": [list(c) for c in self.columns], "rows": self.rows}


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario run."""

    name: str
    params: dict
    per_trial: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    series: dict[str, Series] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "summary": self.summary,
            "verdicts": self.verdicts,
            "n_trials_recorded": len(self.per_trial),
        }


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
    # closed-form post-hit tail weight, by which branch was selected
    tail_if_0 = p1 * f2 / (p0 + p1 * f2)
    tail_if_1 = p0 * f2 / (p1 + p0 * f2)

    # One Philox counter block per trial: (wait, hit particle, branch, unused).
    u = RngStream.trial_uniforms(seed, n_trials)
    times = -np.log1p(-u[:, 0]) / rate
    particles = np.minimum((u[:, 1] * n_pointer).astype(np.int64), n_pointer - 1)
    cdf = np.cumsum(state.probabilities)
    selected = np.minimum(
        np.searchsorted(cdf, u[:, 2] * cdf[-1], side="right"), state.n_branches - 1
    )
    # Every pointer particle of a branch sits at one position, so the post-hit
    # tail weight depends only on the selected branch.
    positions = np.array([b.positions[0] for b in state.branches])
    tail_by_branch = np.array(
        [
            1.0 - (np.abs(branch_hit_weights(state.weights, positions, z, kernel)) ** 2)[k]
            for k, z in enumerate(positions)
        ]
    )
    tails = tail_by_branch[selected]
    labels = state.labels
    records = [
        {
            "trial": trial,
            "first_hit_time": t,
            "particle": particle,
            "selected_branch": labels[k],
            "tail_weight": tail,
        }
        for trial, (t, particle, k, tail) in enumerate(
            zip(times.tolist(), particles.tolist(), selected.tolist(), tails.tolist())
        )
    ]

    frequency_0 = int(np.count_nonzero(selected == 0)) / n_trials
    half_width = 3.0 * math.sqrt(p0 * (1.0 - p0) / n_trials)
    mean_hit_time = float(np.mean(times))
    expected_hit_time = 1.0 / rate
    mean_tail = float(np.mean(tails))
    closed_form = np.where(selected == 0, tail_if_0, tail_if_1)
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
            rows=[
                [r["trial"], r["first_hit_time"], r["selected_branch"], r["tail_weight"]]
                for r in records
            ],
        )
    }
    return ScenarioResult(
        name="measurement_chain",
        params={
            "a": repr(complex(a)),
            "b": repr(complex(b)),
            "n_pointer": n_pointer,
            "separation": separation,
            "kernel": kernel_label(kernel),
            "lam": params.lam,
            "n_trials": n_trials,
            "seed": seed,
        },
        per_trial=records,
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


def marble_in_box(
    inside_weight: float,
    box: tuple[float, float],
    q: float,
    kernel: CollapseKernel,
    params: PhysicsParams,
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
            [1.0], [label], [state.branches[index].positions], branch_width=width
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
        "fuzzy_link": verdict.to_dict(),
        "isomorphism_inside_vs_outside": score,
        "post_hit": {
            "selected_branch": event.selected_branch,
            "matter_fraction_outside": post_fraction_outside,
            "fuzzy_link": post_verdict.to_dict(),
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
            rows=[
                [float(x), float(d), float(di), float(do)]
                for x, d, di, do in zip(
                    grid.points, density.values, profile_in, profile_out
                )
            ],
        )
    }
    return ScenarioResult(
        name="marble_in_box",
        params={
            "inside_weight": inside_weight,
            "box": [lo, hi],
            "q": q,
            "kernel": kernel_label(kernel),
            "seed": seed,
        },
        per_trial=[event.to_dict()],
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
        "dominance_ratio": dominance_ratio,
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
            rows=[[lbl, w, classification[lbl]] for lbl, w in zip(labels, weights)],
        )
    }
    return ScenarioResult(
        name="billiard_collision",
        params={"a": repr(complex(a)), "b": repr(complex(b))},
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
    factors = kernel.amplitude_factor(grid.wrap(grid.points - x))
    tail_component = np.abs(packet_tail.amplitudes * factors) ** 2
    center_component = np.abs(packet_center.amplitudes * factors) ** 2

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
    report = TailReport(
        center_weight=1.0 - tail_weight,
        tail_weight=tail_weight,
        fuzzy_verdicts=(fuzzy_link(post, center_region, 0.1),),
        isomorphism_score=isomorphism_score(center_component, tail_component),
        peak_displacement=analytic - y,
    )

    summary = {
        "analytic_peak": analytic,
        "numeric_peak": numeric,
        "difference": difference,
        "difference_cells": difference / grid.dx,
        "displacement": analytic - y,
        "tail_weight": tail_weight,
        "tail_isomorphism": report.isomorphism_score,
        "fuzzy_link_center_region": report.fuzzy_verdicts[0].to_dict(),
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
            rows=[
                [float(xx), float(d), float(t)]
                for xx, d, t in zip(grid.points, rho, tail_component)
            ],
        )
    }
    return ScenarioResult(
        name="wallace_displacement",
        params={
            "x": x,
            "y": y,
            "s": s,
            "sigma": sigma,
            "grid": [grid.x_min, grid.x_max, grid.n_points],
        },
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
    if any(dt < 0 for dt in dt_list):
        raise ValueError("dt values must be >= 0")

    center = float(grid.points[grid.n_points // 2])
    packet = gaussian_packet(grid, center, params.sigma)
    truncated = apply_hit(packet, center, CompactSupportKernel(params.sigma, window))
    support = (center - window, center + window)

    rows = []
    for dt in dt_list:
        evolved = evolve_free(truncated, params, dt)
        leaked = boundary_density(evolved)
        if leaked > 1e-6:
            raise BoundaryContamination(
                f"density {leaked:.3e} at the box edges after dt = {dt}; "
                "the packet no longer fits well inside the box"
            )
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
            rows=rows,
        )
    }
    return ScenarioResult(
        name="hegerfeldt_regrowth",
        params={
            "window": window,
            "dt_list": [float(dt) for dt in dt_list],
            "sigma": params.sigma,
            "grid": [grid.x_min, grid.x_max, grid.n_points],
        },
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


def kernel_dilemma(
    kernel_a: GaussianKernel,
    kernel_b: CompactSupportKernel,
    params: PhysicsParams,
    grid: Grid1D | None = None,
    separation: float | None = None,
    packet_width: float | None = None,
    regrow_dt: float | None = None,
    seed: int = 0,
) -> ScenarioResult:
    """The two-column trade-off between Gaussian and compact-support hits.

    The same two-packet superposition takes one hit under each kernel,
    centered on the Born-selected packet (one draw, shared by both columns
    for comparability).  Gaussian column: a persistent tail that is a
    near-exact structural copy of the collapse center.  Compact column: the
    tail is exactly zero immediately after the hit, but free evolution
    regrows mass outside the window instantly, and the regrown tail carries
    none of the center's structure.
    """
    if not isinstance(kernel_a, GaussianKernel):
        raise TypeError("kernel_a must be a GaussianKernel")
    if not isinstance(kernel_b, CompactSupportKernel):
        raise TypeError("kernel_b must be a CompactSupportKernel")
    sigma = kernel_a.sigma
    separation = 4.0 * sigma if separation is None else separation
    packet_width = sigma / 8.0 if packet_width is None else packet_width
    # regrow time in units of the packet dispersion scale m sigma^2 / hbar
    regrow_dt = 0.1 * params.mass * sigma**2 / params.hbar if regrow_dt is None else regrow_dt
    if grid is None:
        grid = Grid1D(-16.0 * sigma, 16.0 * sigma, 2048)
    if kernel_b.window >= separation / 2.0:
        raise ValueError("compact window must be smaller than half the separation")

    packet_0 = gaussian_packet(grid, 0.0, packet_width)
    packet_1 = gaussian_packet(grid, separation, packet_width)
    psi = superposition([(1.0 / math.sqrt(2), packet_0), (1.0 / math.sqrt(2), packet_1)])

    rng = RngStream(seed)
    selected = rng.choose_index(np.array([0.5, 0.5]))
    z = 0.0 if selected == 0 else separation
    far = separation if selected == 0 else 0.0
    mid = separation / 2.0
    center_region = (
        (grid.x_min - grid.dx, mid) if z < far else (mid, grid.x_max + grid.dx)
    )
    half_cells = int(round(3.0 * sigma / grid.dx))

    def column_gaussian() -> dict:
        post = apply_hit(psi, z, kernel_a)
        rho = mod_square_density(post)
        tail = tail_mass(post, center_region)
        score = isomorphism_score(
            _cyclic_window(rho, grid, z, half_cells),
            _cyclic_window(rho, grid, far, half_cells),
        )
        return {"post_hit_tail_weight": tail, "tail_isomorphism": score, "density": rho}

    def column_compact() -> dict:
        post = apply_hit(psi, z, kernel_b)
        tail0 = tail_mass(post, center_region)
        regrown = evolve_free(post, params, regrow_dt)
        rho = mod_square_density(regrown)
        window_mass = tail_mass(regrown, (z - kernel_b.window, z + kernel_b.window))
        tail_after = tail_mass(regrown, center_region)
        score = isomorphism_score(
            _cyclic_window(rho, grid, z, half_cells),
            _cyclic_window(rho, grid, far, half_cells),
        )
        return {
            "post_hit_tail_weight": tail0,
            "regrown_mass_outside_window": window_mass,
            "tail_weight_after_regrowth": tail_after,
            "regrown_tail_isomorphism": score,
            "density_post": mod_square_density(post),
            "density_regrown": rho,
        }

    gauss = column_gaussian()
    compact = column_compact()

    summary = {
        "selected_branch": int(selected),
        "collapse_center": z,
        "gaussian": {
            "kernel": kernel_label(kernel_a),
            "post_hit_tail_weight": gauss["post_hit_tail_weight"],
            "tail_isomorphism": gauss["tail_isomorphism"],
        },
        "compact_support": {
            "kernel": kernel_label(kernel_b),
            "post_hit_tail_weight": compact["post_hit_tail_weight"],
            "regrown_mass_outside_window": compact["regrown_mass_outside_window"],
            "tail_weight_after_regrowth": compact["tail_weight_after_regrowth"],
            "regrown_tail_isomorphism": compact["regrown_tail_isomorphism"],
            "regrow_dt": regrow_dt,
        },
    }
    verdicts = {
        "gaussian_tail_persists": gauss["post_hit_tail_weight"] > 0.0,
        "gaussian_tail_isomorphic": gauss["tail_isomorphism"] > 0.99,
        "compact_tail_exactly_zero": compact["post_hit_tail_weight"] == 0.0,
        "compact_tail_regrows": compact["regrown_mass_outside_window"] > 0.0,
        "compact_structure_below_gaussian": compact["regrown_tail_isomorphism"]
        < gauss["tail_isomorphism"],
    }
    series = {
        "profiles": Series(
            columns=[
                ("x", "length"),
                ("gaussian_post_density", "per_length"),
                ("compact_post_density", "per_length"),
                ("compact_regrown_density", "per_length"),
            ],
            rows=[
                [float(x), float(dg), float(dc), float(dr)]
                for x, dg, dc, dr in zip(
                    grid.points,
                    gauss["density"],
                    compact["density_post"],
                    compact["density_regrown"],
                )
            ],
        )
    }
    return ScenarioResult(
        name="kernel_dilemma",
        params={
            "kernel_a": kernel_label(kernel_a),
            "kernel_b": kernel_label(kernel_b),
            "separation": separation,
            "packet_width": packet_width,
            "regrow_dt": regrow_dt,
            "grid": [grid.x_min, grid.x_max, grid.n_points],
            "seed": seed,
        },
        summary=summary,
        verdicts=verdicts,
        series=series,
    )


SCENARIO_DESCRIPTIONS = {
    "measurement_chain": "amplified two-outcome measurement: Born selection statistics, "
    "per-hit tail weight, and first-hit times at rate n_pointer * lam",
    "marble_in_box": "matter-density marble split inside/outside a box: mass ledger, "
    "fuzzy-link location verdict, and inside-vs-outside structure score",
    "billiard_collision": "four-sector post-collision superposition with amplitude "
    "coefficients (a^2, b^2, ab, ab) and a high/low density classification",
    "wallace_displacement": "tail-peak displacement toward the collapse center under a "
    "Gaussian hit, analytic law vs grid argmax",
    "hegerfeldt_regrowth": "instantaneous tail regrowth of a compact-truncated packet "
    "under free unitary evolution",
    "kernel_dilemma": "Gaussian vs compact-support hits side by side: persistent "
    "structured tail vs exact truncation plus structureless regrowth",
}
