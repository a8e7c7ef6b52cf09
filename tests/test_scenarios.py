"""Scenario-level behavior: examples, self-consistency, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from grwlab import CompactSupportKernel, GaussianKernel, Grid1D, PhysicsParams, RngStream
from grwlab.cli import dispatch, resolve_config
from grwlab.errors import (
    BoundaryContamination,
    GridTooCoarseError,
    NotNormalizedError,
)
from grwlab.scenarios import (
    SCENARIOS,
    billiard_collision,
    hegerfeldt_regrowth,
    kernel_dilemma,
    marble_in_box,
    measurement_chain,
    wallace_displacement,
)


@pytest.fixture
def params():
    return PhysicsParams.scaled(lam=1e-3)


class TestMeasurementChain:
    def test_born_statistics_and_closed_form_tail(self, params):
        result = measurement_chain(
            a=math.sqrt(0.7),
            b=math.sqrt(0.3),
            n_pointer=1000,
            separation=4.0,
            kernel=GaussianKernel(1.0),
            params=params,
            n_trials=10_000,
            seed=7,
        )
        assert result.summary["selection_frequency_0"] == pytest.approx(0.7, abs=0.014)
        # suppression-law closed form at these Born weights
        f2 = math.exp(-8)
        assert result.summary["closed_form_tail_weight_if_0"] == pytest.approx(
            0.3 * f2 / (0.7 + 0.3 * f2), abs=1e-15
        )
        assert result.summary["max_tail_deviation_from_closed_form"] < 1e-12
        assert all(result.verdicts.values()), result.verdicts

    def test_equal_weights_give_canonical_tail_weight(self, params):
        result = measurement_chain(
            a=math.sqrt(0.5),
            b=math.sqrt(0.5),
            n_pointer=100,
            separation=4.0,
            kernel=GaussianKernel(1.0),
            params=params,
            n_trials=100,
            seed=13,
        )
        expected = math.exp(-8) / (1 + math.exp(-8))
        assert result.summary["closed_form_tail_weight_if_0"] == pytest.approx(
            expected, abs=1e-15
        )
        assert result.summary["mean_tail_weight"] == pytest.approx(expected, rel=1e-12)

    def test_certain_input_always_selects_outcome_0(self, params):
        result = measurement_chain(
            a=1.0,
            b=0.0,
            n_pointer=10,
            separation=4.0,
            kernel=GaussianKernel(1.0),
            params=params,
            n_trials=500,
            seed=3,
        )
        assert result.summary["selection_frequency_0"] == 1.0

    def test_first_hit_time_tracks_amplified_rate(self, params):
        # N = 1000 at lam = 1e-3: rate 1, mean first-hit time 1
        result = measurement_chain(
            a=math.sqrt(0.5),
            b=math.sqrt(0.5),
            n_pointer=1000,
            separation=4.0,
            kernel=GaussianKernel(1.0),
            params=params,
            n_trials=10_000,
            seed=11,
        )
        assert result.summary["hit_rate"] == pytest.approx(1.0)
        assert result.summary["mean_first_hit_time"] == pytest.approx(1.0, rel=0.05)

    def test_summary_recomputable_from_trial_records(self, params):
        result = measurement_chain(
            a=math.sqrt(0.7),
            b=math.sqrt(0.3),
            n_pointer=50,
            separation=4.0,
            kernel=GaussianKernel(1.0),
            params=params,
            n_trials=400,
            seed=5,
        )
        _, times, branches, _ = result.series["trials"].data
        frequency = sum(1 for branch in branches if branch == "0") / len(branches)
        assert frequency == result.summary["selection_frequency_0"]
        mean_time = float(np.mean(times))
        assert mean_time == result.summary["mean_first_hit_time"]

    def test_deterministic_per_seed(self, params):
        def run():
            return measurement_chain(
                a=math.sqrt(0.6),
                b=math.sqrt(0.4),
                n_pointer=20,
                separation=3.0,
                kernel=GaussianKernel(1.0),
                params=params,
                n_trials=200,
                seed=21,
            )

        assert run().summary == run().summary
        first, second = run().series["trials"].data, run().series["trials"].data
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_summary_independent_of_trial_order(self, params, monkeypatch):
        def run():
            return measurement_chain(
                a=math.sqrt(0.7),
                b=math.sqrt(0.3),
                n_pointer=100,
                separation=4.0,
                kernel=GaussianKernel(1.0),
                params=params,
                n_trials=2000,
                seed=17,
            )

        baseline = run()
        draws = RngStream.trial_uniforms
        order = np.random.default_rng(0).permutation(2000)
        monkeypatch.setattr(
            RngStream, "trial_uniforms", staticmethod(lambda seed, n: draws(seed, n)[order])
        )
        permuted = run()

        def draws_of(result):
            return list(zip(*(column.tolist() for column in result.series["trials"].data[1:])))

        assert draws_of(permuted) != draws_of(baseline)
        assert sorted(draws_of(permuted)) == sorted(draws_of(baseline))
        # the means are sums taken in another order: equal to rounding only
        means = {"mean_first_hit_time", "mean_tail_weight"}
        for key, value in baseline.summary.items():
            if key in means:
                assert permuted.summary[key] == pytest.approx(value, rel=1e-12)
            else:
                assert permuted.summary[key] == value, key
        assert permuted.verdicts == baseline.verdicts

    def test_memory_does_not_grow_with_n_pointer(self, params):
        def run():
            return measurement_chain(
                a=math.sqrt(0.5),
                b=math.sqrt(0.5),
                n_pointer=10**6,
                separation=4.0,
                kernel=GaussianKernel(1.0),
                params=params,
                n_trials=100,
                seed=19,
            )

        run()  # numpy's first-call set-up is not the scenario's
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one position per branch: two pointer rows of 10**6 doubles would
        # take 16 MiB
        assert peak < 1024 * 1024

    def test_rejects_unnormalized_amplitudes(self, params):
        with pytest.raises(NotNormalizedError):
            measurement_chain(
                a=1.0,
                b=1.0,
                n_pointer=10,
                separation=4.0,
                kernel=GaussianKernel(1.0),
                params=params,
                n_trials=10,
                seed=0,
            )


class TestMarbleInBox:
    def test_dominant_inside_weight_is_located_inside(self, params):
        result = marble_in_box(
            inside_weight=0.95,
            box=(-2.0, 2.0),
            q=0.1,
            kernel=GaussianKernel(1.0),
            seed=2,
        )
        assert result.summary["matter_fraction_outside"] == pytest.approx(0.05, abs=1e-9)
        assert result.summary["fuzzy_link"]["verdict"] == "located_inside"
        assert all(result.verdicts.values()), result.verdicts

    def test_even_split_is_indeterminate_for_any_q(self, params):
        for q in (0.05, 0.1, 0.3, 0.49):
            result = marble_in_box(
                inside_weight=0.5,
                box=(-2.0, 2.0),
                q=q,
                kernel=GaussianKernel(1.0),
                seed=2,
            )
            assert result.summary["fuzzy_link"]["verdict"] == "indeterminate"

    def test_branch_profiles_are_exact_translates(self, params):
        result = marble_in_box(
            inside_weight=0.95,
            box=(-2.0, 2.0),
            q=0.1,
            kernel=GaussianKernel(1.0),
            seed=2,
        )
        assert result.summary["isomorphism_inside_vs_outside"] == pytest.approx(
            1.0, abs=1e-9
        )

    def test_post_hit_sharpening_recorded(self, params):
        result = marble_in_box(
            inside_weight=0.95,
            box=(-2.0, 2.0),
            q=0.1,
            kernel=GaussianKernel(1.0),
            seed=2,
        )
        post = result.summary["post_hit"]
        if post["selected_branch"] == "inside":
            assert post["matter_fraction_outside"] < 0.05
        else:
            assert post["matter_fraction_outside"] > 0.95

    def test_input_validation(self):
        with pytest.raises(ValueError):
            marble_in_box(1.5, (-2.0, 2.0), 0.1, GaussianKernel(1.0), 0)
        with pytest.raises(ValueError):
            marble_in_box(0.9, (2.0, -2.0), 0.1, GaussianKernel(1.0), 0)


class TestBilliardCollision:
    def test_sector_weights(self):
        result = billiard_collision(math.sqrt(0.9), math.sqrt(0.1))
        weights = result.summary["sector_weights"]
        assert weights["rebound_from_P"] == pytest.approx(0.81, abs=1e-12)
        assert weights["rebound_from_Q"] == pytest.approx(0.01, abs=1e-12)
        assert weights["pass_through_A"] == pytest.approx(0.09, abs=1e-12)
        assert weights["pass_through_B"] == pytest.approx(0.09, abs=1e-12)
        assert result.summary["weights_sum"] == pytest.approx(1.0, abs=1e-12)
        assert result.summary["classification"]["rebound_from_P"] == "high_density"
        assert result.verdicts["dominance_assumption_met"]

    def test_single_outcome_when_b_vanishes(self):
        result = billiard_collision(1.0, 0.0)
        assert result.summary["sector_weights"]["rebound_from_P"] == 1.0
        assert result.summary["weights_sum"] == 1.0

    def test_weights_invariant_under_global_phases(self):
        base = billiard_collision(math.sqrt(0.9), math.sqrt(0.1))
        phased = billiard_collision(
            math.sqrt(0.9) * np.exp(1j * 0.8), math.sqrt(0.1) * np.exp(1j * 2.1)
        )
        for label, weight in base.summary["sector_weights"].items():
            assert phased.summary["sector_weights"][label] == pytest.approx(
                weight, abs=1e-12
            )

    def test_dominance_flag_when_weights_comparable(self):
        result = billiard_collision(math.sqrt(0.6), math.sqrt(0.4))
        assert not result.verdicts["dominance_assumption_met"]

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            billiard_collision(1.0, 0.5)


class TestWallaceDisplacement:
    def test_equal_widths_peak_at_midpoint(self):
        grid = Grid1D(-32.0, 32.0, 4096)
        result = wallace_displacement(0.0, 10.0, 1.0, 1.0, grid)
        assert result.summary["analytic_peak"] == pytest.approx(5.0)
        assert abs(result.summary["difference"]) <= grid.dx
        assert result.verdicts["peak_within_one_cell"]
        assert result.verdicts["displaced_toward_center"]

    def test_narrow_tail_moves_less(self):
        grid = Grid1D(-32.0, 32.0, 4096)
        result = wallace_displacement(0.0, 10.0, 0.5, 1.0, grid)
        assert result.summary["analytic_peak"] == pytest.approx(8.0)
        assert abs(result.summary["difference"]) <= grid.dx

    def test_wide_hit_barely_displaces(self):
        grid = Grid1D(-64.0, 64.0, 4096)
        result = wallace_displacement(0.0, 10.0, 1.0, 50.0, grid)
        assert abs(result.summary["displacement"]) < 0.01
        assert result.verdicts["peak_within_one_cell"]

    def test_grid_too_coarse_raises(self):
        # y so remote that the suppressed tail underflows to zero samples:
        # the argmax measurement is then meaningless and must be refused
        grid = Grid1D(-128.0, 128.0, 512)
        with pytest.raises(GridTooCoarseError):
            wallace_displacement(0.0, 100.0, 1.0, 1.0, grid)

    def test_coincident_centers_rejected(self):
        grid = Grid1D(-32.0, 32.0, 1024)
        with pytest.raises(ValueError):
            wallace_displacement(1.0, 1.0, 1.0, 1.0, grid)


class TestHegerfeldtRegrowth:
    def test_regrowth_profile(self, params):
        grid = Grid1D(-64.0, 64.0, 4096)
        result = hegerfeldt_regrowth(
            1.0, [0.0, 1e-4, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2], params, grid
        )
        tail = result.series["tail_mass"].data[1]
        assert tail[0] == 0.0
        assert tail[1] > 1e-10
        masses = tail[1:6].tolist()
        assert all(m1 < m2 for m1, m2 in zip(masses, masses[1:]))
        assert all(result.verdicts.values()), result.verdicts

    def test_boundary_contamination_escalates(self, params):
        # a long evolution in a small box sends the fronts into the edges
        grid = Grid1D(-8.0, 8.0, 512)
        with pytest.raises(BoundaryContamination):
            hegerfeldt_regrowth(1.0, [0.0, 10.0], params, grid)

    def test_input_validation(self, params):
        grid = Grid1D(-64.0, 64.0, 1024)
        with pytest.raises(ValueError):
            hegerfeldt_regrowth(-1.0, [0.0], params, grid)
        with pytest.raises(ValueError):
            hegerfeldt_regrowth(1.0, [], params, grid)
        with pytest.raises(ValueError):
            hegerfeldt_regrowth(1.0, [0.0, -0.1], params, grid)
        # a repeated time would drop a row of tail_mass_by_dt; -0.0 is 0.0
        for dt_list in ([0.0, 0.001, 0.001, 0.002], [0.0, -0.0, 0.001]):
            with pytest.raises(ValueError, match="distinct"):
                hegerfeldt_regrowth(1.0, dt_list, params, grid)


def dilemma(params, seed):
    """kernel_dilemma with the registry defaults at sigma = 1: window 1, a
    (-16, 16) box of 2048 points, separation 4, packet width 1/8 and
    regrow_dt 0.1."""
    grid = Grid1D(-16.0, 16.0, 2048)
    return kernel_dilemma(params, 1.0, grid, 4.0, 0.125, 0.1, seed)


class TestKernelDilemma:
    def test_two_column_tradeoff(self, params):
        result = dilemma(params, seed=3)
        gauss = result.summary["gaussian"]
        compact = result.summary["compact_support"]
        assert gauss["post_hit_tail_weight"] > 0.0
        assert gauss["post_hit_tail_weight"] == pytest.approx(3.35e-4, rel=0.25)
        assert gauss["tail_isomorphism"] > 0.99
        assert compact["post_hit_tail_weight"] == 0.0
        assert compact["regrown_mass_outside_window"] > 0.0
        assert compact["regrown_tail_isomorphism"] < gauss["tail_isomorphism"]
        assert all(result.verdicts.values()), result.verdicts

    def test_deterministic_per_seed(self, params):
        assert dilemma(params, 9).summary == dilemma(params, 9).summary

    def test_both_branch_selections_mirror_each_other(self):
        # the default config at seeds 0 and 2 hits the packet at 0 and the
        # one at the separation; the two runs are mirror images
        first, second = (
            dispatch(resolve_config({"scenario": "kernel_dilemma"}, seed)) for seed in (0, 2)
        )
        assert [r.summary["selected_branch"] for r in (first, second)] == [0, 1]
        assert all(first.verdicts.values()) and all(second.verdicts.values())
        for column in ("gaussian", "compact_support"):
            mirrored = second.summary[column]
            for key, value in first.summary[column].items():
                if isinstance(value, float):
                    assert mirrored[key] == pytest.approx(value, rel=1e-9, abs=1e-15), key

    def test_kernels_follow_sigma_and_window(self):
        # both kernels take params.sigma, and the compact one cuts at window
        params = PhysicsParams.scaled(lam=1e-3, sigma=0.5)
        grid = Grid1D(-16.0, 16.0, 2048)
        result = kernel_dilemma(params, 0.75, grid, 4.0, 0.125, 0.1, 3)
        assert result.summary["gaussian"]["kernel"] == GaussianKernel(0.5).label
        assert (
            result.summary["compact_support"]["kernel"]
            == CompactSupportKernel(0.5, 0.75).label
        )
        z = result.summary["collapse_center"]
        x, _, compact_rho, _ = result.series["profiles"].data
        outside = np.abs(x - z) > 0.75
        assert np.all(compact_rho[outside] == 0.0)
        assert np.all(compact_rho[np.abs(x - z) < 0.5] > 0.0)

    def test_window_at_half_separation_rejected(self, params):
        grid = Grid1D(-16.0, 16.0, 2048)
        with pytest.raises(ValueError, match="half the separation"):
            kernel_dilemma(params, 2.0, grid, 4.0, 0.125, 0.1, 3)

    def test_regrowth_reaching_the_edges_escalates(self, params):
        # a long regrowth in the default box: the packets spread over the edges
        grid = Grid1D(-16.0, 16.0, 2048)
        with pytest.raises(BoundaryContamination):
            kernel_dilemma(params, 1.0, grid, 4.0, 0.125, 1.0e6, 3)


def test_six_scenarios_catalogued():
    assert len(SCENARIOS) == 6
    assert "hegerfeldt_regrowth" in SCENARIOS
    assert "wallace_displacement" in SCENARIOS
