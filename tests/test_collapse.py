"""Hit process: rates, center sampling, kernels, branched hits, full runs."""

import json
import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from grwlab import (
    BranchedState,
    CollapseEvent,
    CompactSupportKernel,
    GaussianKernel,
    Grid1D,
    IdealKernel,
    PhysicsParams,
    RngStream,
    WaveFunction1D,
    apply_branch_hit,
    apply_hit,
    evolve_free,
    gaussian_packet,
    harmonic_potential,
    hit_rate,
    mod_square_density,
    run_grw,
    sample_center,
    sample_hit_time,
    superposition,
    uniform_state,
)
from grwlab.collapse import branch_hit_weights
from grwlab.errors import BoundaryContamination, ZeroNormError


def quad_variance(grid, density):
    mean = np.sum(grid.points * density) * grid.dx
    return np.sum((grid.points - mean) ** 2 * density) * grid.dx


def two_branch(p0, separation, n_particles=1, width=0.1):
    return BranchedState.from_amplitudes(
        [math.sqrt(p0), math.sqrt(1.0 - p0)],
        ["0", "1"],
        [np.zeros(n_particles), separation * np.ones(n_particles)],
        branch_width=width,
    )


class TestHitRate:
    def test_paper_scale_rate_is_exact(self):
        # 1e23 entangled particles at 1e-16 per second: exactly 1e7 hits/s
        assert hit_rate(10**23, PhysicsParams()) == 1.0e7

    def test_rate_is_linear_in_n(self):
        params = PhysicsParams.scaled(lam=1e-3)
        assert hit_rate(1000, params) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_no_particles(self):
        with pytest.raises(ValueError):
            hit_rate(0, PhysicsParams())


class TestSampleHitTime:
    def test_unit_rate_mean(self):
        params = PhysicsParams.scaled(lam=1.0)
        rng = RngStream(101)
        draws = [sample_hit_time(1, params, rng) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(1.0, abs=0.01)

    def test_doubling_n_halves_the_mean(self):
        params = PhysicsParams.scaled(lam=1.0)
        rng_a, rng_b = RngStream(7), RngStream(8)
        mean_1 = np.mean([sample_hit_time(1, params, rng_a) for _ in range(100_000)])
        mean_2 = np.mean([sample_hit_time(2, params, rng_b) for _ in range(100_000)])
        assert mean_1 / mean_2 == pytest.approx(2.0, abs=0.05)


class TestSampleCenter:
    def test_point_mass_centers_on_the_point(self):
        grid = Grid1D(-40.0, 40.0, 2048)
        samples = np.zeros(grid.n_points, dtype=complex)
        x0_index = grid.nearest_index(3.0)
        samples[x0_index] = 1.0
        psi = WaveFunction1D.from_samples(grid, samples)
        rng = RngStream(5)
        draws = sample_center(psi, GaussianKernel(1.0), rng, size=10_000)
        standard_error = 1.0 / math.sqrt(10_000)
        assert np.mean(draws) == pytest.approx(float(grid.points[x0_index]), abs=3 * standard_error)

    def test_symmetric_two_peak_splits_evenly(self):
        grid = Grid1D(-40.0, 40.0, 2048)
        psi = superposition(
            [
                (math.sqrt(0.5), gaussian_packet(grid, -10.0, 0.5)),
                (math.sqrt(0.5), gaussian_packet(grid, 10.0, 0.5)),
            ]
        )
        rng = RngStream(6)
        draws = sample_center(psi, GaussianKernel(1.0), rng, size=10_000)
        frequency = np.mean(np.abs(draws - (-10.0)) < np.abs(draws - 10.0))
        assert frequency == pytest.approx(0.5, abs=0.015)

    def test_asymmetric_two_peak_follows_brute_force_density(self):
        # oracle: direct O(n^2) integration of p(z) = int K(z - x) rho(x) dx
        # over each half-line, independent of the sampler's FFT path
        grid = Grid1D(-40.0, 40.0, 1024)
        sigma = 1.0
        psi = superposition(
            [
                (math.sqrt(0.7), gaussian_packet(grid, -10.0, 0.5)),
                (math.sqrt(0.3), gaussian_packet(grid, 10.0, 0.5)),
            ]
        )
        rho = mod_square_density(psi)
        x = grid.points
        kernel_matrix = np.exp(
            -(grid.wrap(x[:, None] - x[None, :]) ** 2) / (2 * sigma**2)
        ) / math.sqrt(2 * math.pi * sigma**2)
        p_z = kernel_matrix @ rho * grid.dx
        oracle_near_heavy = float(np.sum(p_z[x < 0.0]) * grid.dx)
        assert oracle_near_heavy == pytest.approx(0.7, abs=1e-6)

        rng = RngStream(9)
        draws = sample_center(psi, GaussianKernel(sigma), rng, size=10_000)
        frequency = np.mean(np.abs(draws - (-10.0)) < np.abs(draws - 10.0))
        assert frequency == pytest.approx(oracle_near_heavy, abs=0.014)


    def test_size_zero_draws_no_center(self):
        grid = Grid1D(-10.0, 10.0, 256)
        rng = RngStream(12)
        draws = sample_center(gaussian_packet(grid, 0.0, 1.0), GaussianKernel(1.0), rng, size=0)
        assert draws.shape == (0,)
        # no uniform consumed: the next draw is the stream's first
        assert rng.random() == RngStream(12).random()


class TestApplyHit:
    def test_gaussian_hit_tail_weight_matches_fine_grid_oracle(self):
        # oracle: independent multiplication + quadrature on a denser grid
        sigma, separation, packet = 1.0, 4.0, 0.03
        n_fine = 2**13
        span = 20.0
        dx_fine = span / n_fine
        x_fine = -10.0 + dx_fine * np.arange(n_fine)
        psi_fine = np.exp(-((x_fine - 0.0) ** 2) / (4 * packet**2)) + np.exp(
            -((x_fine - separation) ** 2) / (4 * packet**2)
        )
        post_fine = psi_fine * np.exp(-(x_fine**2) / (4 * sigma**2))
        density_fine = np.abs(post_fine) ** 2
        oracle_tail = float(
            np.sum(density_fine[x_fine > separation / 2]) / np.sum(density_fine)
        )

        grid = Grid1D(-10.0, 10.0, 4096)
        psi = superposition(
            [
                (1.0, gaussian_packet(grid, 0.0, packet)),
                (1.0, gaussian_packet(grid, separation, packet)),
            ]
        )
        post = apply_hit(psi, 0.0, GaussianKernel(sigma))
        rho = mod_square_density(post)
        tail = float(np.sum(rho[grid.points > separation / 2]) * grid.dx)

        closed_form = math.exp(-8.0) / (1.0 + math.exp(-8.0))
        assert tail == pytest.approx(oracle_tail, rel=1e-6)
        assert tail == pytest.approx(closed_form, rel=0.01)

    def test_compact_hit_removes_far_packet_exactly(self):
        grid = Grid1D(-10.0, 10.0, 4096)
        separation = 4.0
        psi = superposition(
            [
                (1.0, gaussian_packet(grid, 0.0, 0.1)),
                (1.0, gaussian_packet(grid, separation, 0.1)),
            ]
        )
        post = apply_hit(psi, 0.0, CompactSupportKernel(sigma=1.0, window=1.0))
        rho = mod_square_density(post)
        assert float(np.sum(rho[grid.points > separation / 2])) == 0.0

    def test_gaussian_hit_on_uniform_state_gives_width_sigma(self):
        # density variance oracle by quadrature: must equal sigma^2
        grid = Grid1D(-40.0, 40.0, 4096)
        sigma = 1.0
        post = apply_hit(uniform_state(grid), 2.0, GaussianKernel(sigma))
        assert quad_variance(grid, mod_square_density(post)) == pytest.approx(
            sigma**2, rel=1e-6
        )

    def test_ideal_hit_keeps_one_cell(self):
        grid = Grid1D(-10.0, 10.0, 512)
        post = apply_hit(uniform_state(grid), 1.0, IdealKernel())
        rho = mod_square_density(post)
        assert np.count_nonzero(rho) == 1
        assert float(np.sum(rho) * grid.dx) == pytest.approx(1.0)

    def test_compact_hit_on_empty_window_raises(self):
        grid = Grid1D(-10.0, 10.0, 512)
        psi = gaussian_packet(grid, -8.0, 0.05)
        with pytest.raises(ZeroNormError):
            apply_hit(psi, 8.0, CompactSupportKernel(sigma=0.2, window=0.2))


class TestApplyBranchHit:
    def test_certain_branch_always_selected(self):
        state = two_branch(1.0, 4.0)
        rng = RngStream(1)
        for _ in range(50):
            new_state, event = apply_branch_hit(state, 0, GaussianKernel(1.0), rng)
            assert event.selected_branch == "0"
            np.testing.assert_allclose(new_state.probabilities, [1.0, 0.0], atol=0)

    def test_equal_weights_reproduce_suppression_closed_form(self):
        # amplitude factor exp(-d^2/4 sigma^2) = e^-4 at d = 4 sigma, so the
        # post-hit weights are 1/(1+e^-8) and e^-8/(1+e^-8)
        state = two_branch(0.5, 4.0)
        rng = RngStream(2)
        new_state, event = apply_branch_hit(state, 0, GaussianKernel(1.0), rng)
        heavy = 1.0 / (1.0 + math.exp(-8.0))
        light = math.exp(-8.0) / (1.0 + math.exp(-8.0))
        ordered = sorted(new_state.probabilities)
        assert ordered[1] == pytest.approx(heavy, abs=1e-12)
        assert ordered[0] == pytest.approx(light, abs=1e-12)
        assert event.post_weights == pytest.approx(tuple(new_state.probabilities))

    def test_post_hit_state_shares_labels_and_positions(self):
        state = two_branch(0.5, 4.0, n_particles=3)
        new_state, _ = apply_branch_hit(state, 2, GaussianKernel(1.0), RngStream(3))
        assert new_state.positions is state.positions
        assert new_state.labels == state.labels
        assert new_state.branch_width == state.branch_width

    def test_born_selection_frequencies(self):
        state = two_branch(0.7, 4.0)
        kernel = GaussianKernel(1.0)
        hits_on_0 = 0
        trials = 10_000
        for trial in range(trials):
            rng = RngStream.for_trial(404, trial)
            _, event = apply_branch_hit(state, 0, kernel, rng)
            hits_on_0 += event.selected_branch == "0"
        assert hits_on_0 / trials == pytest.approx(0.7, abs=0.014)

    def test_suppression_ratio_law_is_exact(self):
        # post/pre amplitude-weight ratio between branches j and selected k
        # equals exp(-d_jk^2 / (4 sigma^2)) exactly in the point-branch model
        rng_positions = np.random.default_rng(77)
        sigma = 1.3
        for _ in range(100):
            positions = rng_positions.uniform(-20, 20, size=4)
            weights = rng_positions.uniform(0.1, 1.0, size=4)
            weights = np.sqrt(weights / np.sum(weights))
            state = BranchedState.from_amplitudes(
                list(weights),
                ["a", "b", "c", "d"],
                [np.array([p]) for p in positions],
                branch_width=0.1,
            )
            rng = RngStream(int(rng_positions.integers(1 << 31)))
            new_state, event = apply_branch_hit(state, 0, GaussianKernel(sigma), rng)
            k = state.labels.index(event.selected_branch)
            w_pre, w_post = state.weights, new_state.weights
            for j in range(4):
                d = abs(positions[j] - positions[k])
                expected = math.exp(-(d**2) / (4 * sigma**2))
                measured = abs(w_post[j] / w_post[k]) / abs(w_pre[j] / w_pre[k])
                assert measured == pytest.approx(expected, abs=1e-12)

    def test_gaussian_hits_never_annihilate(self):
        # randomized suite: every initially nonzero amplitude weight stays > 0
        # exactly (the mod-square of a 1e-171 amplitude underflows, but the
        # coefficient itself never reaches zero)
        rng_make = np.random.default_rng(55)
        kernel = GaussianKernel(1.0)
        for trial in range(1000):
            n_branches = int(rng_make.integers(2, 6))
            positions = rng_make.uniform(-20.0, 20.0, size=n_branches)
            raw = rng_make.uniform(0.05, 1.0, size=n_branches)
            weights = np.sqrt(raw / raw.sum())
            state = BranchedState.from_amplitudes(
                list(weights),
                [str(i) for i in range(n_branches)],
                [np.array([p]) for p in positions],
                branch_width=0.1,
            )
            new_state, _ = apply_branch_hit(state, 0, kernel, RngStream(trial))
            assert np.all(np.abs(new_state.weights) > 0.0)

    def test_compact_hit_zeroes_beyond_window(self):
        state = two_branch(0.5, 4.0)
        kernel = CompactSupportKernel(sigma=1.0, window=1.0)
        new_state, event = apply_branch_hit(state, 0, kernel, RngStream(3))
        survivor = state.labels.index(event.selected_branch)
        assert new_state.probabilities[survivor] == 1.0
        assert new_state.probabilities[1 - survivor] == 0.0


class TestRunGrw:
    def test_zero_duration_no_events(self):
        state = two_branch(0.5, 4.0, n_particles=3)
        params = PhysicsParams.scaled(lam=1.0)
        final, events = run_grw(state, 0.0, GaussianKernel(1.0), params, RngStream(1))
        assert events == []
        np.testing.assert_array_equal(final.probabilities, state.probabilities)

    def test_poisson_event_count(self):
        # expected hits = n lam T = 100; +-3 sigma window [70, 130]
        state = two_branch(0.5, 4.0, n_particles=10)
        params = PhysicsParams.scaled(lam=1.0)
        _, events = run_grw(state, 10.0, GaussianKernel(1.0), params, RngStream(12))
        assert 70 <= len(events) <= 130
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_dominance_statistics_follow_born_weights(self):
        # first hit decides dominance at separation >> sigma
        params = PhysicsParams.scaled(lam=1.0)
        kernel = GaussianKernel(1.0)
        state = two_branch(0.7, 8.0, n_particles=2)
        dominant_0 = 0
        runs = 5000
        for trial in range(runs):
            rng = RngStream.for_trial(2024, trial)
            final, events = run_grw(state, 2.0, kernel, params, rng)
            if not events:
                continue
            dominant_0 += int(np.argmax(final.probabilities) == 0)
        # P(no event in T=2 at rate 2) = e^-4, negligible bias at this scale
        assert dominant_0 / runs == pytest.approx(0.7, abs=0.02)

    def test_grid_state_run_interleaves_evolution_and_hits(self):
        grid = Grid1D(-40.0, 40.0, 1024)
        params = PhysicsParams.scaled(lam=5.0)
        psi = gaussian_packet(grid, 0.0, 1.0)
        final, events = run_grw(psi, 2.0, GaussianKernel(1.0), params, RngStream(31))
        assert len(events) > 0
        assert abs(final.norm_squared - 1.0) < 1e-9
        assert all(e.time <= 2.0 for e in events)

    def test_free_run_reaching_the_edges_warns(self):
        # a width-0.5 packet spreads over a 16-wide box in 20 time units; the
        # free path warns at the edges as the trapped path does, and still
        # evolves exactly
        grid = Grid1D(-8.0, 8.0, 512)
        params = PhysicsParams.scaled(lam=1e-3)
        psi = gaussian_packet(grid, 0.0, 0.5)
        with pytest.warns(BoundaryContamination):
            final, events = run_grw(psi, 20.0, GaussianKernel(1.0), params, RngStream(0))
        assert events == []
        np.testing.assert_array_equal(
            final.amplitudes, evolve_free(psi, params, 20.0).amplitudes
        )

    def test_free_run_inside_the_box_is_silent(self):
        # the same packet free for 1 time unit stays far from the edges: the
        # free path raises no alarm and matches evolve_free
        grid = Grid1D(-8.0, 8.0, 512)
        params = PhysicsParams.scaled(lam=1e-3)
        psi = gaussian_packet(grid, 0.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryContamination)
            final, events = run_grw(psi, 1.0, GaussianKernel(1.0), params, RngStream(0))
        assert events == []
        np.testing.assert_array_equal(
            final.amplitudes, evolve_free(psi, params, 1.0).amplitudes
        )

    def test_grid_state_run_with_potential(self):
        grid = Grid1D(-20.0, 20.0, 512)
        params = PhysicsParams.scaled(lam=3.0)
        psi = gaussian_packet(grid, 1.0, 1.0)
        potential = harmonic_potential(grid, params, 1.0)
        kernel = GaussianKernel(1.0)
        with pytest.raises(ValueError):
            run_grw(psi, 1.0, kernel, params, RngStream(32), potential=potential)
        final, events = run_grw(
            psi, 1.0, kernel, params, RngStream(32), potential=potential, dt=0.01
        )
        assert abs(final.norm_squared - 1.0) < 1e-9
        assert [e.time for e in events] == sorted(e.time for e in events)

    def test_identical_seeds_give_identical_logs(self):
        state = two_branch(0.6, 4.0, n_particles=5)
        params = PhysicsParams.scaled(lam=2.0)

        def log(seed):
            _, events = run_grw(state, 5.0, GaussianKernel(1.0), params, RngStream(seed))
            return [(e.time, e.particle, e.center, e.selected_branch, e.post_weights) for e in events]

        assert log(99) == log(99)
        assert log(99) != log(100)

    @staticmethod
    def inverse_cdf(weights, rng):
        # one uniform per draw, as draw_center_indices consumes it
        cdf = np.cumsum(weights)
        return min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), cdf.size - 1)

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_branched_run_replays_by_hand(self, seed):
        # draw order per hit: the wait, then the particle, then the branch
        state = two_branch(0.6, 4.0, n_particles=5)
        params, kernel, duration = PhysicsParams.scaled(lam=2.0), GaussianKernel(1.0), 5.0
        final, events = run_grw(state, duration, kernel, params, RngStream(seed))

        rng, t, weights, expected = RngStream(seed), 0.0, state.weights, []
        while (wait := rng.exponential(1.0 / hit_rate(5, params))) + t <= duration:
            t += wait
            particle = rng.integers(5)
            k = self.inverse_cdf(np.abs(weights) ** 2, rng)
            positions = state.positions[:, particle]
            expected.append((t, particle, positions[k]))
            weights = branch_hit_weights(weights, positions, float(positions[k]), kernel)
        assert len(expected) > 3
        assert [(e.time, e.particle, e.center) for e in events] == expected
        np.testing.assert_array_equal(final.weights, weights)

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_free_grid_run_replays_by_hand(self, seed):
        # draw order per hit: the wait, then the center; free evolution is exact
        grid = Grid1D(-40.0, 40.0, 1024)
        params, kernel, duration = PhysicsParams.scaled(lam=5.0), GaussianKernel(1.0), 2.0
        psi = gaussian_packet(grid, 0.0, 1.0)
        final, events = run_grw(psi, duration, kernel, params, RngStream(seed))

        rng, t, expected = RngStream(seed), 0.0, []
        while (wait := rng.exponential(1.0 / hit_rate(1, params))) + t <= duration:
            t += wait
            psi = evolve_free(psi, params, wait)
            density = kernel.center_density(mod_square_density(psi), grid)
            center = float(grid.points[self.inverse_cdf(density, rng)])
            expected.append((t, 0, center))
            psi = apply_hit(psi, center, kernel)
        psi = evolve_free(psi, params, duration - t)
        assert len(expected) > 3
        assert [(e.time, e.particle, e.center) for e in events] == expected
        np.testing.assert_array_equal(final.amplitudes, psi.amplitudes)

    def test_events_serialize_with_asdict(self):
        params, kernel = PhysicsParams.scaled(lam=2.0), GaussianKernel(1.0)
        _, branched = run_grw(two_branch(0.6, 4.0, 5), 5.0, kernel, params, RngStream(1))
        psi = gaussian_packet(Grid1D(-40.0, 40.0, 1024), 0.0, 1.0)
        _, grid_events = run_grw(psi, 2.0, kernel, params, RngStream(1))
        assert branched and grid_events
        for event in branched + grid_events:
            # a numpy integer particle would make json.dumps raise
            assert type(event.particle) is int
            record = asdict(event)
            # JSON writes the weight tuples as lists
            expected = record | {k: list(v) for k, v in record.items() if isinstance(v, tuple)}
            assert json.loads(json.dumps(record)) == expected


class TestRngStream:
    @staticmethod
    def philox(seed, spawn_key=()):
        sequence = np.random.SeedSequence(seed, spawn_key=spawn_key)
        return np.random.Generator(np.random.Philox(sequence))

    @pytest.mark.parametrize("seed", [0, 42, 2**40 + 3])
    def test_stream_is_numpy_philox_generator(self, seed):
        for ours, theirs in [
            (RngStream(seed), self.philox(seed)),
            (RngStream.for_trial(seed, 5), self.philox(seed, spawn_key=(5,))),
        ]:
            assert isinstance(ours, np.random.Generator)
            np.testing.assert_array_equal(ours.random(6), theirs.random(6))
            np.testing.assert_array_equal(ours.exponential(0.5, 6), theirs.exponential(0.5, 6))
            np.testing.assert_array_equal(ours.integers(10, size=6), theirs.integers(10, size=6))

    def test_same_seed_same_sequence(self):
        a, b = RngStream(42), RngStream(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_trial_streams_are_distinct(self):
        a = RngStream.for_trial(42, 0)
        b = RngStream.for_trial(42, 1)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_trial_uniforms_row_is_its_counter_block(self):
        seed = 42
        key = np.random.Philox(np.random.SeedSequence(seed)).state["state"]["key"]
        u = RngStream.trial_uniforms(seed, 50)
        assert u.shape == (50, 4)
        for trial in (0, 1, 17, 49):
            raw = np.random.Philox(key=key, counter=trial).random_raw(4)
            assert np.array_equal(u[trial], (raw >> np.uint64(11)) * 2.0**-53)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_trial_uniforms_do_not_depend_on_ensemble_size(self):
        assert np.array_equal(
            RngStream.trial_uniforms(9, 1000)[:37], RngStream.trial_uniforms(9, 37)
        )

    def test_trial_uniforms_peak_near_raw_bits_plus_result(self):
        # the raw bits and the doubles are each the result's size; one more
        # full-size temporary would read 3x
        tracemalloc.start()
        try:
            u = RngStream.trial_uniforms(3, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * u.nbytes


class TestCollapseEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CollapseEvent(time=-1.0, particle=0, center=0.0, kernel="gaussian")

    def test_post_weight_closure_enforced(self):
        with pytest.raises(ValueError):
            CollapseEvent(
                time=0.0,
                particle=0,
                center=0.0,
                kernel="gaussian",
                post_weights=(0.4, 0.4),
            )
