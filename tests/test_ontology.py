"""Matter density, fuzzy link, structure score, displacement, energy ledger."""

import math

import numpy as np
import pytest

from grwlab import (
    BranchedState,
    CompactSupportKernel,
    GaussianKernel,
    Grid1D,
    IdealKernel,
    PhysicsParams,
    Potential1D,
    RngStream,
    WaveFunction1D,
    apply_hit,
    displaced_tail_center,
    energy_expectation,
    energy_gain_per_hit,
    evolve_free,
    fuzzy_link,
    gaussian_packet,
    harmonic_potential,
    isomorphism_score,
    matter_density,
    mod_square_density,
    peak_position,
    sample_center,
    superposition,
    tail_mass,
    uniform_state,
)
from grwlab import ontology
from grwlab.collapse import _profile_spectrum, draw_center_indices
from grwlab.errors import (
    DegenerateRegionError,
    MassMismatchError,
    ZeroNormError,
    ZeroProfileError,
)
from grwlab.ontology import post_hit_gains
from grwlab.state import NORM_FLOOR


def finite_difference_energy(psi, params, potential_values=None):
    """Independent energy oracle: -hbar^2/2m psi* psi'' by central differences."""
    amps = psi.amplitudes
    dx = psi.grid.dx
    lap = (np.roll(amps, -1) - 2 * amps + np.roll(amps, 1)) / dx**2
    kinetic = float(
        np.real(np.sum(np.conj(amps) * (-params.hbar**2 / (2 * params.mass)) * lap)) * dx
    )
    if potential_values is None:
        return kinetic
    return kinetic + float(np.sum(potential_values * np.abs(amps) ** 2) * dx)


def marble_state(inside_weight, inside_pos, outside_pos, width):
    return BranchedState.from_amplitudes(
        [math.sqrt(inside_weight), math.sqrt(1 - inside_weight)],
        ["inside", "outside"],
        [np.array([inside_pos]), np.array([outside_pos])],
        branch_width=width,
    )


class TestMatterDensity:
    def test_one_particle_integral_is_the_mass(self):
        grid = Grid1D(-20.0, 20.0, 512)
        psi = gaussian_packet(grid, 1.0, 1.5)
        field = matter_density(psi, [2.5])
        assert field.total_mass == pytest.approx(2.5, rel=1e-9)

    def test_two_branch_marble_matter_split(self):
        # weighted sum: fraction 1 - inside_weight of the matter sits outside
        grid = Grid1D(-8.0, 8.0, 1024)
        state = marble_state(0.95, 0.0, 6.0, width=0.25)
        field = matter_density(state, [1.0], grid)
        outside = float(np.sum(field.values[grid.points > 3.0]) * grid.dx)
        assert outside == pytest.approx(0.05, abs=1e-9)
        assert field.total_mass == pytest.approx(1.0, rel=1e-9)

    def test_zero_weight_branch_contributes_nothing(self):
        grid = Grid1D(-8.0, 8.0, 512)
        state = BranchedState.from_amplitudes(
            [1.0, 0.0],
            ["live", "dead"],
            [np.array([-2.0]), np.array([4.0])],
            branch_width=0.25,
        )
        live_only = BranchedState.from_amplitudes(
            [1.0], ["live"], [np.array([-2.0])], branch_width=0.25
        )
        field = matter_density(state, [1.0], grid)
        reference = matter_density(live_only, [1.0], grid)
        np.testing.assert_array_equal(field.values, reference.values)

    def test_mass_list_length_checked(self):
        grid = Grid1D(-8.0, 8.0, 512)
        state = marble_state(0.5, 0.0, 4.0, width=0.2)
        with pytest.raises(MassMismatchError):
            matter_density(state, [1.0, 1.0], grid)
        with pytest.raises(MassMismatchError):
            matter_density(gaussian_packet(grid, 0.0, 1.0), [1.0, 1.0])

    def test_matter_conserved_over_random_branched_states(self):
        rng = np.random.default_rng(31)
        grid = Grid1D(-16.0, 16.0, 512)
        for _ in range(25):
            n_branches = int(rng.integers(1, 5))
            n_particles = int(rng.integers(1, 4))
            raw = rng.uniform(0.1, 1.0, size=n_branches)
            weights = np.sqrt(raw / raw.sum())
            positions = [rng.uniform(-10, 10, size=n_particles) for _ in range(n_branches)]
            masses = rng.uniform(0.5, 3.0, size=n_particles)
            state = BranchedState.from_amplitudes(
                list(weights),
                [str(i) for i in range(n_branches)],
                positions,
                branch_width=float(rng.uniform(0.1, 0.5)),
            )
            field = matter_density(state, masses, grid)
            assert field.total_mass == pytest.approx(float(np.sum(masses)), rel=1e-9)


class TestFuzzyLink:
    def test_all_mass_inside_is_located_inside(self):
        grid = Grid1D(-10.0, 10.0, 512)
        psi = gaussian_packet(grid, 0.0, 0.5)
        for q in (0.01, 0.1, 0.49):
            assert fuzzy_link(psi, (-9.0, 9.0), q).verdict == "located_inside"

    def test_half_mass_is_indeterminate(self):
        grid = Grid1D(-10.0, 10.0, 1024)
        psi = superposition(
            [
                (math.sqrt(0.5), gaussian_packet(grid, -5.0, 0.3)),
                (math.sqrt(0.5), gaussian_packet(grid, 5.0, 0.3)),
            ]
        )
        verdict = fuzzy_link(psi, (0.0, 10.0), 0.1)
        assert verdict.verdict == "indeterminate"
        assert verdict.fraction_inside == pytest.approx(0.5, abs=1e-6)

    def test_marble_verdict_on_matter_density(self):
        grid = Grid1D(-8.0, 8.0, 1024)
        state = marble_state(0.95, 0.0, 6.0, width=0.25)
        field = matter_density(state, [1.0], grid)
        verdict = fuzzy_link(field, (-2.0, 2.0), 0.1)
        assert verdict.verdict == "located_inside"
        assert verdict.fraction_inside == pytest.approx(0.95, abs=1e-9)

    def test_trichotomy_is_exhaustive_and_exclusive(self):
        rng = np.random.default_rng(8)
        grid = Grid1D(-10.0, 10.0, 256)
        for _ in range(200):
            inside = float(rng.uniform(0, 1))
            q = float(rng.uniform(1e-6, 0.5 - 1e-6))
            state = marble_state(min(max(inside, 1e-6), 1 - 1e-6), -5.0, 5.0, 0.2)
            field = matter_density(state, [1.0], grid)
            verdict = fuzzy_link(field, (-7.0, 0.0), q)
            f = verdict.fraction_inside
            expected = (
                "located_inside"
                if f > 1 - q
                else ("located_outside" if f < q else "indeterminate")
            )
            assert verdict.verdict == expected

    def test_q_range_enforced(self):
        grid = Grid1D(-10.0, 10.0, 256)
        psi = gaussian_packet(grid, 0.0, 1.0)
        for bad_q in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                fuzzy_link(psi, (-1.0, 1.0), bad_q)

    def test_degenerate_region_rejected(self):
        grid = Grid1D(-10.0, 10.0, 256)
        psi = gaussian_packet(grid, 0.0, 1.0)
        with pytest.raises(DegenerateRegionError):
            fuzzy_link(psi, (2.0, 2.0), 0.1)


class TestTailMass:
    def test_whole_box_leaves_no_tail(self):
        grid = Grid1D(-10.0, 10.0, 256)
        psi = gaussian_packet(grid, 0.0, 1.0)
        assert tail_mass(psi, (grid.x_min - 1.0, grid.x_max)) == 0.0

    def test_post_hit_two_packet_tail(self):
        grid = Grid1D(-10.0, 10.0, 4096)
        separation = 4.0
        psi = superposition(
            [
                (1.0, gaussian_packet(grid, 0.0, 0.03)),
                (1.0, gaussian_packet(grid, separation, 0.03)),
            ]
        )
        post = apply_hit(psi, 0.0, GaussianKernel(1.0))
        tail = tail_mass(post, (-separation / 2, separation / 2))
        assert tail == pytest.approx(math.exp(-8) / (1 + math.exp(-8)), rel=0.01)

    def test_compact_truncation_gives_exact_zero(self):
        grid = Grid1D(-10.0, 10.0, 1024)
        psi = gaussian_packet(grid, 0.0, 1.0)
        post = apply_hit(psi, 0.0, CompactSupportKernel(sigma=1.0, window=1.0))
        assert tail_mass(post, (-1.0, 1.0)) == 0.0

    def test_degenerate_region_rejected(self):
        grid = Grid1D(-10.0, 10.0, 256)
        psi = gaussian_packet(grid, 0.0, 1.0)
        with pytest.raises(DegenerateRegionError):
            tail_mass(psi, (3.0, 3.0))


class TestIsomorphismScore:
    def test_translates_score_one(self):
        x = np.linspace(-10, 10, 256, endpoint=False)
        bump = np.exp(-(x**2) / 2)
        for shift in (1, 7, 100, 200):
            assert isomorphism_score(bump, np.roll(bump, shift)) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_matches_explicit_shift_maximum(self):
        # oracle: brute-force max over all cyclic shifts of the unit-dot
        rng = np.random.default_rng(4)
        a = rng.uniform(0.0, 1.0, size=128)
        b = rng.uniform(0.0, 1.0, size=128)
        ua, ub = a / np.linalg.norm(a), b / np.linalg.norm(b)
        brute = max(float(np.dot(ua, np.roll(ub, s))) for s in range(128))
        assert isomorphism_score(a, b) == pytest.approx(brute, abs=1e-12)

    def test_single_bump_vs_two_bumps_scores_low(self):
        x = np.linspace(-10, 10, 512, endpoint=False)
        one = np.exp(-(x**2) / 2)
        two = np.exp(-((x - 4) ** 2) / 2) + np.exp(-((x + 4) ** 2) / 2)
        assert isomorphism_score(one, two) < 0.95

    def test_scale_invariance(self):
        x = np.linspace(-10, 10, 256, endpoint=False)
        bump = np.exp(-(x**2) / 2)
        assert isomorphism_score(bump, 1e-4 * bump) == pytest.approx(1.0, abs=1e-9)
        assert isomorphism_score(1e6 * bump, bump) == pytest.approx(1.0, abs=1e-9)

    def test_zero_profile_rejected(self):
        with pytest.raises(ZeroProfileError):
            isomorphism_score(np.zeros(64), np.ones(64))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            isomorphism_score(np.ones(64), np.ones(65))


class TestDisplacedTailCenter:
    def test_equal_widths_move_halfway(self):
        sigma = 1.0
        assert displaced_tail_center(10.0, 0.0, sigma, sigma) == pytest.approx(5.0)

    def test_matches_exponent_minimization_oracle(self):
        # oracle: dense argmin of (u-y)^2/(4 s^2) + (u-x)^2/(4 sigma^2)
        rng = np.random.default_rng(12)
        for _ in range(50):
            y, x = rng.uniform(-10, 10, size=2)
            s, sigma = rng.uniform(0.2, 3.0, size=2)
            u = np.linspace(-40, 40, 400_001)
            exponent = (u - y) ** 2 / (4 * s**2) + (u - x) ** 2 / (4 * sigma**2)
            oracle = float(u[np.argmin(exponent)])
            assert displaced_tail_center(y, x, s, sigma) == pytest.approx(oracle, abs=1e-3)

    def test_point_tail_limit_stays_put(self):
        assert displaced_tail_center(10.0, 0.0, 1e-9, 1.0) == pytest.approx(10.0)

    def test_coincident_centers_no_displacement(self):
        assert displaced_tail_center(3.0, 3.0, 0.7, 1.3) == 3.0

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_finite_at_the_magnitude_bounds(self, scale):
        # y sigma^2 would overflow at 1e150 and underflow at 1e-150
        u = displaced_tail_center(10.0 * scale, 0.0, scale, scale)
        assert u == pytest.approx(5.0 * scale, rel=1e-15, abs=0.0)

    def test_displacement_always_toward_center(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y, x = rng.uniform(-20, 20, size=2)
            if x == y:
                continue
            s, sigma = rng.uniform(0.1, 5.0, size=2)
            u = displaced_tail_center(y, x, s, sigma)
            assert (u - y) * (x - y) > 0


class TestPeakPosition:
    def test_global_argmax(self):
        grid = Grid1D(-10.0, 10.0, 512)
        psi = superposition(
            [
                (math.sqrt(0.9), gaussian_packet(grid, -4.0, 0.5)),
                (math.sqrt(0.1), gaussian_packet(grid, 4.0, 0.5)),
            ]
        )
        rho = mod_square_density(psi)
        assert peak_position(grid, rho) == pytest.approx(-4.0, abs=grid.dx)


class TestEnergyExpectation:
    def test_free_gaussian_energy(self):
        # analytic hbar^2/(8 m s^2), cross-checked by finite differences
        grid = Grid1D(-40.0, 40.0, 2048)
        params = PhysicsParams.scaled()
        s = 1.0
        psi = gaussian_packet(grid, 0.0, s)
        expected = params.hbar**2 / (8 * params.mass * s**2)
        assert energy_expectation(psi, params) == pytest.approx(expected, rel=0.01)
        assert finite_difference_energy(psi, params) == pytest.approx(expected, rel=0.01)

    def test_constant_state_has_zero_energy(self):
        grid = Grid1D(-10.0, 10.0, 256)
        params = PhysicsParams.scaled()
        assert energy_expectation(uniform_state(grid), params) == pytest.approx(0.0, abs=1e-15)

    def test_energy_conserved_under_free_evolution(self):
        grid = Grid1D(-40.0, 40.0, 1024)
        params = PhysicsParams.scaled()
        psi = gaussian_packet(grid, 0.0, 1.0, wavenumber=1.5)
        e0 = energy_expectation(psi, params)
        e1 = energy_expectation(evolve_free(psi, params, 4.0), params)
        assert e1 == pytest.approx(e0, rel=1e-9)

    def test_potential_term_included(self):
        grid = Grid1D(-10.0, 10.0, 512)
        params = PhysicsParams.scaled()
        psi = gaussian_packet(grid, 0.0, 1.0)
        values = np.full(grid.n_points, 2.0)
        potential = Potential1D(grid, values)
        kinetic = energy_expectation(psi, params)
        assert energy_expectation(psi, params, potential) == pytest.approx(
            kinetic + 2.0, rel=1e-12
        )

    def test_potential_on_another_grid_rejected(self):
        # same n_points, shifted box: the harmonic well would be read at the
        # wrong points (energy 115.9 instead of 0.625)
        params = PhysicsParams.scaled()
        psi = gaussian_packet(Grid1D(-16.0, 16.0, 256), 0.0, 1.0)
        potential = harmonic_potential(Grid1D(0.0, 32.0, 256), params, 1.0)
        with pytest.raises(ValueError, match="share one grid"):
            energy_expectation(psi, params, potential)


class TestEnergyGainPerHit:
    def test_gaussian_gain_matches_quadrature_oracle(self):
        # oracle: direct quadrature of the post-hit energy over the exact
        # center density p(z), with its own kernel matrix, its own
        # normalization, and finite-difference energies
        grid = Grid1D(-100.0, 100.0, 2048)
        params = PhysicsParams.scaled()
        sigma, s = 1.0, 15.0
        psi = gaussian_packet(grid, 0.0, s)
        x = grid.points
        rho = mod_square_density(psi)
        kernel_matrix = np.exp(
            -(grid.wrap(x[:, None] - x[None, :]) ** 2) / (2 * sigma**2)
        ) / math.sqrt(2 * math.pi * sigma**2)
        p_z = kernel_matrix @ rho * grid.dx
        p_z /= np.sum(p_z) * grid.dx
        e_before = finite_difference_energy(psi, params)
        gains = np.empty(grid.n_points)
        for i, z in enumerate(x):
            post = psi.amplitudes * np.exp(-(grid.wrap(x - z) ** 2) / (4 * sigma**2))
            post = post / math.sqrt(float(np.sum(np.abs(post) ** 2) * grid.dx))
            post_psi = WaveFunction1D(grid, post)
            gains[i] = finite_difference_energy(post_psi, params) - e_before
        oracle_mean = float(np.sum(p_z * gains) * grid.dx)

        # the oracle itself must sit at the convention-pinned analytic value
        assert oracle_mean == pytest.approx(
            params.hbar**2 / (8 * params.mass * sigma**2), rel=0.01
        )

        mean, spread = energy_gain_per_hit(
            psi, GaussianKernel(sigma), params, RngStream(71), 1000
        )
        assert mean == pytest.approx(oracle_mean, rel=0.05)
        assert spread >= 0.0

    def test_ideal_gain_diverges_with_resolution(self):
        # the unphysical reference: finer grid, strictly larger energy cost
        params = PhysicsParams.scaled()
        gains = []
        for n_points in (2048, 4096):
            grid = Grid1D(-100.0, 100.0, n_points)
            psi = gaussian_packet(grid, 0.0, 15.0)
            mean, _ = energy_gain_per_hit(psi, IdealKernel(), params, RngStream(72), 100)
            gains.append(mean)
        assert gains[1] > gains[0]

    def test_compact_gain_finite_and_above_gaussian(self):
        # hard truncation injects edge energy: finite at fixed resolution but
        # well above the Gaussian kernel's gain on the same input (it grows
        # with grid wavenumber range, unlike the Gaussian's fixed cost)
        grid = Grid1D(-100.0, 100.0, 2048)
        params = PhysicsParams.scaled()
        psi = gaussian_packet(grid, 0.0, 15.0)
        gaussian_mean, _ = energy_gain_per_hit(
            psi, GaussianKernel(1.0), params, RngStream(73), 200
        )
        compact_mean, _ = energy_gain_per_hit(
            psi, CompactSupportKernel(1.0, 1.0), params, RngStream(74), 200
        )
        assert math.isfinite(compact_mean)
        assert compact_mean > gaussian_mean > 0

    LEDGER_GRID = Grid1D(-32.0, 32.0, 2048)
    # irfft without n returns n - 1 points on an odd grid
    ODD_GRID = Grid1D(-32.0, 32.0, 2047)

    @pytest.mark.parametrize(
        "psi",
        [
            # |psi'|^2 carries the k0^2 rho term of the mean momentum
            gaussian_packet(LEDGER_GRID, -3.0, 2.0, wavenumber=3.0),
            # interference between unequal, differently moving packets makes
            # the post-hit energy depend on the center
            superposition(
                [
                    (math.sqrt(0.8), gaussian_packet(LEDGER_GRID, -6.0, 1.5)),
                    (math.sqrt(0.2), gaussian_packet(LEDGER_GRID, 7.0, 0.8, wavenumber=-1.5)),
                ]
            ),
            # two sigma from x_max: packet, kernel and correlations wrap
            gaussian_packet(LEDGER_GRID, 30.0, 1.0),
            gaussian_packet(ODD_GRID, -3.0, 2.0, wavenumber=3.0),
        ],
        ids=["moving_packet", "unequal_superposition", "near_edge", "odd_grid"],
    )
    # None is the narrowest width the closed form takes, 2 dx
    @pytest.mark.parametrize("sigma", [1.0, None, 0.1, 2.0], ids=["1", "2dx", "0.1", "2"])
    def test_closed_form_matches_per_hit_energies(self, psi, sigma):
        grid = psi.grid
        params = PhysicsParams.scaled()
        kernel = GaussianKernel(2.0 * grid.dx if sigma is None else sigma)
        density = kernel.center_density(mod_square_density(psi), grid)
        indices = draw_center_indices(density, RngStream(5).random(300))
        per_hit = [
            energy_expectation(apply_hit(psi, float(grid.points[i]), kernel), params)
            for i in indices
        ]
        closed = post_hit_gains(psi, kernel, params, RngStream(5), 300)
        # compared as energies: a gain is a small difference of two of them
        closed += energy_expectation(psi, params)
        np.testing.assert_allclose(closed, per_hit, rtol=1e-12, atol=0.0)

    def test_unresolved_gaussian_is_priced_per_hit(self):
        # at sigma = 0.5 dx the closed form's energies are up to 7% off; the
        # gains must be the per-hit ones, at the same draws
        grid = self.LEDGER_GRID
        psi = gaussian_packet(grid, -3.0, 2.0, wavenumber=3.0)
        kernel, params = GaussianKernel(0.5 * grid.dx), PhysicsParams.scaled()
        before = energy_expectation(psi, params)
        density = kernel.center_density(mod_square_density(psi), grid)
        indices = draw_center_indices(density, RngStream(9).random(200))
        gains = np.array(
            [
                energy_expectation(apply_hit(psi, float(grid.points[i]), kernel), params)
                for i in indices
            ]
        ) - before
        result = energy_gain_per_hit(psi, kernel, params, RngStream(9), 200)
        assert result == (float(np.mean(gains)), float(np.std(gains)))

    def test_gaussian_call_runs_a_fixed_transform_budget(self, monkeypatch):
        # on a warm profile cache: the fft/ifft pair of psi' (which also
        # gives <H> before), one rfft of rho shared by the center density and
        # the numerator, one rfft of |psi'|^2, and an irfft for each of the
        # center density and the numerator
        grid = self.LEDGER_GRID
        psi = gaussian_packet(grid, -3.0, 2.0, wavenumber=3.0)
        kernel, params = GaussianKernel(1.0), PhysicsParams.scaled()
        energy_gain_per_hit(psi, kernel, params, RngStream(5), 100)
        spectrum = _profile_spectrum(kernel, grid)
        counts = dict.fromkeys(["fft", "ifft", "rfft", "irfft"], 0)

        def counting(name, transform):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return transform(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        energy_gain_per_hit(psi, kernel, params, RngStream(5), 100)
        assert counts == {"fft": 1, "ifft": 1, "rfft": 2, "irfft": 2}
        # the second call read the same entry: the center profile's spectrum,
        # which also gives that of h = -g g''
        assert _profile_spectrum(kernel, grid) is spectrum
        offsets = grid.wrap(grid.points - grid.x_min)
        np.testing.assert_array_equal(spectrum, np.fft.rfft(kernel.center_profile(offsets)))

    def test_closed_form_raises_where_the_center_density_vanishes(self, monkeypatch):
        # like apply_hit, which raises where the hit annihilates the state
        grid = self.LEDGER_GRID
        psi = gaussian_packet(grid, 0.0, 0.5)
        kernel = GaussianKernel(0.5)
        density = kernel.center_density(mod_square_density(psi), grid)
        empty = np.flatnonzero(density < NORM_FLOOR)
        assert empty.size > 0
        # draws follow the density, so force one onto an empty center
        monkeypatch.setattr(ontology, "draw_center_indices", lambda *args: empty[:1])
        with pytest.raises(ZeroNormError):
            post_hit_gains(psi, kernel, PhysicsParams.scaled(), RngStream(5), 1)

    def test_draws_the_same_centers_as_sample_center(self, monkeypatch):
        grid = self.LEDGER_GRID
        psi = gaussian_packet(grid, -3.0, 2.0, wavenumber=3.0)
        kernel = GaussianKernel(1.0)
        drawn = []

        def spy(density, uniforms):
            indices = draw_center_indices(density, uniforms)
            drawn.append(grid.points[indices])
            return indices

        monkeypatch.setattr(ontology, "draw_center_indices", spy)
        rng = RngStream(61)
        energy_gain_per_hit(psi, kernel, PhysicsParams.scaled(), rng, 50)
        np.testing.assert_array_equal(
            drawn[0], sample_center(psi, kernel, RngStream(61), size=50)
        )
        # the centers and the next draw of the per-hit implementation
        # (sample_center, then one hit per center)
        assert list(drawn[0][:5]) == [-4.90625, -7.0625, -2.125, -1.8125, -6.6875]
        assert float(np.sum(drawn[0])) == -166.59375
        assert rng.random() == 0.4822694018347802

    @pytest.mark.parametrize(
        "kernel, seed, n_trials, expected",
        [
            (CompactSupportKernel(1.0, 1.0), 74, 200, (5.030497156423403, 0.009049969957633958)),
            (IdealKernel(), 72, 100, (172.4833650990929, 9.95165771656252e-14)),
        ],
        ids=["compact_support", "ideal"],
    )
    def test_per_hit_kernels_keep_their_values(self, kernel, seed, n_trials, expected):
        # the values of the per-hit implementation, which these kernels keep
        grid = Grid1D(-100.0, 100.0, 2048)
        psi = gaussian_packet(grid, 0.0, 15.0)
        result = energy_gain_per_hit(psi, kernel, PhysicsParams.scaled(), RngStream(seed), n_trials)
        assert result == expected


class TestTailReport:
    def test_fresh_post_hit_tail_is_near_isomorphic_to_center(self):
        # symmetric packets, Gaussian hit: both lobes stay Gaussian with the
        # same width, so their unit-normalized profiles nearly coincide
        grid = Grid1D(-16.0, 16.0, 2048)
        separation = 4.0
        psi = superposition(
            [
                (1.0, gaussian_packet(grid, 0.0, 0.125)),
                (1.0, gaussian_packet(grid, separation, 0.125)),
            ]
        )
        post = apply_hit(psi, 0.0, GaussianKernel(1.0))
        rho = mod_square_density(post)
        half_cells = int(round(3.0 / grid.dx))
        offsets = np.arange(-half_cells, half_cells + 1)
        idx_center = (grid.nearest_index(0.0) + offsets) % grid.n_points
        idx_tail = (grid.nearest_index(separation) + offsets) % grid.n_points
        score = isomorphism_score(rho[idx_center], rho[idx_tail])
        assert score > 0.99
