"""Grid, wavefunction, and branched-state contracts."""

import numpy as np
import pytest

from grwlab import (
    BranchedState,
    Grid1D,
    PhysicsParams,
    WaveFunction1D,
    gaussian_packet,
    mod_square_density,
    momentum_representation,
    uniform_state,
)
from grwlab.errors import NonFiniteInputError, NotNormalizedError, ZeroNormError


def quad_variance(grid, density):
    """Independent quadrature oracle for the position variance."""
    mean = np.sum(grid.points * density) * grid.dx
    return np.sum((grid.points - mean) ** 2 * density) * grid.dx


@pytest.fixture
def grid():
    return Grid1D(-40.0, 40.0, 1024)


class TestGrid1D:
    def test_spacing_covers_box_exactly(self, grid):
        assert grid.dx * grid.n_points == pytest.approx(grid.x_max - grid.x_min, rel=1e-15)
        assert grid.points[0] == grid.x_min
        assert grid.points[-1] == pytest.approx(grid.x_max - grid.dx)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 1.0, 64)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)

    def test_wrap_is_minimal_image(self, grid):
        assert grid.wrap(79.0) == pytest.approx(-1.0)
        assert grid.wrap(-79.0) == pytest.approx(1.0)
        assert grid.wrap(3.0) == pytest.approx(3.0)


class TestPhysicsParams:
    def test_defaults_are_paper_rate_and_width(self):
        p = PhysicsParams()
        assert p.lam == 1e-16
        assert p.sigma == 1e-5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicsParams(lam=0.0)
        with pytest.raises(ValueError):
            PhysicsParams(sigma=-1.0)

    def test_scaled_mode(self):
        p = PhysicsParams.scaled(lam=0.5)
        assert (p.hbar, p.mass, p.sigma) == (1.0, 1.0, 1.0)


class TestNormalize:
    def test_doubled_amplitudes_halved_back(self, grid):
        psi = gaussian_packet(grid, 0.0, 2.0)
        doubled = WaveFunction1D.from_samples(grid, 2.0 * psi.amplitudes)
        np.testing.assert_allclose(doubled.amplitudes, psi.amplitudes, rtol=1e-14)
        assert doubled.norm_squared == pytest.approx(1.0, abs=1e-9)

    def test_all_zeros_raises(self, grid):
        with pytest.raises(ZeroNormError):
            WaveFunction1D.from_samples(grid, np.zeros(grid.n_points))

    @pytest.mark.parametrize("width", [1e-31, 1e-150])
    def test_narrow_packet_normalizes(self, width):
        # the dimensional norm^2 of the samples is near width, far below 1e-30
        grid = Grid1D(-32.0 * width, 32.0 * width, 256)
        assert gaussian_packet(grid, 0.0, width).norm_squared == pytest.approx(1.0, abs=1e-9)

    def test_constructor_rejects_unnormalized(self, grid):
        with pytest.raises(NotNormalizedError):
            WaveFunction1D(grid, np.ones(grid.n_points, dtype=complex))

    def test_scaling_is_by_a_single_positive_real(self, grid):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
        psi = WaveFunction1D.from_samples(grid, samples)
        ratio = psi.amplitudes / samples
        assert np.allclose(ratio.imag, 0.0, atol=1e-15)
        assert np.allclose(ratio.real, ratio.real[0], rtol=1e-12)
        assert ratio.real[0] > 0


class TestModSquareDensity:
    def test_normalized_state_integrates_to_one(self, grid):
        psi = gaussian_packet(grid, 3.0, 1.5)
        assert np.sum(mod_square_density(psi)) * grid.dx == pytest.approx(1.0, abs=1e-9)

    def test_single_point_density(self, grid):
        samples = np.zeros(grid.n_points, dtype=complex)
        samples[100] = 1.0
        psi = WaveFunction1D.from_samples(grid, samples)
        density = mod_square_density(psi)
        assert density[100] == pytest.approx(1.0 / grid.dx)
        assert np.sum(density) * grid.dx == pytest.approx(1.0)
        assert np.count_nonzero(density) == 1

    def test_gaussian_density_variance_is_width_squared(self, grid):
        # amplitude exp(-(x-x0)^2/(4 s^2)) must give position variance s^2
        s = 1.25
        psi = gaussian_packet(grid, -2.0, s)
        assert quad_variance(grid, mod_square_density(psi)) == pytest.approx(
            s**2, rel=1e-9
        )


class TestMomentumRepresentation:
    def test_constant_function_is_pure_dc(self, grid):
        psi = uniform_state(grid)
        psi_k = momentum_representation(psi)
        weights = np.abs(psi_k) ** 2
        assert weights[0] == pytest.approx(np.sum(weights), rel=1e-12)

    def test_parseval_for_random_state(self, grid):
        rng = np.random.default_rng(5)
        psi = WaveFunction1D.from_samples(
            grid, rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
        )
        psi_k = momentum_representation(psi)
        lhs = np.sum(np.abs(psi_k) ** 2)
        rhs = np.sum(np.abs(psi.amplitudes) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_minimum_uncertainty_momentum_variance(self, grid):
        # position variance s^2 pairs with momentum variance hbar^2/(4 s^2)
        params = PhysicsParams.scaled()
        s = 1.0
        psi = gaussian_packet(grid, 0.0, s)
        psi_k = momentum_representation(psi)
        p = params.hbar * grid.wavenumbers
        var_p = np.sum(p**2 * np.abs(psi_k) ** 2) * grid.dx
        assert var_p == pytest.approx(params.hbar**2 / (4 * s**2), rel=0.01)

    def test_roundtrip_unitarity(self, grid):
        rng = np.random.default_rng(17)
        psi = WaveFunction1D.from_samples(
            grid, rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
        )
        back = np.fft.ifft(momentum_representation(psi)) * np.sqrt(grid.n_points)
        assert np.max(np.abs(back - psi.amplitudes)) < 1e-12


def two_branch_state(separation, weights=(np.sqrt(0.5), np.sqrt(0.5)), n_particles=3):
    return BranchedState.from_amplitudes(
        list(weights),
        ["0", "1"],
        [np.zeros(n_particles), separation * np.ones(n_particles)],
        branch_width=0.1,
    )


class TestBranchedState:
    def test_weight_closure_enforced(self):
        state = two_branch_state(4.0)
        assert np.sum(state.probabilities) == pytest.approx(1.0, abs=1e-9)

    def test_unique_labels_required(self):
        with pytest.raises(ValueError):
            BranchedState.from_amplitudes(
                [1.0, 0.0], ["x", "x"], [np.zeros(1), np.ones(1)], branch_width=0.1
            )

    def test_equal_particle_count_required(self):
        with pytest.raises(ValueError):
            BranchedState.from_amplitudes(
                [1.0, 0.0], ["a", "b"], [np.zeros(2), np.zeros(3)], branch_width=0.1
            )

    @pytest.mark.parametrize(
        "weights, labels, positions",
        [
            ([], [], np.zeros((0, 1))),  # no branch
            ([1.0, 0.0], ["a", "b"], np.zeros((3, 1))),  # three position rows
            ([1.0, 0.0], ["a", "b", "c"], np.zeros((2, 1))),  # three labels
            ([1.0, 0.0], ["a", "b"], np.zeros(2)),  # positions not a matrix
            ([[1.0, 0.0]], ["a", "b"], np.zeros((2, 1))),  # weights not a vector
        ],
    )
    def test_constructor_rejects_mismatched_shapes(self, weights, labels, positions):
        with pytest.raises(ValueError, match="need k >= 1 branches"):
            BranchedState(np.array(weights), labels, positions, branch_width=0.1)

    def test_constructor_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            BranchedState([1.0, 0.0], ["x", "x"], np.zeros((2, 1)), branch_width=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite_positions(self, bad):
        with pytest.raises(NonFiniteInputError):
            BranchedState([1.0, 0.0], ["a", "b"], [[0.0], [bad]], branch_width=0.1)

    @pytest.mark.parametrize("weights", [[1.0, 1.0], [0.5, 0.5], [np.nan, 1.0], [1.0 + 2e-9, 0.0]])
    def test_constructor_rejects_bad_closure(self, weights):
        with pytest.raises(NotNormalizedError):
            BranchedState(weights, ["a", "b"], np.zeros((2, 1)), branch_width=0.1)

    def test_arrays_and_branch_records_agree(self):
        state = two_branch_state(4.0, weights=(0.6, 0.8j), n_particles=2)
        assert state.positions.shape == (state.n_branches, state.n_particles) == (2, 2)
        assert state.labels == ("0", "1")
        np.testing.assert_array_equal(state.weights, [0.6, 0.8j])
        for branch, weight, label, row in zip(
            state.branches, state.weights, state.labels, state.positions
        ):
            assert (branch.weight, branch.label) == (weight, label)
            np.testing.assert_array_equal(branch.positions, row)


class TestImmutability:
    def test_amplitudes_read_only(self, grid):
        psi = gaussian_packet(grid, 0.0, 1.0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    def test_branch_positions_read_only(self):
        state = two_branch_state(1.0)
        with pytest.raises(ValueError):
            state.branches[0].positions[0] = 9.0

    def test_state_arrays_read_only(self):
        state = two_branch_state(1.0)
        with pytest.raises(ValueError):
            state.positions[0, 0] = 9.0
        with pytest.raises(ValueError):
            state.weights[0] = 1.0


def test_norm_preserved_over_random_constructions():
    # every constructor / normalization path must land within the norm window
    rng = np.random.default_rng(23)
    grid = Grid1D(-10.0, 10.0, 256)
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-6, 6)
        samples = scale * (
            rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
        )
        psi = WaveFunction1D.from_samples(grid, samples)
        assert abs(psi.norm_squared - 1.0) <= 1e-9
