"""Unitary propagation: dispersion, stationarity, convergence, hygiene."""

import numpy as np
import pytest

from grwlab import (
    Grid1D,
    PhysicsParams,
    Potential1D,
    evolve,
    evolve_free,
    gaussian_packet,
    harmonic_potential,
    mod_square_density,
    uniform_state,
)
from grwlab.errors import BoundaryContamination, NonFiniteInputError
from grwlab.propagator import BOUNDARY_CELLS, boundary_density


def quad_variance(grid, density):
    mean = np.sum(grid.points * density) * grid.dx
    return np.sum((grid.points - mean) ** 2 * density) * grid.dx


@pytest.fixture
def params():
    return PhysicsParams.scaled()


@pytest.fixture
def grid():
    return Grid1D(-40.0, 40.0, 1024)


class TestEvolveFree:
    def test_dt_zero_is_identity(self, grid, params):
        psi = gaussian_packet(grid, 0.0, 1.0)
        out = evolve_free(psi, params, 0.0)
        np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)

    def test_constant_state_unchanged(self, grid, params):
        # only the k = 0 component is populated; its phase factor is exactly 1
        psi = uniform_state(grid)
        out = evolve_free(psi, params, 2.7)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12

    def test_free_packet_dispersion_law(self, grid, params):
        # width oracle: s(t) = s sqrt(1 + (hbar t / (2 m s^2))^2), checked by
        # quadrature of the evolved density
        s, t = 1.0, 3.0
        psi = gaussian_packet(grid, 0.0, s)
        out = evolve_free(psi, params, t)
        expected = s * np.sqrt(1.0 + (params.hbar * t / (2 * params.mass * s**2)) ** 2)
        measured = np.sqrt(quad_variance(grid, mod_square_density(out)))
        assert measured == pytest.approx(expected, rel=1e-3)

    def test_norm_preserved_tightly(self, grid, params):
        psi = gaussian_packet(grid, 0.0, 1.0)
        out = evolve_free(psi, params, 5.0)
        assert abs(out.norm_squared - 1.0) < 1e-12

    def test_time_reversal(self, grid, params):
        psi = gaussian_packet(grid, 1.0, 1.0, wavenumber=2.0)
        back = evolve_free(evolve_free(psi, params, 0.8), params, -0.8)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-9

    def test_rejects_non_finite_dt(self, grid, params):
        psi = gaussian_packet(grid, 0.0, 1.0)
        with pytest.raises(NonFiniteInputError):
            evolve_free(psi, params, np.nan)


class TestEvolve:
    def test_zero_potential_matches_free(self, grid, params):
        psi = gaussian_packet(grid, 0.0, 1.0)
        v0 = Potential1D(grid, np.zeros(grid.n_points))
        split = evolve(psi, v0, params, 0.01, 100)
        free = evolve_free(psi, params, 1.0)
        assert np.max(np.abs(split.amplitudes - free.amplitudes)) < 1e-10

    def test_harmonic_ground_state_is_stationary(self, params):
        # stationarity oracle: ground-state width sqrt(hbar / (2 m omega))
        omega = 1.0
        grid = Grid1D(-20.0, 20.0, 512)
        width = np.sqrt(params.hbar / (2.0 * params.mass * omega))
        ground = gaussian_packet(grid, 0.0, width)
        potential = harmonic_potential(grid, params, omega)
        period = 2.0 * np.pi / omega
        out = evolve(ground, potential, params, period / 2000, 2000)
        drift = np.max(np.abs(mod_square_density(out) - mod_square_density(ground)))
        assert drift < 1e-4

    def test_second_order_convergence_in_dt(self, params):
        # halving dt must cut the error against a dt/16 reference by ~4x
        grid = Grid1D(-20.0, 20.0, 512)
        potential = harmonic_potential(grid, params, 1.0)
        psi = gaussian_packet(grid, 3.0, np.sqrt(0.5))
        total = 1.0

        def error(n_steps, reference):
            out = evolve(psi, potential, params, total / n_steps, n_steps)
            return np.max(np.abs(out.amplitudes - reference.amplitudes))

        reference = evolve(psi, potential, params, total / 512, 512)
        ratio_1 = error(16, reference) / error(32, reference)
        ratio_2 = error(32, reference) / error(64, reference)
        assert 3.5 <= ratio_1 <= 4.5
        assert 3.5 <= ratio_2 <= 4.5

    def test_norm_drift_below_1e9_per_1000_steps(self, params):
        grid = Grid1D(-20.0, 20.0, 512)
        potential = harmonic_potential(grid, params, 1.0)
        psi = gaussian_packet(grid, 2.0, 1.0)
        out = evolve(psi, potential, params, 0.005, 1000)
        assert abs(out.norm_squared - 1.0) < 1e-9

    def test_boundary_contamination_warning(self, params):
        # packet dispersing in a small box must trip the edge alarm
        grid = Grid1D(-5.0, 5.0, 256)
        psi = gaussian_packet(grid, 0.0, 0.5)
        with pytest.warns(BoundaryContamination):
            evolve(psi, None, params, 1.0, 20)

    def test_rejects_bad_steps(self, grid, params):
        psi = gaussian_packet(grid, 0.0, 1.0)
        v0 = Potential1D(grid, np.zeros(grid.n_points))
        with pytest.raises(NonFiniteInputError):
            evolve(psi, v0, params, 0.0, 10)
        with pytest.raises(ValueError):
            evolve(psi, v0, params, 0.1, 0)

    def test_potential_rejects_non_finite(self, grid):
        values = np.zeros(grid.n_points)
        values[3] = np.inf
        with pytest.raises(NonFiniteInputError):
            Potential1D(grid, values)


class TestBoundaryDensity:
    def test_overlapping_edges_count_each_cell_once(self):
        # on 4 points the two 5-cell edge slices overlap and cover the box
        psi = uniform_state(Grid1D(-1.0, 1.0, 4))
        assert boundary_density(psi) == psi.norm_squared

    @pytest.mark.parametrize("n_points", [2 * BOUNDARY_CELLS, 1024])
    def test_disjoint_edges_sum_low_then_high(self, n_points):
        psi = gaussian_packet(Grid1D(-3.0, 3.0, n_points), 0.5, 1.0)
        density = np.abs(psi.amplitudes) ** 2 * psi.grid.dx
        expected = float(np.sum(density[:BOUNDARY_CELLS]) + np.sum(density[-BOUNDARY_CELLS:]))
        assert boundary_density(psi) == expected
