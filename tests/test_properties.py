"""Property tests (Hypothesis) for the grid primitives behind run_grw:
``Grid1D.wrap``, Strang ``evolve``, ``evolve_free`` and the kinetic energy
against the formulas they replace, and ``center_density`` with its cached
profile spectrum."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grwlab import (
    CompactSupportKernel,
    GaussianKernel,
    Grid1D,
    IdealKernel,
    PhysicsParams,
    Potential1D,
    WaveFunction1D,
    energy_expectation,
    evolve,
    evolve_free,
    gaussian_packet,
    harmonic_potential,
    mod_square_density,
    momentum_representation,
)
from grwlab.collapse import _profile_spectrum
from grwlab.errors import BoundaryContamination
from grwlab.propagator import _kinetic_energies

# FFT-heavy examples run longer than Hypothesis's default 200 ms deadline
# on a loaded machine; the example counts keep the file at a few seconds.
FFT_SETTINGS = settings(max_examples=40, deadline=None)

KERNELS = [GaussianKernel(0.7), CompactSupportKernel(0.7, 1.1), IdealKernel()]
KERNEL_IDS = ["gaussian", "compact_support", "ideal"]


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return WaveFunction1D.from_samples(grid, samples)


def reference_strang(psi, potential, params, dt, n_steps):
    """The Strang loop written out directly: phases from k^2 at every call,
    complex FFTs and numpy's scaled inverse transform."""
    k = psi.grid.wavenumbers
    kinetic = np.exp(-1j * params.hbar * k**2 * dt / (2.0 * params.mass))
    half = np.exp(-1j * potential.values * dt / (2.0 * params.hbar))
    amps = psi.amplitudes * half
    for _ in range(n_steps - 1):
        amps = np.fft.ifft(kinetic * np.fft.fft(amps))
        amps *= half * half
    return np.fft.ifft(kinetic * np.fft.fft(amps)) * half


def reference_evolve_free(psi, params, dt):
    """Free evolution written out directly: the phase from k^2 over all n
    wavenumbers, as one complex exp."""
    k = psi.grid.wavenumbers
    phase = np.exp(-1j * params.hbar * k**2 * dt / (2.0 * params.mass))
    return np.fft.ifft(phase * np.fft.fft(psi.amplitudes))


def reference_kinetic_energy(psi, params):
    """The kinetic term of <H> written out directly over all n wavenumbers."""
    grid = psi.grid
    psi_k = momentum_representation(psi)
    weights = params.hbar**2 * grid.wavenumbers**2 / (2.0 * params.mass)
    return float(np.sum(weights * np.abs(psi_k) ** 2) * grid.dx)


def reference_compact_factor(kernel, d):
    """The compact kernel's amplitude factor with its Gaussian interior spelled out."""
    d = np.asarray(d, dtype=np.float64)
    inside = np.abs(d) <= kernel.window
    return np.exp(-np.square(d) / (4.0 * kernel.sigma**2)) * inside


def quiet_evolve(*args):
    # random states touch the box edges; the alarm is not under test here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContamination)
        return evolve(*args)


@st.composite
def grids_and_offsets(draw):
    x_min = draw(st.floats(-1e6, 1e6))
    grid = Grid1D(x_min, x_min + draw(st.floats(1e-6, 1e6)), 8)
    L = grid.length
    edges = [0.0, -0.0, L / 2, -L / 2, L, -L, 1.5 * L, -1.5 * L, 5e-324, -5e-324, 2.0**-1050]
    offset = st.one_of(
        st.sampled_from(edges),
        st.floats(-4.0, 4.0).map(lambda u: u * L),
        st.floats(-1e300, 1e300).map(lambda u: u * L),
    )
    return grid, np.array(draw(st.lists(offset, min_size=1, max_size=64)))


class TestWrap:
    @given(grids_and_offsets())
    @settings(max_examples=300)
    def test_bit_identical_to_float_modulo(self, case):
        grid, offsets = case
        L = grid.length
        expected = (offsets + 0.5 * L) % L - 0.5 * L
        wrapped = grid.wrap(offsets)
        np.testing.assert_array_equal(wrapped.view(np.int64), expected.view(np.int64))
        scalar = grid.wrap(float(offsets[0]))
        assert np.float64(scalar).view(np.int64) == expected[:1].view(np.int64)[0]


class TestEvolveProperties:
    @pytest.mark.parametrize("parity", [0, 1], ids=["even_n", "odd_n"])
    @given(
        half=st.integers(4, 160),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.0, 1e3),
        dt=st.floats(1e-3, 0.5),
        n_steps=st.integers(1, 25),
    )
    @FFT_SETTINGS
    def test_unitary_under_random_real_potentials(self, parity, half, seed, scale, dt, n_steps):
        grid = Grid1D(-10.0, 10.0, 2 * half + parity)
        values = scale * np.random.default_rng(seed + 1).standard_normal(grid.n_points)
        psi = random_state(grid, seed)
        out = quiet_evolve(psi, Potential1D(grid, values), PhysicsParams.scaled(), dt, n_steps)
        assert abs(out.norm_squared - 1.0) <= 1e-12

    @pytest.mark.parametrize("parity", [0, 1], ids=["even_n", "odd_n"])
    @given(
        half=st.integers(32, 360),
        omega=st.floats(0.1, 2.0),
        center=st.floats(-3.0, 3.0),
        width=st.floats(0.5, 2.0),
        wavenumber=st.floats(-2.0, 2.0),
        dt=st.floats(1e-3, 0.2),
        n_steps=st.integers(1, 50),
    )
    @example(half=32, omega=1.0, center=0.0, width=0.5, wavenumber=0.0, dt=0.2, n_steps=50)
    @FFT_SETTINGS
    def test_matches_reference_strang_loop_in_a_harmonic_trap(
        self, parity, half, omega, center, width, wavenumber, dt, n_steps
    ):
        # the mirrored half-spectrum of k^2 must reproduce every k exactly,
        # for odd n (no Nyquist bin) and even n
        params = PhysicsParams.scaled()
        grid = Grid1D(-20.0, 20.0, 2 * half + parity)
        psi = gaussian_packet(grid, center, width, wavenumber)
        potential = harmonic_potential(grid, params, omega)
        out = quiet_evolve(psi, potential, params, dt, n_steps)
        reference = reference_strang(psi, potential, params, dt, n_steps)
        assert np.max(np.abs(out.amplitudes - reference)) <= 1e-12

    @given(n=st.integers(2, 400))
    def test_mirror_maps_every_wavenumber_onto_its_half(self, n):
        grid = Grid1D(-1.0, 1.0, n)
        params = PhysicsParams.scaled()
        energies, mirror = _kinetic_energies(grid, params)
        k = grid.wavenumbers
        np.testing.assert_array_equal(
            energies[mirror], params.hbar * k**2 / (2.0 * params.mass)
        )


class TestKineticOperator:
    """evolve_free and energy_expectation read the Strang step's cached
    kinetic energies; in scaled units (hbar = m = 1) they reproduce the
    formulas they replace bit for bit, and in SI units up to the rounding
    order of hbar k^2 dt / 2m."""

    @pytest.mark.parametrize("parity", [0, 1], ids=["even_n", "odd_n"])
    @given(
        half=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        dt=st.floats(1e-3, 50.0),
        backward=st.booleans(),
    )
    @FFT_SETTINGS
    def test_scaled_units_are_bit_identical(self, parity, half, seed, dt, backward):
        params = PhysicsParams.scaled()
        grid = Grid1D(-10.0, 10.0, 2 * half + parity)
        psi = random_state(grid, seed)
        dt = -dt if backward else dt
        out = evolve_free(psi, params, dt).amplitudes
        reference = reference_evolve_free(psi, params, dt)
        np.testing.assert_array_equal(out.view(np.int64), reference.view(np.int64))
        assert energy_expectation(psi, params) == reference_kinetic_energy(psi, params)

    # the bare SI configs' scale: sigma = 1e-5 m, a box of +-16 sigma and
    # times in units of the dispersion scale m sigma^2 / hbar
    @pytest.mark.parametrize("n", [2047, 2048])
    @pytest.mark.parametrize("scale", [-0.7, 0.1, 1.0, 3.0])
    def test_si_units_agree_to_rounding(self, n, scale):
        params = PhysicsParams()
        sigma = params.sigma
        grid = Grid1D(-16.0 * sigma, 16.0 * sigma, n)
        psi = gaussian_packet(grid, 2.0 * sigma, 0.5 * sigma, 3.0 / sigma)
        dt = scale * params.mass * sigma**2 / params.hbar
        out = evolve_free(psi, params, dt).amplitudes
        reference = reference_evolve_free(psi, params, dt)
        assert np.max(np.abs(out - reference)) <= 1e-13 * np.max(np.abs(reference))
        energy = reference_kinetic_energy(psi, params)
        assert abs(energy_expectation(psi, params) - energy) <= 1e-13 * energy

    @given(
        sigma=st.floats(1e-6, 1e3),
        window=st.floats(1e-6, 1e3),
        offsets=st.lists(st.floats(-1e4, 1e4), max_size=32),
    )
    def test_compact_factor_is_the_gaussian_inside_the_window(self, sigma, window, offsets):
        kernel = CompactSupportKernel(sigma, window)
        beyond = np.nextafter(window, np.inf)
        d = np.array([0.0, -0.0, window, -window, beyond, -beyond, *offsets])
        factor = kernel.amplitude_factor(d)
        reference = reference_compact_factor(kernel, d)
        np.testing.assert_array_equal(factor.view(np.int64), reference.view(np.int64))
        np.testing.assert_array_equal(factor[4:6], [0.0, 0.0])
        assert kernel.amplitude_factor(window) == reference_compact_factor(kernel, window)


class TestCenterDensity:
    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    @given(n=st.integers(16, 400), seed=st.integers(0, 2**32 - 1))
    @FFT_SETTINGS
    def test_matches_direct_circular_sum(self, kernel, n, seed):
        grid = Grid1D(-8.0, 8.0, n)
        rho = mod_square_density(random_state(grid, seed))
        density = kernel.center_density(rho, grid)
        if isinstance(kernel, IdealKernel):
            direct = rho
        else:
            # p_j = sum_i K(x_j - x_i) rho_i dx with the profile at offsets
            # (j - i) dx, wrapped onto the box
            profile = kernel.center_profile(grid.wrap(grid.points - grid.x_min))
            j = np.arange(n)
            direct = profile[(j[:, None] - j[None, :]) % n] @ rho * grid.dx
        assert np.max(np.abs(density - direct)) <= 1e-14 * np.max(direct)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    @given(n=st.integers(64, 1024), seed=st.integers(0, 2**32 - 1))
    @FFT_SETTINGS
    def test_integrates_to_one(self, kernel, n, seed):
        grid = Grid1D(-8.0, 8.0, n)
        density = kernel.center_density(mod_square_density(random_state(grid, seed)), grid)
        total = float(np.sum(density) * grid.dx)
        if isinstance(kernel, CompactSupportKernel):
            # a Riemann sum across the two jumps at +-window: off by at most
            # one cell of the profile's peak
            profile = kernel.center_profile(grid.wrap(grid.points - grid.x_min))
            assert abs(total - 1.0) <= grid.dx * np.max(profile)
        else:
            assert abs(total - 1.0) <= 1e-12


def reference_by_parts_profile(sigma, offsets):
    """h = -g g'' = (1/(2 sigma^2) - u^2/(4 sigma^4)) g^2 at offsets u, for the
    normalized Gaussian amplitude kernel g, written out directly."""
    s2 = sigma**2
    return (0.5 / s2 - offsets**2 / (4.0 * s2**2)) * GaussianKernel(sigma).center_profile(offsets)


class TestProfileSpectrumCache:
    def test_cached_spectrum_is_read_only_and_reused(self):
        grid, kernel = Grid1D(-8.0, 8.0, 64), GaussianKernel(1.0)
        spectrum = _profile_spectrum(kernel, grid)
        assert isinstance(spectrum, np.ndarray)
        offsets = grid.wrap(grid.points - grid.x_min)
        np.testing.assert_array_equal(spectrum, np.fft.rfft(kernel.center_profile(offsets)))
        # equal by value, not by identity
        assert _profile_spectrum(GaussianKernel(1.0), Grid1D(-8.0, 8.0, 64)) is spectrum
        assert not spectrum.flags.writeable
        with pytest.raises(ValueError):
            spectrum[0] = 0.0
        assert _profile_spectrum.cache_info().maxsize == 8

    @given(
        bounds=st.lists(
            st.sampled_from([(-8.0, 8.0), (-8.0, 9.0), (0.0, 16.0)]), min_size=2, max_size=2
        ),
        sizes=st.lists(st.sampled_from([31, 32, 64]), min_size=2, max_size=2),
        kernels=st.lists(
            st.sampled_from(KERNELS[:2] + [GaussianKernel(0.5)]), min_size=2, max_size=2
        ),
    )
    def test_distinct_grids_or_kernels_never_share_an_entry(self, bounds, sizes, kernels):
        pairs = [(k, Grid1D(*b, n)) for k, b, n in zip(kernels, bounds, sizes)]
        for kernel, grid in pairs + pairs[::-1]:
            offsets = grid.wrap(grid.points - grid.x_min)
            spectrum = _profile_spectrum(kernel, grid)
            np.testing.assert_array_equal(spectrum, np.fft.rfft(kernel.center_profile(offsets)))
        shared = _profile_spectrum(*pairs[0]) is _profile_spectrum(*pairs[1])
        assert shared == (pairs[0] == pairs[1])

    @given(
        n=st.sampled_from([2047, 2048, 8192]),
        fraction=st.floats(0.0, 1.0),
    )
    @FFT_SETTINGS
    def test_scaled_center_spectrum_gives_the_by_parts_profile(self, n, fraction):
        # h = -(g^2)''/4 + g^2/(4 sigma^2), so its spectrum is the center
        # spectrum times k^2/4 + 1/(4 sigma^2), whose k = 0 value is the law
        grid = Grid1D(-32.0, 32.0, n)
        sigma = 2.0 * grid.dx + fraction * (3.0 - 2.0 * grid.dx)
        k = grid.wavenumbers[: n // 2 + 1]
        factor = k**2 / 4.0 + 1.0 / (4.0 * sigma**2)
        h = np.fft.irfft(_profile_spectrum(GaussianKernel(sigma), grid) * factor, n)
        reference = reference_by_parts_profile(sigma, grid.wrap(grid.points - grid.x_min))
        assert np.max(np.abs(h - reference)) <= 1e-9 * np.max(np.abs(reference))
        assert abs(float(np.sum(h)) * grid.dx * 4.0 * sigma**2 - 1.0) <= 1e-12
