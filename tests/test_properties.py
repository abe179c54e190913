"""Property tests of the state algebra, the duality bounds, the camera, the
harmonic fit and the weak-value scan.

Angles range over several periods and projectors over the whole Bloch
sphere.  Examples are derandomized, so every run checks the same cases.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualitysim import (
    P_MIN,
    DegenerateProfile,
    DualitySimError,
    GridSpec,
    NoiseModel,
    StateParams,
    ZeroProbabilityPostselection,
    averaged_duality,
    closed_form_averaged,
    conditional_duality,
    postselect_env,
    projector_bloch,
    projector_from_ket,
    reconstruct_profile,
    render_image,
    state_vector,
    synthesize_ports,
)
from dualitysim.duality import (
    conditional_sum_of_squares,
    conditional_visibility_v,
    postselection_probabilities,
)
from dualitysim.fringes import (
    AzimuthalProfile,
    _harmonic_fit,
    analytic_ports,
    measure_ports,
    moment_profile,
    port_profile,
)
from dualitysim.weak import gaussian_wavefunction, grid_positions, normalized

from oracles import (
    brute_density,
    brute_postselect,
    loop_reconstruct_profile,
    lstsq_harmonic_fit,
)

BOUND = 1.0 + 1e-9
ANGLE = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi)
POLAR = st.floats(min_value=0.0, max_value=math.pi)
AZIMUTH = st.floats(min_value=0.0, max_value=2 * math.pi)
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@PROPERTY
@given(ANGLE, ANGLE, POLAR, AZIMUTH)
def test_postselect_env_matches_oracle(theta, alpha, polar, azimuth):
    # The unnormalized branch p * rho is compared, so the round-off of a
    # faint branch is not magnified by the 1/p of the normalization.
    psi = state_vector(StateParams(theta, alpha))
    proj = projector_bloch(polar, azimuth)
    rho_ref, p_ref = brute_postselect(brute_density(psi), proj)
    try:
        rho, p = postselect_env(psi, proj)
    except ZeroProbabilityPostselection:
        assert p_ref < P_MIN + 1e-15
        return
    assert abs(p - p_ref) <= 1e-12
    np.testing.assert_allclose(p * rho, p_ref * rho_ref, rtol=0, atol=1e-12)


@PROPERTY
@given(ANGLE, ANGLE, POLAR, AZIMUTH)
def test_conditional_measures_obey_the_bound(theta, alpha, polar, azimuth):
    try:
        report = conditional_duality(
            StateParams(theta, alpha), projector_bloch(polar, azimuth)
        )
    except ZeroProbabilityPostselection:
        return
    assert report.sum_of_squares <= BOUND


@PROPERTY
@given(
    st.floats(min_value=1e-6, max_value=1e-3),
    ANGLE,
    st.floats(min_value=1e-7, max_value=1e-4),
    AZIMUTH,
    AZIMUTH,
)
def test_faint_branch_stays_within_the_bound(offset, alpha, eps, direction, phase):
    # Near theta = pi the ket (sin(alpha/2), -cos(alpha/2)) almost cancels
    # the -l branch, so p falls to ~1e-8..1e-14 and the conditional state
    # must stay pure to round-off rather than to round-off / p.
    ket = np.array([
        math.sin(alpha / 2) + eps * math.cos(direction),
        -math.cos(alpha / 2) + eps * math.sin(direction) * np.exp(1j * phase),
    ])
    try:
        report = conditional_duality(
            StateParams(math.pi - offset, alpha), projector_from_ket(ket)
        )
    except ZeroProbabilityPostselection:
        return
    assert report.sum_of_squares <= 1.0 + 1e-12


@PROPERTY
@given(ANGLE, ANGLE)
def test_averaged_duality_matches_closed_form(theta, alpha):
    report = averaged_duality(StateParams(theta, alpha))
    v_bar, p_bar = closed_form_averaged(theta, alpha)
    assert abs(report.visibility - v_bar) <= 1e-10
    assert abs(report.predictability - p_bar) <= 1e-10
    assert report.sum_of_squares <= BOUND


@PROPERTY
@given(ANGLE, ANGLE)
def test_mixed_postselection_sum_lies_between_one_and_two(theta, alpha):
    total = conditional_sum_of_squares(theta, alpha)
    _, p_v = postselection_probabilities(theta, alpha)
    if p_v < P_MIN:
        assert math.isnan(total)
    else:
        assert 1.0 <= total <= 2.0 + 1e-9


@PROPERTY
@given(ANGLE, ANGLE, AZIMUTH)
def test_fitted_visibility_does_not_depend_on_path_phase(theta, alpha, phase):
    # The path phase turns the petals; pixelation of the turned pattern
    # moves the fitted V by a few 1e-3 at 128^2, and by far more at 64^2.
    grid = GridSpec(128)
    v_zero, v_phase = (
        measure_ports(
            synthesize_ports(StateParams(theta, alpha), grid=grid, path_phase=path_phase),
            NoiseModel(),
        ).visibility
        for path_phase in (0.0, phase)
    )
    if math.isnan(v_zero):
        assert math.isnan(v_phase)
    else:
        assert abs(v_phase - v_zero) <= 5e-3


@PROPERTY
@given(
    ANGLE,
    ANGLE,
    AZIMUTH,
    st.sampled_from([0.0, 0.1, 0.3]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=64, max_value=256),
)
def test_moment_profile_matches_pixel_profile(theta, alpha, phase, impurity, l, size):
    # The moment sums reorder the float arithmetic of the rendered frame,
    # and the stderr subtracts two nearly equal terms, so its bound is looser.
    grid = GridSpec(size)
    syn = synthesize_ports(
        StateParams(theta, alpha), l=l, grid=grid, path_phase=phase, flip_impurity=impurity
    )
    for port in ("v", "h"):
        fast = moment_profile(syn, port)
        pixel = port_profile(render_image(syn.fields(port)), grid)
        np.testing.assert_array_equal(fast.counts, pixel.counts)
        assert np.abs(fast.values - pixel.values).max() <= 1e-12 * pixel.values.max()
        assert np.abs(fast.stderr - pixel.stderr).max() <= 1e-8 * pixel.stderr.max()


@PROPERTY
@given(
    ANGLE,
    ANGLE,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1e2, max_value=1e7),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_seeded_rendering_is_bit_identical(theta, alpha, seed, row, photons, readout_sigma):
    # A flip impurity makes measure_ports render all four frames.
    syn = synthesize_ports(StateParams(theta, alpha), grid=GridSpec(64), flip_impurity=0.1)
    noise = NoiseModel(photons, readout_sigma, seed)
    first, second = (measure_ports(syn, noise, row=row) for _ in range(2))
    for name in ("v_image", "h_image"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    for name in ("v_profile", "h_profile"):
        np.testing.assert_array_equal(getattr(first, name).values, getattr(second, name).values)
        np.testing.assert_array_equal(getattr(first, name).stderr, getattr(second, name).stderr)
    np.testing.assert_array_equal(
        [first.visibility, first.uncertainty, first.predictability],
        [second.visibility, second.uncertainty, second.predictability],
    )


@PROPERTY
@given(
    st.integers(min_value=4, max_value=360),
    st.integers(min_value=1, max_value=32),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_cached_fit_matches_the_lstsq_oracle(n_bins, charge, sign, seed, scale):
    # More bins than coefficients, so the residuals are not round-off alone.
    values = scale * np.random.default_rng(seed).uniform(0.1, 1.0, n_bins)
    profile = AzimuthalProfile(values, np.zeros(n_bins), np.ones(n_bins, dtype=int))
    l = sign * charge
    if (4 * charge) % n_bins == 0:
        # |l| * window a multiple of 90 deg aliases the harmonic (180 deg) or
        # puts it at the bins' Nyquist rate (90 deg), where B is not identified.
        with pytest.raises(DegenerateProfile):
            _harmonic_fit(profile, l)
        return
    coeffs, covariance = _harmonic_fit(profile, l)
    ref_coeffs, ref_covariance = lstsq_harmonic_fit(profile, l)
    np.testing.assert_allclose(coeffs, ref_coeffs, rtol=0, atol=1e-12 * abs(ref_coeffs[0]))
    np.testing.assert_allclose(covariance, ref_covariance, rtol=1e-12, atol=0)


@PROPERTY
@given(ANGLE, ANGLE, AZIMUTH, st.floats(min_value=0.0, max_value=0.99, exclude_max=True))
def test_port_powers_are_the_postselection_probabilities(theta, alpha, path_phase, eps):
    # Port "h" is the amplitude matrix's H column and "v" its V column; the
    # impurity splits a port's lower-arm power between modes and keeps it.
    syn = synthesize_ports(StateParams(theta, alpha), path_phase=path_phase, flip_impurity=eps)
    p_h, p_v = postselection_probabilities(theta, alpha)
    for port, probability in (("h", p_h), ("v", p_v)):
        assert abs(sum(syn.intensity_weights(port)[:2]) - probability) <= 1e-15


@PROPERTY
@given(ANGLE, ANGLE, st.floats(min_value=0.0, max_value=0.99, exclude_max=True), ANGLE)
def test_analytic_ports_of_a_lit_h_port(theta, alpha, eps, path_phase):
    # The H-port mode powers (|e|^2, |m|^2) = b^2 (eps^2, 1 - eps^2) come
    # from the amplitudes; the impurity scales the V contrast by sqrt(1 - eps^2).
    syn = synthesize_ports(StateParams(theta, alpha), path_phase=path_phase, flip_impurity=eps)
    assume(sum(syn.intensity_weights("h")[:2]) >= P_MIN)
    visibility, predictability = analytic_ports(syn)
    assert abs(predictability - abs(1.0 - 2.0 * eps**2)) <= 1e-15
    expected = conditional_visibility_v(theta, alpha) * math.sqrt(1.0 - eps**2)
    np.testing.assert_allclose(visibility, expected, rtol=0, atol=1e-15)


@PROPERTY
@given(
    st.integers(min_value=2, max_value=256),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-3, max_value=0.5),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from(["linearized", "exact"]),
)
def test_closed_form_scan_matches_the_loop(n, seed, magnitude, sign, mode):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    phi = sign * magnitude
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # strong couplings of a small psi0 warn
        expected = loop_reconstruct_profile(psi, phi, mode)
        np.testing.assert_allclose(reconstruct_profile(psi, phi, mode), expected,
                                   rtol=1e-13, atol=0)


def _scan_error(scan, psi, phi, mode):
    with pytest.raises((ValueError, DualitySimError)) as info:
        scan(psi, phi, mode)
    return type(info.value), str(info.value)


@pytest.mark.filterwarnings("ignore:pointer deflection")
@pytest.mark.parametrize("mode", ["linearized", "exact"])
@pytest.mark.parametrize(
    "psi,phi",
    [
        # Odd parity on an odd grid: psi0 = 0, and psi(x0) = 0 at the
        # centre, where the exact coupling leaves s_V = psi0.
        (normalized(grid_positions(63) * np.exp(-grid_positions(63) ** 2 / 200.0)), 0.1),
        # Zero sum with a dark point at x0 = 1.
        (normalized(np.array([1.0, 0.0, -1.0, 2.0j, -2.0j])), 0.1),
        (gaussian_wavefunction(32, 4.0), 0.0),
        (gaussian_wavefunction(32, 4.0), math.nan),
    ],
    ids=["odd_parity", "zero_sum", "zero_phi", "nan_phi"],
)
def test_closed_form_scan_raises_as_the_loop_does(psi, phi, mode):
    assert _scan_error(reconstruct_profile, psi, phi, mode) == _scan_error(
        loop_reconstruct_profile, psi, phi, mode
    )
