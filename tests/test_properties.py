"""Property tests of the state algebra, the duality bounds and the camera.

Angles range over several periods and projectors over the whole Bloch
sphere.  Examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitysim import (
    P_MIN,
    GridSpec,
    StateParams,
    ZeroProbabilityPostselection,
    averaged_duality,
    closed_form_averaged,
    conditional_duality,
    postselect_env,
    projector_bloch,
    projector_from_ket,
    render_image,
    state_vector,
    synthesize_ports,
)
from dualitysim.duality import conditional_sum_of_squares, postselection_probabilities
from dualitysim.fringes import measure_ports, moment_profile, port_profile

from oracles import brute_density, brute_postselect

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
    grid = GridSpec(128, 128)
    v_zero, v_phase = (
        measure_ports(
            synthesize_ports(StateParams(theta, alpha), grid=grid, path_phase=path_phase),
            None, 0.0, 0,
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
    grid = GridSpec(size, size)
    syn = synthesize_ports(
        StateParams(theta, alpha), l=l, grid=grid, path_phase=phase, flip_impurity=impurity
    )
    for port, fields in (("v", syn.v_fields), ("h", syn.h_fields)):
        fast = moment_profile(syn, port)
        pixel = port_profile(render_image(fields), grid)
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
    syn = synthesize_ports(StateParams(theta, alpha), grid=GridSpec(64, 64), flip_impurity=0.1)
    first, second = (measure_ports(syn, photons, readout_sigma, seed, row=row) for _ in range(2))
    for name in ("v_image", "h_image"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    for name in ("v_profile", "h_profile"):
        np.testing.assert_array_equal(getattr(first, name).values, getattr(second, name).values)
        np.testing.assert_array_equal(getattr(first, name).stderr, getattr(second, name).stderr)
    np.testing.assert_array_equal(
        [first.visibility, first.uncertainty, first.predictability],
        [second.visibility, second.uncertainty, second.predictability],
    )
