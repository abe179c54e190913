"""Property tests of the state algebra and the duality bounds.

Angles range over several periods and projectors over the whole Bloch
sphere.  Examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitysim import (
    P_MIN,
    StateParams,
    ZeroProbabilityPostselection,
    averaged_duality,
    closed_form_averaged,
    conditional_duality,
    postselect_env,
    projector_bloch,
    state_vector,
)
from dualitysim.duality import conditional_sum_of_squares, postselection_probabilities

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
