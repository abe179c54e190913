"""Visibility/predictability measures against closed forms and oracles."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitysim import (
    P_MIN,
    DualityReport,
    StateParams,
    ZeroProbabilityPostselection,
    averaged_duality,
    closed_form_averaged,
    closed_form_conditional,
    conditional_duality,
    partial_trace_env,
    postselect_env,
    predictability,
    projector_bloch,
    projector_h,
    projector_v,
    state_vector,
    unconditional_duality,
    visibility,
)
from dualitysim.duality import (
    SWEEP_COLUMNS,
    conditional_visibility_v,
    postselection_probabilities,
    sweep_columns,
)

from oracles import SIGMA_X, SIGMA_Y, SIGMA_Z, brute_predictability, brute_visibility

GRID = np.linspace(0, 2 * np.pi, 64, endpoint=False)

PART = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def finite_2x2(draw):
    """Finite complex 2x2 matrices: general, Hermitian or zero-coherence,
    at unit scale or faint (entries near P_MIN)."""
    parts = np.array(draw(st.lists(PART, min_size=8, max_size=8)))
    m = draw(st.sampled_from([1.0, P_MIN])) * (parts[:4] + 1j * parts[4:]).reshape(2, 2)
    kind = draw(st.sampled_from(["general", "hermitian", "incoherent"]))
    if kind == "hermitian":
        return m + m.conj().T
    if kind == "incoherent":
        return np.diag(m.diagonal())
    return m


class TestQubitMeasures:
    def test_maximally_mixed(self):
        assert visibility(np.eye(2) / 2) == pytest.approx(0.0, abs=1e-15)
        assert predictability(np.eye(2) / 2) == pytest.approx(0.0, abs=1e-15)

    def test_equal_superposition_has_unit_visibility(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert visibility(plus) == pytest.approx(1.0, abs=1e-15)

    def test_pure_mode_has_unit_predictability(self):
        assert predictability(np.diag([1.0, 0.0])) == pytest.approx(1.0)

    def test_visibility_is_twice_coherence(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            assert visibility(rho) == pytest.approx(2 * abs(rho[0, 1]), abs=1e-13)
            assert visibility(rho) == pytest.approx(brute_visibility(rho), abs=1e-13)
            assert predictability(rho) == pytest.approx(brute_predictability(rho), abs=1e-13)

    @settings(derandomize=True, deadline=None, database=None)
    @given(finite_2x2())
    def test_entry_reads_equal_pauli_traces_exactly(self, rho):
        assert visibility(rho) == abs(np.trace((SIGMA_X + 1j * SIGMA_Y) @ rho))
        assert predictability(rho) == abs(np.trace(SIGMA_Z @ rho).real)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 4), (2, 2, 2)])
    @pytest.mark.parametrize("measure", [visibility, predictability])
    def test_rejects_non_qubit_shape(self, measure, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            measure(np.zeros(shape))

    def test_reduced_state_examples(self):
        rho = partial_trace_env(state_vector(StateParams(np.pi / 2, np.pi / 2)))
        assert visibility(rho) == pytest.approx(np.sin(np.pi / 4), abs=1e-12)
        for alpha in (0.0, 1.0, np.pi, 4.0):
            rho = partial_trace_env(state_vector(StateParams(np.pi / 3, alpha)))
            assert predictability(rho) == pytest.approx(0.5, abs=1e-12)


class TestDualityReport:
    def test_rejects_attribute_assignment(self):
        rep = unconditional_duality(StateParams(1.0, 2.0))
        for name in ("visibility", "predictability", "probability", "label", "extra"):
            with pytest.raises(AttributeError):
                setattr(rep, name, 0.5)

    def test_is_hashable_and_equal_by_fields(self):
        a = DualityReport(0.5, 0.25, 1.0, "x")
        assert hash(a) == hash(DualityReport(0.5, 0.25, 1.0, "x"))
        assert len({a, DualityReport(0.5, 0.25, 1.0, "x"), DualityReport(0.5, 0.25, 1.0, "y")}) == 2

    def test_repr_names_every_field(self):
        rep = DualityReport(0.5, 0.25, 1.0, "unconditional")
        assert repr(rep) == ("DualityReport(visibility=0.5, predictability=0.25, "
                             "probability=1.0, label='unconditional')")

    def test_sum_of_squares_and_tuple_behaviour(self):
        rep = DualityReport(visibility=0.5, predictability=0.25, probability=0.3, label="p")
        assert rep.sum_of_squares == 0.5**2 + 0.25**2
        v, p, prob, label = rep
        assert (v, p, prob, label) == (0.5, 0.25, 0.3, "p") == rep


class TestUnconditional:
    def test_trivial_configurations(self):
        rep = unconditional_duality(StateParams(0.0, 2.0))
        assert rep.visibility == pytest.approx(0.0, abs=1e-12)
        assert rep.predictability == pytest.approx(1.0, abs=1e-12)
        assert rep.probability == 1.0

        rep = unconditional_duality(StateParams(np.pi / 2, 0.0))
        assert rep.sum_of_squares == pytest.approx(0.0, abs=1e-12)

    def test_half_pi_half_pi_sum(self):
        rep = unconditional_duality(StateParams(np.pi / 2, np.pi / 2))
        assert rep.sum_of_squares == pytest.approx(0.5, abs=1e-10)

    def test_closed_form_identity_on_grid(self):
        # V^2 + P^2 = sin^2(alpha/2) sin^2(theta) + cos^2(theta), with the
        # measures taken through the amplitude-matrix pipeline.
        for theta in GRID:
            for alpha in GRID[::4]:
                rep = unconditional_duality(StateParams(theta, alpha))
                expected = np.sin(alpha / 2) ** 2 * np.sin(theta) ** 2 + np.cos(theta) ** 2
                assert abs(rep.sum_of_squares - expected) < 1e-10


class TestConditional:
    def test_horizontal_postselection_pins_predictability(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            theta = rng.uniform(0.2, np.pi - 0.2)
            alpha = rng.uniform(-2.0, 2.0)
            if abs(np.cos(alpha / 2)) < 1e-3:
                continue
            rep = conditional_duality(StateParams(theta, alpha), projector_h(), label="H")
            assert rep.predictability == pytest.approx(1.0, abs=1e-12)
            assert rep.visibility == pytest.approx(0.0, abs=1e-12)

    def test_half_pi_half_pi_vertical_value(self):
        rep = conditional_duality(StateParams(np.pi / 2, np.pi / 2), projector_v(), label="V")
        assert rep.visibility == pytest.approx(0.9428090415820634, abs=1e-10)
        assert rep.probability == pytest.approx(0.75, abs=1e-12)

    def test_near_optimum_value(self):
        # Direct evaluation of the closed form at theta = pi - alpha,
        # alpha = pi/12 (value frozen from the density-matrix oracle).
        rep = conditional_duality(
            StateParams(np.pi - np.pi / 12, np.pi / 12), projector_v(), label="V"
        )
        assert rep.visibility == pytest.approx(0.9999630903853886, abs=1e-10)

    def test_propagates_zero_probability(self):
        with pytest.raises(ZeroProbabilityPostselection):
            conditional_duality(StateParams(0.0, 1.0), projector_h())

    def test_single_projector_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            theta, alpha = rng.uniform(0, 2 * np.pi, 2)
            proj = projector_bloch(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            try:
                rep = conditional_duality(StateParams(theta, alpha), proj)
            except ZeroProbabilityPostselection:
                continue
            assert rep.sum_of_squares <= 1.0 + 1e-9


class TestClosedFormConditional:
    def test_vanishing_numerator(self):
        assert closed_form_conditional(StateParams(np.pi / 2, 0.0)) == (
            pytest.approx(0.0, abs=1e-12),
            1.0,
        )

    def test_half_pi_half_pi(self):
        v, p = closed_form_conditional(StateParams(np.pi / 2, np.pi / 2))
        assert v == pytest.approx(0.9428090415820634, abs=1e-10)
        assert p == 1.0
        assert v**2 + p**2 == pytest.approx(1.8888888888888888, abs=1e-10)

    def test_degenerate_denominator_raises(self):
        with pytest.raises(ZeroProbabilityPostselection):
            closed_form_conditional(StateParams(np.pi, 0.0))

    def test_agrees_with_density_pipeline_on_grid(self):
        for theta in GRID:
            for alpha in GRID:
                params = StateParams(theta, alpha)
                try:
                    v_closed, _ = closed_form_conditional(params)
                except ZeroProbabilityPostselection:
                    continue
                rep = conditional_duality(params, projector_v())
                assert abs(rep.visibility - v_closed) < 1e-10

    def test_sum_of_squares_sandwich_on_grid(self):
        for theta in GRID:
            for alpha in GRID:
                try:
                    v, p = closed_form_conditional(StateParams(theta, alpha))
                except ZeroProbabilityPostselection:
                    continue
                s = v**2 + p**2
                assert 1.0 - 1e-9 <= s <= 2.0 + 1e-9

    def test_continuum_maximum_reaches_two(self):
        # The sweep maximum sits at tan(theta/2) = 1 / sin(alpha/2), where
        # the conditional visibility reaches exactly 1.
        for alpha in (np.pi / 12, 0.4, 1.0):
            theta_star = np.pi - 2 * np.arctan(np.sin(alpha / 2))
            v, p = closed_form_conditional(StateParams(theta_star, alpha))
            assert v == pytest.approx(1.0, abs=1e-12)
            assert v**2 + p**2 == pytest.approx(2.0, abs=1e-12)

    def test_fine_sweep_peaks_near_theta_pi_plus_minus_alpha(self):
        # For small coupling the maximizer approaches theta = pi -+ alpha.
        alpha = np.pi / 12
        thetas = np.linspace(0, 2 * np.pi, 3601)
        sums = conditional_visibility_v(thetas, alpha) ** 2 + 1.0
        peak = thetas[np.argmax(sums)]
        assert min(abs(peak - (np.pi - alpha)), abs(peak - (np.pi + alpha))) < np.deg2rad(0.5)


class TestAveraged:
    def test_trivial_configuration(self):
        rep = averaged_duality(StateParams(0.0, 1.7))
        assert rep.visibility == pytest.approx(0.0, abs=1e-12)
        assert rep.predictability == pytest.approx(1.0, abs=1e-12)

    def test_half_pi_half_pi(self):
        rep = averaged_duality(StateParams(np.pi / 2, np.pi / 2))
        assert rep.visibility == pytest.approx(0.7071067811865476, abs=1e-10)
        assert rep.predictability == pytest.approx(0.5, abs=1e-10)

    def test_zero_probability_branch_contributes_zero(self):
        # theta = 0: the horizontal branch is empty but the average exists.
        rep = averaged_duality(StateParams(0.0, 0.0))
        assert rep.predictability == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_forms_on_grid(self):
        for theta in GRID:
            for alpha in GRID:
                rep = averaged_duality(StateParams(theta, alpha))
                v_bar, p_bar = closed_form_averaged(theta, alpha)
                assert abs(rep.visibility - v_bar) < 1e-10
                assert abs(rep.predictability - p_bar) < 1e-10

    def test_bound_on_grid(self):
        v_bar, p_bar = closed_form_averaged(*np.meshgrid(GRID, GRID))
        assert np.all(v_bar**2 + p_bar**2 <= 1.0 + 1e-9)

    def test_no_violation_at_near_optimal_point(self):
        rep = averaged_duality(StateParams(np.pi - np.pi / 12, np.pi / 12))
        assert rep.sum_of_squares <= 1.0 + 1e-9


EXACT = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi]


def _hex(*values):
    return [float(v).hex() for v in values]


class TestScalarCoreParity:
    """The reports read V, P and p off qubit's scalar core; the public array
    functions wrap the same core.  Both must agree bit for bit, including at
    the exact angles where a branch goes dark or a zero carries a sign."""

    ANGLES = EXACT + [-np.pi / 2, 0.3, 1.9, 2.8, 4.4, 5.9]
    PROJECTORS = [projector_h(), projector_v()] + [
        projector_bloch(polar, azimuth) for polar in EXACT for azimuth in (0.0, np.pi / 2, 2.2)
    ] + [
        np.eye(2) / 2,
        0.5 * projector_h(),
        np.array([[0.7, 0.2], [0.9, 0.3]]),
        np.array([[1, 2e-6], [2e-6, 0]]),
        np.full((2, 2), np.nan),
        np.zeros((3, 3)),
    ]

    def test_reports_equal_the_public_array_path_bit_for_bit(self):
        for theta in self.ANGLES:
            for alpha in self.ANGLES:
                params = StateParams(theta, alpha)
                psi = state_vector(params)
                rep = unconditional_duality(params)
                rho = partial_trace_env(psi)
                assert _hex(rep.visibility, rep.predictability, rep.probability) == _hex(
                    visibility(rho), predictability(rho), 1.0)
                for proj in self.PROJECTORS:
                    try:
                        rho, p = postselect_env(psi, proj)
                    except (ValueError, ZeroProbabilityPostselection) as error:
                        with pytest.raises(type(error), match=re.escape(str(error))) as raised:
                            conditional_duality(params, proj)
                        assert raised.type is type(error)
                        continue
                    rep = conditional_duality(params, proj)
                    assert _hex(rep.visibility, rep.predictability, rep.probability) == _hex(
                        visibility(rho), predictability(rho), p)


class TestVectorizedHelpers:
    def test_probabilities_sum_to_one(self):
        thetas, alphas = np.meshgrid(GRID, GRID)
        p_h, p_v = postselection_probabilities(thetas, alphas)
        np.testing.assert_allclose(p_h + p_v, 1.0, atol=1e-12)

    def test_vectorized_visibility_matches_scalar(self):
        thetas = np.linspace(0.1, 6.0, 40)
        vec = conditional_visibility_v(thetas, 0.9)
        for theta, value in zip(thetas, vec):
            v, _ = closed_form_conditional(StateParams(theta, 0.9))
            assert value == pytest.approx(v, abs=1e-13)

    def test_degenerate_point_maps_to_nan(self):
        assert np.isnan(conditional_visibility_v(np.pi, 0.0))


class TestSweepColumns:
    @settings(derandomize=True, deadline=None, database=None)
    @given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                    min_size=1, max_size=8))
    def test_rows_are_the_scalar_closed_forms(self, angles):
        thetas, alphas = (np.array(column) for column in zip(*angles))
        table = sweep_columns(thetas, alphas)
        assert table.shape == (len(angles), len(SWEEP_COLUMNS))
        for row, (theta, alpha) in zip(table, angles):
            p_h, p_v = postselection_probabilities(theta, alpha)
            if p_v < P_MIN:
                v_cond, p_cond = np.nan, 1.0
            else:
                v_cond, p_cond = closed_form_conditional(StateParams(theta, alpha))
            v_avg, p_avg = closed_form_averaged(theta, alpha)
            assert _hex(*row) == _hex(theta, alpha, v_cond, p_cond, v_cond**2 + p_cond**2,
                                      v_avg, p_avg, v_avg**2 + p_avg**2, p_h, p_v)
