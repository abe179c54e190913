"""State algebra: preparation, partial trace, postselection."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from dualitysim import (
    StateParams,
    ZeroProbabilityPostselection,
    amplitude_rows,
    partial_trace_env,
    postselect_env,
    projector_bloch,
    projector_from_ket,
    projector_h,
    projector_v,
    state_vector,
)
from dualitysim.qubit import basis_branches

from oracles import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    brute_density,
    brute_partial_trace,
    brute_partial_trace_first,
    brute_postselect,
    brute_state,
    swap_factors,
    validate_mixed_state,
    validate_projector,
    validate_pure_state,
)


class TestPauliSet:
    def test_squares_are_identity(self):
        for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            np.testing.assert_allclose(sigma @ sigma, IDENTITY, atol=1e-15)

    def test_commutation_product(self):
        np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)


class TestBuildState:
    def test_theta_zero_is_top_mode_vertical(self):
        for alpha in (0.0, 0.7, np.pi, 5.0):
            psi = state_vector(StateParams(0.0, alpha))
            np.testing.assert_allclose(psi, [0, 1, 0, 0], atol=1e-15)

    def test_theta_pi_alpha_zero_is_bottom_mode_horizontal(self):
        psi = state_vector(StateParams(np.pi, 0.0))
        np.testing.assert_allclose(psi, [0, 0, 1, 0], atol=1e-15)

    def test_maximally_correlated_configuration(self):
        psi = state_vector(StateParams(np.pi / 2, 0.0))
        np.testing.assert_allclose(psi, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-15)

    def test_unit_norm_on_dense_grid(self):
        grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        for theta in grid:
            for alpha in grid:
                psi = state_vector(StateParams(theta, alpha))
                assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_matches_brute_force_construction(self):
        rng = np.random.default_rng(11)
        for theta, alpha in rng.uniform(-10, 10, size=(50, 2)):
            np.testing.assert_allclose(
                state_vector(StateParams(theta, alpha)),
                brute_state(theta, alpha),
                atol=1e-14,
            )

    def test_angles_periodic_at_observable_level(self):
        # A 2*pi shift changes the vector only by sector-local signs, so
        # every reduced/conditional quantity must be unchanged.
        params = StateParams(1.1, 2.3)
        shifted = StateParams(1.1 + 2 * np.pi, 2.3 - 2 * np.pi)
        rho_a = partial_trace_env(state_vector(params))
        rho_b = partial_trace_env(state_vector(shifted))
        np.testing.assert_allclose(np.abs(rho_a), np.abs(rho_b), atol=1e-12)
        for proj in (projector_h(), projector_v()):
            cond_a, p_a = postselect_env(state_vector(params), proj)
            cond_b, p_b = postselect_env(state_vector(shifted), proj)
            assert abs(p_a - p_b) < 1e-12
            np.testing.assert_allclose(np.abs(cond_a), np.abs(cond_b), atol=1e-12)

    def test_rejects_non_finite_angles(self):
        with pytest.raises(ValueError):
            StateParams(np.inf, 0.0)

    @pytest.mark.parametrize("angle", [True, False, np.True_])
    def test_rejects_a_bool_angle(self, angle):
        for args, name in (((angle, 0.5), "theta"), ((0.5, angle), "alpha")):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                StateParams(*args)

    @pytest.mark.parametrize("angle", [1j, 1.0 + 0j, np.complex128(1.0), "1.0", None])
    def test_rejects_an_angle_that_is_not_real(self, angle):
        for args, name in (((angle, 0.5), "theta"), ((0.5, angle), "alpha")):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                StateParams(*args)

    @pytest.mark.parametrize("angle", [np.array(1.0), np.array([1.0]), np.ones((1, 1))])
    def test_rejects_an_array_angle_and_keeps_every_real_scalar(self, angle):
        for args, name in (((angle, 0.5), "theta"), ((0.5, angle), "alpha")):
            with pytest.raises(ValueError, match=f"{name} must be a real number"):
                StateParams(*args)
        # Python and numpy real scalars build, hash and give the float's amplitudes.
        for scalar in (1, 1.0, np.float64(1.0), np.float32(1.0), np.int64(1), np.uint8(1)):
            params = StateParams(scalar, scalar)
            assert hash(params) == hash(StateParams(1.0, 1.0))
            assert params.amplitudes == StateParams(1.0, 1.0).amplitudes


def _formula_hex(theta, alpha):
    """The prepared amplitudes by their formula, as float.hex strings."""
    s, c = math.sin(0.5 * theta), math.cos(0.5 * theta)
    values = (0.0, c, s * math.cos(0.5 * alpha), s * math.sin(0.5 * alpha))
    return [v.hex() for v in values]


class TestStateParamsAmplitudes:
    ANGLES = [0.0, -0.0, np.pi / 2, np.pi, 2 * np.pi, -1.3, 0.3, 4.4, 1e6, -7e15]

    def test_amplitudes_equal_the_formula_bit_for_bit(self):
        for theta in self.ANGLES:
            for alpha in self.ANGLES:
                amplitudes = StateParams(theta, alpha).amplitudes
                assert all(type(a) is float for a in amplitudes)
                assert [a.hex() for a in amplitudes] == _formula_hex(theta, alpha)

    def test_replace_recomputes_the_amplitudes(self):
        params = StateParams(0.4, 1.7)
        moved = dataclasses.replace(params, theta=2.9)
        assert [a.hex() for a in moved.amplitudes] == _formula_hex(2.9, 1.7)
        assert params.amplitudes != moved.amplitudes
        with pytest.raises(ValueError):
            dataclasses.replace(params, amplitudes=(0.0, 1.0, 0.0, 0.0))

    def test_amplitudes_stay_out_of_repr_eq_and_hash(self):
        params = StateParams(1.0, 2.0)
        assert repr(params) == "StateParams(theta=1.0, alpha=2.0)"
        twin = StateParams(1.0, 2.0)
        object.__setattr__(twin, "amplitudes", (0.0, 1.0, 0.0, 0.0))
        assert twin == params and hash(twin) == hash(params) == hash(StateParams(1.0, 2.0))
        assert StateParams(1.0, 2.5) != params

    def test_amplitude_rows_equal_the_params_amplitudes_bit_for_bit(self):
        # The criterion-5 theta grid at three alphas, and edge angles on both axes.
        edges = [0.0, -0.0, np.pi, 2 * np.pi, -np.pi, 1e308, -1e308, 5e-324, 1e-310]
        thetas = [*np.linspace(0.0, 2 * np.pi, 181).tolist() * 3, *edges, *[0.3] * len(edges)]
        alphas = [*[a for a in (np.pi / 12, np.pi / 2, 2.5) for _ in range(181)],
                  *[0.7] * len(edges), *edges]
        rows = amplitude_rows(np.array(thetas), np.array(alphas))
        assert rows.shape == (len(thetas), 4) and rows.dtype == float
        expected = [StateParams(t, a).amplitudes for t, a in zip(thetas, alphas)]
        assert [[x.hex() for x in row] for row in rows.tolist()] == [
            [x.hex() for x in row] for row in expected]

    def test_amplitude_rows_check_their_angles(self):
        assert amplitude_rows(np.array([]), np.array([])).shape == (0, 4)
        for thetas, alphas in (([1.0], [1.0, 2.0]), (1.0, 1.0), (np.ones(2), 1.0)):
            with pytest.raises(ValueError, match="1-D arrays of one length"):
                amplitude_rows(thetas, alphas)
        for thetas, alphas, message in (
            (np.array([True]), np.array([0.5]), "theta must be a real number"),
            (np.array([0.5]), np.array([1j]), "alpha must be a real number"),
            (np.ones((2, 2)), np.ones(2), "theta must be a real number"),
            (np.array([0.5]), np.array([np.nan]), "must be finite"),
        ):
            with pytest.raises(ValueError, match=message):
                amplitude_rows(thetas, alphas)

    def test_stays_frozen_and_takes_no_amplitudes_argument(self):
        params = StateParams(1.0, 2.0)
        for name, value in (("theta", 0.5), ("alpha", 0.5), ("amplitudes", (0.0,) * 4)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(params, name, value)
        with pytest.raises(TypeError):
            StateParams(1.0, 2.0, (0.0, 1.0, 0.0, 0.0))


class TestPartialTrace:
    def test_product_state_reduces_to_pure_mode(self):
        rho = partial_trace_env(state_vector(StateParams(0.0, 1.0)))
        np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-15)

    def test_maximally_correlated_state_reduces_to_mixed(self):
        rho = partial_trace_env(state_vector(StateParams(np.pi / 2, 0.0)))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_half_pi_half_pi_off_diagonal(self):
        # Frozen from the brute-force construction: sin(pi/4)/2.
        rho = partial_trace_env(state_vector(StateParams(np.pi / 2, np.pi / 2)))
        np.testing.assert_allclose(np.diag(rho).real, [0.5, 0.5], atol=1e-12)
        assert abs(abs(rho[0, 1]) - 0.35355339059327373) < 1e-12

    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            np.testing.assert_allclose(
                partial_trace_env(psi),
                brute_partial_trace(brute_density(psi)),
                atol=1e-13,
            )

    def test_rejects_input_that_is_not_a_pure_4_vector(self):
        psi = state_vector(StateParams(1.0, 2.0))
        for bad in (np.outer(psi, psi.conj()), psi[:3]):
            with pytest.raises(ValueError, match="4-vector"):
                partial_trace_env(bad)
            with pytest.raises(ValueError, match="4-vector"):
                postselect_env(bad, projector_h())

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_non_finite_or_overflowing_state_is_rejected(self, value):
        psi = np.full(4, value, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared norm"):
                partial_trace_env(psi)
            for proj in (projector_h(), projector_v(), projector_bloch(1.0, 0.3)):
                with pytest.raises(ValueError, match="squared norm"):
                    postselect_env(psi, proj)

    def test_non_unit_state_is_rejected(self):
        # A 4-vector of squared norm 4 once gave p = 4 and a trace-4 state.
        for psi in (np.array([2, 0, 0, 0]), np.array([0, 1, 0, 1]), np.zeros(4)):
            with pytest.raises(ValueError, match="squared norm"):
                partial_trace_env(psi)
            with pytest.raises(ValueError, match="squared norm"):
                basis_branches(psi)
            for proj in (projector_h(), projector_v()):
                with pytest.raises(ValueError, match="squared norm"):
                    postselect_env(psi, proj)
        # Round-off of a normalised state stays inside TRACE_ATOL; 1e-11 does not.
        assert np.trace(partial_trace_env(np.array([1 + 4e-13, 0, 0, 0]))).real > 1
        with pytest.raises(ValueError, match="not 1 within 1e-12"):
            partial_trace_env(np.array([1 + 1e-11, 0, 0, 0]))

    def test_reduced_state_is_valid(self):
        rng = np.random.default_rng(6)
        for theta, alpha in rng.uniform(0, 2 * np.pi, size=(20, 2)):
            rho = partial_trace_env(state_vector(StateParams(theta, alpha)))
            validate_mixed_state(rho)

    def test_basis_order_independence(self):
        # Swapping the tensor factors and tracing the other side must give
        # the same reduced OAM state.
        rng = np.random.default_rng(7)
        for _ in range(25):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            direct = partial_trace_env(psi)
            swapped = swap_factors(psi)
            via_swap = brute_partial_trace_first(brute_density(swapped))
            np.testing.assert_allclose(direct, via_swap, atol=1e-13)


class TestProjectors:
    def test_h_v_projectors(self):
        np.testing.assert_allclose(projector_h(), [[1, 0], [0, 0]])
        np.testing.assert_allclose(projector_v(), [[0, 0], [0, 1]])

    @pytest.mark.parametrize("polar,azimuth", [(0.3, 0.0), (1.2, 2.5), (np.pi / 2, -1.0)])
    def test_bloch_projector_invariants(self, polar, azimuth):
        proj = projector_bloch(polar, azimuth)
        validate_projector(proj)
        assert abs(np.trace(proj) - 1.0) < 1e-12

    def test_from_ket_normalizes(self):
        proj = projector_from_ket(np.array([3.0, 4.0j]))
        validate_projector(proj)
        assert abs(np.trace(proj) - 1.0) < 1e-12

    def test_rejects_zero_ket(self):
        with pytest.raises(ValueError):
            projector_from_ket(np.zeros(2))

    def test_rejects_three_vector(self):
        with pytest.raises(ValueError, match=r"must be a 2-vector, got \(3,\)"):
            projector_from_ket(np.ones(3))

    def test_ordinary_ket_keeps_the_plain_normalization_bits(self):
        rng = np.random.default_rng(21)
        for ket in rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2)):
            unit = ket / np.linalg.norm(ket)
            np.testing.assert_array_equal(projector_from_ket(ket), np.outer(unit, unit.conj()))

    @pytest.mark.parametrize("ket", [[np.inf, 0], [np.nan, 1], [0, complex(1, np.inf)]])
    def test_non_finite_ket_is_rejected_without_numpy_warnings(self, ket):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                projector_from_ket(np.array(ket, dtype=complex))

    @pytest.mark.parametrize("angles", [(np.nan, 0.0), (0.0, np.nan), (1.0, np.inf)])
    def test_non_finite_bloch_angles_are_rejected(self, angles):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                projector_bloch(*angles)

    @pytest.mark.parametrize("scale", [2.0**1020, 2.0**-1060, 2.0**-1070])
    def test_overflowing_or_underflowing_ket_is_rescaled_exactly(self, scale):
        # The plain sum of squares overflows, underflows or is subnormal; a
        # power-of-two scale changes no bit of the projector.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ket in (np.array([3.0, 4.0j]), np.array([1.0, 1.0])):
                expected = projector_from_ket(ket)
                np.testing.assert_array_equal(projector_from_ket(ket * scale), expected)
            np.testing.assert_allclose(projector_from_ket([1e-320, 0]), projector_h(), atol=1e-15)
            np.testing.assert_array_equal(projector_from_ket([1e308, 1e308]),
                                          projector_from_ket([1.0, 1.0]))


class TestPostselection:
    def test_impossible_outcome_raises(self):
        psi = state_vector(StateParams(0.0, 1.3))  # pure |l,V>
        with pytest.raises(ZeroProbabilityPostselection):
            postselect_env(psi, projector_h())

    def test_vertical_branch_of_correlated_state(self):
        rho, p = postselect_env(state_vector(StateParams(np.pi / 2, 0.0)), projector_v())
        assert abs(p - 0.5) < 1e-12
        np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-12)

    def test_half_pi_half_pi_vertical(self):
        # Frozen from the brute-force oracle.
        rho, p = postselect_env(
            state_vector(StateParams(np.pi / 2, np.pi / 2)), projector_v()
        )
        assert abs(p - 0.75) < 1e-12
        assert abs(abs(rho[0, 1]) - 0.35355339059327373 / 0.75) < 1e-12

    def test_matches_brute_force_for_random_projectors(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            theta, alpha = rng.uniform(0, 2 * np.pi, 2)
            ket = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            proj = projector_from_ket(ket)
            psi = state_vector(StateParams(theta, alpha))
            expected, p_expected = brute_postselect(brute_density(psi), proj)
            if expected is None or p_expected < 1e-9:
                continue
            rho, p = postselect_env(psi, proj)
            assert abs(p - p_expected) < 1e-12
            np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_completeness_of_h_v_decomposition(self):
        rng = np.random.default_rng(9)
        for theta, alpha in rng.uniform(0, 2 * np.pi, size=(40, 2)):
            psi = state_vector(StateParams(theta, alpha))
            total = np.zeros((2, 2), dtype=complex)
            p_sum = 0.0
            for proj in (projector_h(), projector_v()):
                try:
                    rho, p = postselect_env(psi, proj)
                except ZeroProbabilityPostselection:
                    continue
                total += p * rho
                p_sum += p
            assert abs(p_sum - 1.0) < 1e-12
            np.testing.assert_allclose(total, partial_trace_env(psi), atol=1e-12)

    def test_conditional_state_is_valid(self):
        rho, _ = postselect_env(state_vector(StateParams(2.0, 1.0)), projector_v())
        validate_mixed_state(rho)

    def test_rejects_projector_whose_trace_is_not_one(self):
        psi = state_vector(StateParams(1.0, 2.0))
        for bad in (np.eye(2), 0.5 * projector_h(), np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="trace") as error:
                postselect_env(psi, bad)
            assert "np.float64" not in str(error.value)

    @pytest.mark.parametrize("projector", [
        np.eye(2) / 2,  # trace 1, Hermitian, full rank: the oracle's p is 0.5
        [[1, 0.3], [0.3, 0]],  # Hermitian with a negative eigenvalue
        [[0.7, 0.2], [0.9, 0.3]],  # not Hermitian: once gave p = 1.198
        [[1, 1], [0, 0]],  # determinant 0, not Hermitian
        [[1, 2e-6], [2e-6, 0]],  # determinant -4e-12
    ])
    def test_rejects_projector_that_is_not_rank_1(self, projector):
        psi = state_vector(StateParams(1.0, 0.7))
        with pytest.raises(ValueError, match="need a rank-1 projector") as error:
            postselect_env(psi, np.array(projector, dtype=complex))
        assert "trace" not in str(error.value)

    def test_round_off_of_a_rank_1_projector_is_accepted(self):
        psi = state_vector(StateParams(1.0, 0.7))
        ket = np.array([0.6, 0.8j])
        proj = np.outer(ket, ket.conj()) + np.array([[1e-13j, 3e-13], [-2e-13, 0]])
        rho, p = postselect_env(psi, proj)
        expected, p_expected = brute_postselect(brute_density(psi), projector_from_ket(ket))
        assert abs(p - p_expected) < 1e-12
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 4), (2, 2, 2)])
    def test_rejects_non_qubit_projector_shape(self, shape):
        psi = state_vector(StateParams(1.0, 2.0))
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            postselect_env(psi, np.zeros(shape))

    def test_p_min_threshold_is_respected(self):
        psi = state_vector(StateParams(1e-9, 0.0))  # tiny |-l,H> amplitude
        with pytest.raises(ZeroProbabilityPostselection):
            postselect_env(psi, projector_h())


class TestValidators:
    def test_pure_state_norm_check(self):
        with pytest.raises(ValueError):
            validate_pure_state(np.array([1.0, 0, 0, 1.0]))

    def test_density_matrix_checks(self):
        validate_mixed_state(np.eye(4) / 4)
        with pytest.raises(ValueError):
            validate_mixed_state(np.eye(4))  # trace 4
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            validate_mixed_state(bad)
