"""Sliver coupling, zero-momentum postselection, weak-value recovery."""

import math
import re
import warnings

import numpy as np
import pytest

from dualitysim import (
    InvalidCoupling,
    SliverCoupling,
    ZeroProbabilityPostselection,
    apply_sliver,
    gaussian_wavefunction,
    postselect_zero_momentum,
    reconstruct_profile,
    reconstruct_weak_value,
    true_ratio,
    uniform_wavefunction,
    visibility,
)
from dualitysim.weak import (
    convergence_order,
    grid_positions,
    normalized,
    pointer_sigma_expectations,
    scan,
    zero_frequency_amplitude,
)

from oracles import validate_wavefunction


class TestWavefunctions:
    def test_uniform_is_normalized(self):
        psi = uniform_wavefunction(64)
        validate_wavefunction(psi)
        assert zero_frequency_amplitude(psi) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_is_normalized(self):
        psi = gaussian_wavefunction(256, 32.0)
        validate_wavefunction(psi)

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError):
            normalized(np.zeros(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_normalized_rejects_non_finite_samples(self, bad):
        psi = np.ones(8, dtype=complex)
        psi[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            normalized(psi)

    def test_normalized_survives_an_overflowing_norm(self):
        # The plain sum of squares is inf; the power-of-two rescale is exact.
        np.testing.assert_array_equal(normalized([1e308, 1e308]), [1 / np.sqrt(2)] * 2)

    def test_normalized_survives_an_underflowing_norm(self):
        psi = np.array([3.0, 4.0j])
        np.testing.assert_array_equal(normalized(psi * 2.0**-1020), normalized(psi))

    def test_gaussian_needs_positive_width(self):
        for sigma in (0.0, -3.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                gaussian_wavefunction(64, sigma)

    def test_uniform_of_no_samples_is_the_zero_wavefunction(self):
        with pytest.raises(ValueError, match="cannot normalize the zero wavefunction"):
            uniform_wavefunction(0)

    @pytest.mark.parametrize("n", [True, 1.5, 4.0, -1])
    @pytest.mark.parametrize("build", [uniform_wavefunction, lambda n: gaussian_wavefunction(n, 2.0)])
    def test_sample_count_must_be_a_nonnegative_integer(self, build, n):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            build(n)

    @pytest.mark.parametrize("psi", [np.array([], dtype=complex), np.ones((2, 2)),
                                     np.array([1.0, np.nan]), np.array([1.0, np.inf])])
    @pytest.mark.parametrize("entry", [
        true_ratio,
        lambda psi: scan(psi, [0.1]),
        lambda psi: reconstruct_profile(psi, 0.1),
        lambda psi: apply_sliver(psi, SliverCoupling(0, 0.1)),
    ])
    def test_profile_must_be_nonempty_finite_and_one_dimensional(self, entry, psi):
        with pytest.raises(ValueError, match="psi must be a nonempty 1-D profile"):
            entry(psi)

    @pytest.mark.parametrize("mode", ["linearized", "exact"])
    @pytest.mark.parametrize("phi", [0.0, 0.1, 1e300])
    def test_an_overflowing_readout_is_an_invalid_coupling(self, mode, phi):
        # |s_V|^2 overflows for samples this large, and |s_H|^2 too at phi = 1e300.
        with pytest.raises(InvalidCoupling, match="phi"):
            reconstruct_profile(np.full(4, 1e300, dtype=complex), phi, mode)


class TestApplySliver:
    def test_zero_angle_is_identity(self):
        psi = gaussian_wavefunction(64, 8.0)
        for mode in ("linearized", "exact"):
            joint = apply_sliver(psi, SliverCoupling(x0=10, phi=0.0, mode=mode))
            np.testing.assert_array_equal(joint.h, np.zeros(64))
            np.testing.assert_allclose(joint.v, psi, atol=1e-15)

    def test_dark_point_leaves_state_unchanged(self):
        psi = gaussian_wavefunction(64, 2.0)
        psi[5] = 0.0
        psi = normalized(psi)
        joint = apply_sliver(psi, SliverCoupling(x0=5, phi=0.3))
        np.testing.assert_array_equal(joint.h, np.zeros(64))
        np.testing.assert_allclose(joint.v, psi, atol=1e-15)

    def test_exact_mode_preserves_norm(self):
        psi = gaussian_wavefunction(128, 16.0)
        for phi in (0.1, 0.05, 0.025):
            joint = apply_sliver(psi, SliverCoupling(x0=64, phi=phi, mode="exact"))
            norm = np.sqrt(np.sum(np.abs(joint.h) ** 2) + np.sum(np.abs(joint.v) ** 2))
            assert abs(norm - 1.0) < 1e-12

    def test_linearized_norm_grows_quadratically(self):
        psi = uniform_wavefunction(64)
        defects = []
        for phi in (0.1, 0.05, 0.025):
            joint = apply_sliver(psi, SliverCoupling(x0=7, phi=phi))
            norm = np.sqrt(np.sum(np.abs(joint.h) ** 2) + np.sum(np.abs(joint.v) ** 2))
            defects.append(abs(norm - 1.0))
        # Norm defect is (phi/2)^2 |psi(x0)|^2 / 2 to leading order.
        assert defects[0] == pytest.approx((0.1 / 2) ** 2 / 64 / 2, rel=1e-3)
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.01)
        assert defects[1] / defects[2] == pytest.approx(4.0, rel=0.01)

    def test_out_of_range_position_rejected(self):
        with pytest.raises(ValueError):
            apply_sliver(uniform_wavefunction(8), SliverCoupling(x0=8, phi=0.1))

    @pytest.mark.parametrize("x0", [True, False, 1.0, -1, np.float64(2.0), "1"])
    def test_position_must_be_a_nonnegative_integer(self, x0):
        # numpy reads h[True] as the whole array and h[1.0] as an IndexError.
        with pytest.raises(ValueError, match="x0 must be a nonnegative integer"):
            SliverCoupling(x0, 0.1)

    def test_numpy_integer_position_couples_one_point(self):
        joint = apply_sliver(uniform_wavefunction(4), SliverCoupling(np.int64(1), 0.1))
        np.testing.assert_array_equal(joint.h, [0.0, 0.025, 0.0, 0.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SliverCoupling(x0=0, phi=0.1, mode="unitary")


class TestPostselection:
    def test_zero_angle_gives_vertical_pointer(self):
        psi = gaussian_wavefunction(64, 8.0)
        joint = apply_sliver(psi, SliverCoupling(x0=3, phi=0.0))
        pointer, _ = postselect_zero_momentum(joint)
        np.testing.assert_allclose(pointer, [0.0, 1.0], atol=1e-15)

    def test_odd_profile_has_no_zero_momentum(self):
        x = grid_positions(64)
        psi = normalized(x * np.exp(-(x**2) / 200.0))
        joint = apply_sliver(psi, SliverCoupling(x0=3, phi=0.1))
        with pytest.raises(ZeroProbabilityPostselection):
            postselect_zero_momentum(joint)

    def test_odd_profile_has_no_true_ratio(self):
        # psi0 = 0 raises before the division, so no numpy warning leaks.
        x = grid_positions(64)
        psi = normalized(x * np.exp(-(x**2) / 200.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroProbabilityPostselection, match="zero-momentum amplitude"):
                true_ratio(psi)

    def test_uniform_profile_closed_form(self):
        n, phi = 64, 0.01
        psi = uniform_wavefunction(n)
        joint = apply_sliver(psi, SliverCoupling(x0=11, phi=phi))
        pointer, probability = postselect_zero_momentum(joint)
        # Pointer encodes (phi/2) psi(x0)/psi0 = (phi/2)/sqrt(N).
        ratio = pointer[0] / pointer[1]
        assert ratio == pytest.approx((phi / 2) / np.sqrt(n), abs=1e-15)
        assert probability == pytest.approx(1.0 + (phi / 2) ** 2 / n, abs=1e-12)

    def test_pointer_is_normalized(self):
        psi = gaussian_wavefunction(128, 20.0)
        joint = apply_sliver(psi, SliverCoupling(x0=60, phi=0.2, mode="exact"))
        pointer, _ = postselect_zero_momentum(joint)
        assert abs(np.linalg.norm(pointer) - 1.0) < 1e-12


class TestReconstruction:
    def test_vertical_pointer_has_zero_weak_value(self):
        assert reconstruct_weak_value(np.array([0.0, 1.0]), 0.1) == 0.0

    def test_zero_phi_rejected(self):
        with pytest.raises(InvalidCoupling):
            reconstruct_weak_value(np.array([0.0, 1.0]), 0.0)

    def test_uniform_profile_value(self):
        n, phi = 64, 0.1
        psi = uniform_wavefunction(n)
        joint = apply_sliver(psi, SliverCoupling(x0=11, phi=phi))
        pointer, _ = postselect_zero_momentum(joint)
        value = reconstruct_weak_value(pointer, phi)
        assert value == pytest.approx(1 / np.sqrt(n), abs=0.01 * phi**2)

    def test_weakness_warning_above_threshold(self):
        pointer = np.array([0.3, 1.0]) / np.hypot(0.3, 1.0)
        with pytest.warns(UserWarning, match="deflection"):
            reconstruct_weak_value(pointer, 0.5)

    @pytest.mark.parametrize("phi,expected", [(1.0, 1), (0.01, 0)])
    def test_one_deflection_warning_per_scan(self, phi, expected):
        # The per-point loop warned at each of the 10 strongest points.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reconstruct_profile(gaussian_wavefunction(64, 2.0), phi)
        assert [w.category for w in caught] == [UserWarning] * expected
        assert all("deflection" in str(w.message) for w in caught)

    @pytest.mark.parametrize("mode,phi", [
        *((mode, phi) for mode in ("linearized", "exact") for phi in (5e-324, 1e-320, 1e-310)),
        ("linearized", 1e110), ("linearized", 1e200),
    ])
    def test_readout_scale_outside_the_normal_floats_is_rejected(self, mode, phi):
        # numpy divides by (|s_H|^2 + |s_V|^2) phi through its reciprocal, which overflows
        # for a subnormal scale; a huge linearized phi overflows the scale itself.  Either
        # is an error naming phi, with no numpy warning and no deflection warning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidCoupling, match=re.escape(f"phi = {phi!r}")):
                reconstruct_profile(gaussian_wavefunction(64, 8.0), phi, mode=mode)

    @pytest.mark.parametrize("mode", ["linearized", "exact"])
    def test_tiny_phi_with_a_normal_readout_scale_reconstructs(self, mode):
        psi = gaussian_wavefunction(64, 8.0)
        with pytest.raises(InvalidCoupling, match="encodes no weak value"):
            reconstruct_profile(psi, 0.0, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recon = reconstruct_profile(psi, 1e-300, mode=mode)
        np.testing.assert_allclose(recon, true_ratio(psi), rtol=0, atol=1e-15)

    def test_visibility_identity(self):
        # |<s| sx - i sy |s>| equals the qubit visibility of |s><s| for
        # every pointer the scan produces.
        psi = gaussian_wavefunction(64, 10.0)
        for x0 in range(0, 64, 7):
            for mode in ("linearized", "exact"):
                joint = apply_sliver(psi, SliverCoupling(x0=x0, phi=0.1, mode=mode))
                pointer, _ = postselect_zero_momentum(joint)
                sx, sy = pointer_sigma_expectations(pointer)
                lowering = abs(complex(sx, -sy))
                rho = np.outer(pointer, pointer.conj())
                assert abs(lowering - visibility(rho)) < 1e-12

    def test_pointer_magnitude_is_polarization_visibility(self):
        psi = gaussian_wavefunction(64, 10.0)
        phi = 0.05
        joint = apply_sliver(psi, SliverCoupling(x0=30, phi=phi))
        pointer, _ = postselect_zero_momentum(joint)
        value = reconstruct_weak_value(pointer, phi)
        rho = np.outer(pointer, pointer.conj())
        assert abs(value) * phi == pytest.approx(visibility(rho), abs=1e-12)

    def test_global_phase_invariance(self):
        psi = gaussian_wavefunction(64, 12.0)
        rotated = psi * np.exp(1.234j)
        a = reconstruct_profile(psi, 0.05)
        b = reconstruct_profile(rotated, 0.05)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scan_converges_quadratically(self):
        psi = gaussian_wavefunction(256, 32.0)
        truth = true_ratio(psi)
        phis = np.array([0.2, 0.1, 0.05, 0.025])
        for mode in ("linearized", "exact"):
            errors = []
            for phi in phis:
                recon = reconstruct_profile(psi, phi, mode=mode)
                errors.append(np.abs(recon - truth).max())
            order = convergence_order(phis, np.array(errors))
            assert 1.8 <= order <= 2.2
            # Halving phi shrinks the worst error about fourfold.
            assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)

    def test_modes_differ_at_second_order(self):
        psi = gaussian_wavefunction(256, 32.0)
        phis = np.array([0.2, 0.1, 0.05, 0.025])
        gaps = []
        for phi in phis:
            lin = reconstruct_profile(psi, phi, mode="linearized")
            exact = reconstruct_profile(psi, phi, mode="exact")
            gaps.append(np.abs(lin - exact).max())
        order = convergence_order(phis, np.array(gaps))
        assert 1.8 <= order <= 2.2

    def test_complex_profile_reconstructed(self):
        x = grid_positions(128)
        psi = normalized(np.exp(-(x**2) / 800.0) * np.exp(0.05j * x))
        recon = reconstruct_profile(psi, 0.02)
        np.testing.assert_allclose(recon, true_ratio(psi), atol=5e-4)


class TestConvergenceOrder:
    def test_exact_power_law(self):
        phis = np.array([0.2, 0.1, 0.05])
        errors = 3.0 * phis**2
        assert convergence_order(phis, errors) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError):
            convergence_order(np.array([0.1, 0.05]), np.array([-1e-3, 1.0]))

    def test_rejects_nan_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            convergence_order(np.array([0.1, 0.05]), np.array([math.nan, 1.0]))

    def test_rejects_infinite_error(self):
        with pytest.raises(ValueError, match="errors must be finite"):
            convergence_order(np.array([0.1, 0.05]), np.array([math.inf, 1.0]))

    @pytest.mark.parametrize("phi", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_rejects_a_zero_or_non_finite_phi(self, phi, capfd):
        with pytest.raises(ValueError, match="phis must be finite and nonzero"):
            convergence_order(np.array([phi, 0.05]), np.array([1e-3, 1e-2]))
        assert capfd.readouterr().err == ""  # no LAPACK diagnostics for a NaN phi

    @pytest.mark.parametrize("phis,errors", [
        ([0.1, 0.05], [0.0, 1.0]),  # an error exact to the last bit
        ([0.1, 0.05], [0.0, 0.0]),
        ([0.1], [1.0]),  # fewer than two distinct |phi|
        ([0.1, -0.1], [1.0, 1.0]),
    ])
    def test_no_order_is_none(self, phis, errors):
        assert convergence_order(np.array(phis), np.array(errors)) is None

    def test_errors_at_or_below_the_floor_have_no_order(self):
        phis = np.array([0.2, 0.1])
        errors = np.array([4e-17, 1e-17])
        assert convergence_order(phis, errors, floor=1e-17) is None
        assert convergence_order(phis, errors, floor=0.9e-17) == pytest.approx(2.0)


class TestScan:
    @pytest.mark.parametrize("mode", ["linearized", "exact"])
    def test_scan_is_the_reconstruction_per_phi(self, mode):
        x = grid_positions(128)
        psi = normalized(np.exp(-(x**2) / 800.0) * np.exp(0.05j * x))
        phis = [0.2, -0.05, 0.01]
        result = scan(psi, phis, mode)
        truth = true_ratio(psi)
        for phi, recon, error, worst in zip(phis, *result[:3]):
            expected = reconstruct_profile(psi, phi, mode=mode)
            assert recon.tobytes() == expected.tobytes()
            assert error.tobytes() == np.abs(expected - truth).tobytes()
            assert worst == float(error.max())
        assert result.order == convergence_order(np.array(phis), np.array(result.max_errors))

    # gaussian:32 on 256 points has eps max|psi/psi0| = 3.15e-17.  At 1e-9 both max
    # errors are 2.78e-17 and at 1e-7 they are 2.78e-17 and 5.55e-17: round-off,
    # with no order.  At 1e-6 they are 7.2e-16 and 2.8e-15, a real order.
    @pytest.mark.parametrize("phis,order", [
        ([1e-9, 2e-9], None),
        ([1e-7, 2e-7], None),
        ([1e-6, 2e-6], pytest.approx(2.0, abs=0.05)),
    ])
    def test_roundoff_errors_have_no_order(self, phis, order):
        result = scan(gaussian_wavefunction(256, 32.0), phis)
        assert result.order == order
