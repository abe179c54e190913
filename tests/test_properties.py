"""Property tests of the state algebra, the duality bounds, the camera, the
harmonic fit and the weak-value scan.

Angles range over several periods and projectors over the whole Bloch
sphere.  Examples are derandomized, so every run checks the same cases.
"""

import contextlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualitysim import (
    P_MIN,
    DegenerateProfile,
    DualitySimError,
    GridSpec,
    NoiseModel,
    SliverCoupling,
    StateParams,
    ZeroProbabilityPostselection,
    apply_sliver,
    averaged_duality,
    azimuthal_profile,
    closed_form_averaged,
    conditional_duality,
    oam_mode,
    partial_trace_env,
    postselect_env,
    predictability,
    predictability_from_arm_powers,
    projector_bloch,
    projector_from_ket,
    projector_h,
    projector_v,
    reconstruct_profile,
    render_image,
    state_vector,
    synthesize_ports,
    true_ratio,
    unconditional_duality,
    uniform_wavefunction,
    visibility,
)
from dualitysim.cli import main
from dualitysim.duality import (
    conditional_visibility_v,
    postselection_probabilities,
)
from dualitysim.fringes import (
    AzimuthalProfile,
    _fringe_rows,
    _harmonic_fits,
    analytic_ports,
    measure_rows,
    moment_profile,
    port_profile,
)
from dualitysim.optics import write_pgm16
from dualitysim.qubit import basis_branches
from dualitysim.weak import (
    convergence_order,
    gaussian_wavefunction,
    grid_positions,
    normalized,
    scan,
)

from oracles import (
    KET_BOT,
    KET_TOP,
    brute_density,
    brute_partial_trace,
    brute_postselect,
    brute_predictability,
    brute_state,
    brute_visibility,
    loop_reconstruct_profile,
    lstsq_harmonic_fit,
    row_fringe_visibility,
    row_port_amplitudes,
    row_port_analytic,
    row_port_fields,
    row_port_weights,
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
@given(ANGLE, ANGLE, POLAR, AZIMUTH)
def test_scalar_state_algebra_matches_the_oracle(theta, alpha, polar, azimuth):
    # Each report holds the measures of the array its qubit routine returns,
    # bit for bit, and the oracle's within 1e-14.
    params = StateParams(theta, alpha)
    psi = state_vector(params)
    rho4 = brute_density(brute_state(theta, alpha))

    def agrees(report, rho, rho_ref, p_ref):
        assert report.visibility == visibility(rho)
        assert report.predictability == predictability(rho)
        assert abs(report.visibility - brute_visibility(rho_ref)) <= 1e-14
        assert abs(report.predictability - brute_predictability(rho_ref)) <= 1e-14
        assert abs(report.probability - p_ref) <= 1e-14

    agrees(unconditional_duality(params), partial_trace_env(psi),
           brute_partial_trace(rho4), 1.0)
    for proj in (projector_bloch(polar, azimuth),
                 projector_bloch(math.pi - polar, azimuth + math.pi)):
        rho_ref, p_ref = brute_postselect(rho4, proj)
        try:
            rho, p = postselect_env(psi, proj)
        except ZeroProbabilityPostselection:
            assert p_ref < P_MIN + 1e-15
            continue
        agrees(conditional_duality(params, proj), rho, rho_ref, p_ref)
    branches = basis_branches(psi)
    refs = [brute_postselect(rho4, proj) for proj in (projector_h(), projector_v())]
    report = averaged_duality(params)
    assert report.visibility == sum(map(visibility, branches))
    assert report.predictability == sum(map(predictability, branches))
    v_ref = sum(p * brute_visibility(rho) for rho, p in refs if rho is not None)
    p_ref = sum(p * brute_predictability(rho) for rho, p in refs if rho is not None)
    assert abs(report.visibility - v_ref) <= 1e-14
    assert abs(report.predictability - p_ref) <= 1e-14
    assert report.probability == 1.0


@PROPERTY
@given(ANGLE, ANGLE)
def test_mixed_postselection_sum_lies_between_one_and_two(theta, alpha):
    total = conditional_visibility_v(theta, alpha) ** 2 + 1.0
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
        measure_rows(
            synthesize_ports(StateParams(theta, alpha), grid=grid, path_phase=path_phase),
            NoiseModel(),
        ).visibility[0]
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
    # The moment sums reorder the float arithmetic of the rendered frame.
    grid = GridSpec(size)
    syn = synthesize_ports(
        StateParams(theta, alpha), l=l, grid=grid, path_phase=phase, flip_impurity=impurity
    )
    for port in ("v", "h"):
        fast = moment_profile(syn, port).row(0)
        pixel = port_profile(render_image(syn.fields(port)), grid)
        np.testing.assert_array_equal(fast.counts, pixel.counts)
        assert np.abs(fast.values - pixel.values).max() <= 1e-12 * pixel.values.max()


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
    # A flip impurity makes measure_rows render all four frames.
    syn = synthesize_ports(StateParams(theta, alpha), grid=GridSpec(64), flip_impurity=0.1)
    noise = NoiseModel(photons, readout_sigma, seed)
    first, second = (measure_rows(syn, noise, first_row=row) for _ in range(2))
    for port in (0, 1):
        np.testing.assert_array_equal(first.frame(0, port), second.frame(0, port))
    for name in ("v_profile", "h_profile"):
        np.testing.assert_array_equal(getattr(first, name).values, getattr(second, name).values)
    np.testing.assert_array_equal(
        [first.visibility, first.uncertainty, first.predictability],
        [second.visibility, second.uncertainty, second.predictability],
    )


@PROPERTY
@given(
    st.lists(st.tuples(ANGLE, ANGLE), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    AZIMUTH,
    st.sampled_from([0.0, 0.1, 0.3]),
    st.sampled_from([1, -2, 3]),
)
# Underflowed products, where a fused multiply-add keeps a sign of zero that
# the scalar formulas drop: in (lower * flip) * phase, and in p * conj(m).
@example([(-2.5214769578725817e-289, 0.0)], 0, 1.0265993321445783e-116, 0.0, 1)
@example([(2.5, 0.0)], 0, 5e-324, 0.0, 1)
def test_stacked_synthesis_rows_equal_the_scalar_rows(angles, seed, path_phase, impurity, l):
    # 200 more random rows, as abs, hypot and pow differ from their array
    # forms in one value in a thousand or more.
    angles = angles + np.random.default_rng(seed).uniform(-10.0, 10.0, (200, 2)).tolist()
    grid = GridSpec(16)
    rows = [StateParams(theta, alpha) for theta, alpha in angles]
    syn = synthesize_ports(rows, l=l, grid=grid, path_phase=path_phase, flip_impurity=impurity)
    analytic = np.column_stack(analytic_ports(syn))
    stacked_weights = {port: syn.intensity_weights(port) for port in "hv"}
    for k, params in enumerate(rows):
        amplitudes = row_port_amplitudes(params, path_phase, impurity)
        weights = {port: row_port_weights(*amplitudes[port]) for port in "hv"}
        for port in "hv":
            p, m, e = amplitudes[port]
            expected = np.array([(p, m), (e, 0.0)])[:2 if impurity else 1]
            assert syn.amplitudes[port][k].tobytes() == expected.tobytes()
            assert stacked_weights[port][k].tobytes() == weights[port].tobytes()
            fields = syn.fields(port, k)
            expected = row_port_fields(*amplitudes[port], l, grid)
            assert [f.tobytes() for f in fields] == [f.tobytes() for f in expected]
        expected = np.array(row_port_analytic(weights["v"], weights["h"]))
        assert analytic[k].tobytes() == expected.tobytes()


def _either_sign(magnitudes):
    return st.builds(math.copysign, magnitudes, st.sampled_from([1.0, -1.0]))


# Edge classes of the float values the stacked steps square or take the magnitude of.
EDGE_FLOAT = _either_sign(st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0]),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormals
    st.floats(min_value=1e-301, max_value=1e-299),
    st.floats(min_value=1e153, max_value=1.4e154),  # squares near the largest float
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=0.999, max_value=1.001),
))


@PROPERTY
@given(st.lists(EDGE_FLOAT, min_size=1, max_size=64))
# Squares that x * x, numpy's ** and np.square round differently from pow.
@example([1.0006087783863435, -0.9998728132078403])
def test_float_power_squares_as_python_does(values):
    # Python's x**2 and np.float_power(x, 2.0) both call the C library's pow.
    finite = []
    for x in values:
        with contextlib.suppress(OverflowError):
            finite.append((x, x**2))
    xs, squares = np.array(finite).reshape(-1, 2).T
    assert np.float_power(xs, 2.0).tobytes() == squares.tobytes(), (
        "np.float_power(x, 2.0) must equal Python's x**2 bit for bit (both are libm pow)")


@PROPERTY
@given(st.lists(st.tuples(EDGE_FLOAT, EDGE_FLOAT), min_size=1, max_size=64))
def test_hypot_of_the_parts_is_the_complex_magnitude(parts):
    # abs() of a Python complex and np.hypot both call the C library's hypot.
    z = np.array([complex(re, im) for re, im in parts])
    assert np.hypot(z.real, z.imag).tobytes() == np.array([abs(c) for c in z.tolist()]).tobytes(), (
        "np.hypot(z.real, z.imag) must equal abs(z) of a Python complex bit for bit "
        "(both are libm hypot)")


@PROPERTY
@given(
    st.lists(st.tuples(ANGLE, ANGLE), min_size=3, max_size=3),
    AZIMUTH,
    st.sampled_from([0.0, 0.1]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=64, max_value=128),
    st.sampled_from([NoiseModel(), NoiseModel(1e5, 1.0, 11)]),
)
def test_batch_rows_equal_one_row_measurements(angles, phase, impurity, l, size, noise):
    # Row i of a batch is seeded as row i, and no stacked step mixes rows.
    grid = GridSpec(size)
    rows = [StateParams(theta, alpha) for theta, alpha in angles]
    batch = measure_rows(
        synthesize_ports(rows, l=l, grid=grid, path_phase=phase, flip_impurity=impurity), noise
    )
    for i, params in enumerate(rows):
        synthesis = synthesize_ports(params, l=l, grid=grid, path_phase=phase,
                                     flip_impurity=impurity)
        alone = measure_rows(synthesis, noise, first_row=i)
        np.testing.assert_array_equal(
            [batch.visibility[i], batch.uncertainty[i], batch.predictability[i],
             batch.sum_of_squares[i]],
            [alone.visibility[0], alone.uncertainty[0], alone.predictability[0],
             alone.sum_of_squares[0]],
        )
        for name in ("v_profile", "h_profile"):
            row, one = getattr(batch, name), getattr(alone, name)
            np.testing.assert_array_equal(row.values[i], one.values[0])
        assert batch.petal_count(i) == alone.petal_count(0)


@PROPERTY
@given(
    st.lists(st.tuples(ANGLE, ANGLE), min_size=1, max_size=4),
    st.floats(min_value=1e-6, max_value=0.99),
    AZIMUTH,
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1, -1]),
)
def test_mode_frame_predictability_equals_the_closed_form(angles, impurity, phase, charge, sign):
    # An impure H port has two nonzero components, so its P is the contrast
    # of its exact +l and -l frames' totals, which the port weights give.
    syn = synthesize_ports([StateParams(theta, alpha) for theta, alpha in angles],
                           l=sign * charge, grid=GridSpec(64), path_phase=phase,
                           flip_impurity=impurity)
    measured = measure_rows(syn, NoiseModel()).predictability
    _, analytic = analytic_ports(syn)
    lit = ~np.isnan(analytic)
    np.testing.assert_array_equal(np.isnan(measured), ~lit)
    assert np.all(np.abs(measured[lit] - analytic[lit]) <= 1e-12)


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
    profile = AzimuthalProfile(values, np.ones(n_bins, dtype=int))
    l = sign * charge
    if (4 * charge) % n_bins == 0:
        # |l| * window a multiple of 90 deg aliases the harmonic (180 deg) or
        # puts it at the bins' Nyquist rate (90 deg), where B is not identified.
        with pytest.raises(DegenerateProfile):
            _harmonic_fits(values[np.newaxis], l)
        return
    (coeffs,), (covariance,) = _harmonic_fits(values[np.newaxis], l)
    ref_coeffs, ref_covariance = lstsq_harmonic_fit(profile, l)
    np.testing.assert_allclose(coeffs, ref_coeffs, rtol=0, atol=1e-12 * abs(ref_coeffs[0]))
    np.testing.assert_allclose(covariance, ref_covariance, rtol=1e-12, atol=0)


@PROPERTY
@given(
    st.integers(min_value=4, max_value=360),
    st.integers(min_value=1, max_value=32),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_stacked_fit_rows_equal_the_per_row_fit(n_bins, charge, sign, seed, scale):
    # Petal profiles with noise, some with a negative baseline, and one
    # all-zero row; each stacked row must carry the per-row fit's bits.
    rng = np.random.default_rng(seed)
    phi = np.radians(np.arange(n_bins) * 360.0 / n_bins)
    rows = 200
    stack = scale * (
        rng.uniform(-0.2, 1.0, (rows, 1))
        + rng.uniform(0.0, 1.0, (rows, 1)) * np.cos(2 * charge * phi + rng.uniform(0, 7, (rows, 1)))
        + 0.05 * rng.normal(size=(rows, n_bins))
    )
    stack[0] = 0.0
    visibility, uncertainty, _ = _fringe_rows(stack, sign * charge)
    reference = [row_fringe_visibility(values, sign * charge) for values in stack]
    np.testing.assert_array_equal(np.column_stack((visibility, uncertainty)), reference)


@PROPERTY
@given(ANGLE, ANGLE, AZIMUTH, st.floats(min_value=0.0, max_value=0.99, exclude_max=True))
def test_port_powers_are_the_postselection_probabilities(theta, alpha, path_phase, eps):
    # Port "h" is the amplitude matrix's H column and "v" its V column; the
    # impurity splits a port's lower-arm power between modes and keeps it.
    syn = synthesize_ports(StateParams(theta, alpha), path_phase=path_phase, flip_impurity=eps)
    p_h, p_v = postselection_probabilities(theta, alpha)
    for port, probability in (("h", p_h), ("v", p_v)):
        assert abs(sum(syn.intensity_weights(port)[0, :2]) - probability) <= 1e-15


@PROPERTY
@given(ANGLE, ANGLE, ANGLE)
def test_analytic_ports_match_the_brute_force_oracle(theta, alpha, path_phase):
    # Without impurity, V is the |V>-branch visibility and P the |H>-branch
    # predictability of the 4x4 oracle; a branch below P_MIN reads NaN.
    rho4 = brute_density(brute_state(theta, alpha))
    expected = []
    for ket, measure in ((KET_BOT, brute_visibility), (KET_TOP, brute_predictability)):
        branch, probability = brute_postselect(rho4, np.outer(ket, ket.conj()))
        expected.append(measure(branch) if probability >= P_MIN else math.nan)
    analytic = np.concatenate(
        analytic_ports(synthesize_ports(StateParams(theta, alpha), path_phase=path_phase))
    )
    np.testing.assert_allclose(analytic, expected, rtol=0, atol=1e-12)


@PROPERTY
@given(ANGLE, ANGLE, st.floats(min_value=0.0, max_value=0.99, exclude_max=True), ANGLE)
def test_analytic_ports_of_a_lit_h_port(theta, alpha, eps, path_phase):
    # The H-port mode powers (|e|^2, |m|^2) = b^2 (eps^2, 1 - eps^2) come
    # from the amplitudes; the impurity scales the V contrast by sqrt(1 - eps^2).
    syn = synthesize_ports(StateParams(theta, alpha), path_phase=path_phase, flip_impurity=eps)
    assume(sum(syn.intensity_weights("h")[0, :2]) >= P_MIN)
    (visibility,), (predictability,) = analytic_ports(syn)
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


# Edge-class arguments: integers that numpy misreads (a bool, a float index), the
# non-finite and extreme floats, and empty, complex and edge-filled arrays.
EDGE = st.sampled_from([0, -0.0, 1, -1, 1.5, True, math.nan, math.inf, -math.inf,
                        1e300, -1e300, 1e-300, 5e-324])
EDGE_PROFILE = st.one_of(
    st.sampled_from([np.array([], dtype=complex), np.array([1 + 1j, 0.5, -0.25j, 2.0])]),
    EDGE.map(lambda x: np.full(4, x, dtype=complex)),
)
EDGE_FRAME = st.sampled_from([np.ones((32, 32)), np.empty((0, 0)), np.ones((32, 32), complex),
                              np.ones(32)])
# Only the writers see edge-filled frames: a profile does not check its pixel values, which
# would take one more pass over every rendered frame.
EDGE_IMAGE = st.one_of(EDGE_FRAME, EDGE.map(lambda x: np.full((4, 4), x)))
MODE = st.sampled_from(["linearized", "exact"])
EDGE_GRID = GridSpec(32)


def _write_pgm16(image):
    with tempfile.TemporaryDirectory() as folder:
        write_pgm16(Path(folder) / "frame.pgm", image)


ENTRY_POINTS = {
    "apply_sliver": lambda d: apply_sliver(d(EDGE_PROFILE), SliverCoupling(d(EDGE), d(EDGE), d(MODE))),
    "oam_mode": lambda d: oam_mode(d(EDGE), EDGE_GRID),
    "synthesize_ports": lambda d: synthesize_ports(
        StateParams(d(EDGE), d(EDGE)), d(EDGE), EDGE_GRID, d(EDGE), d(EDGE)).fields("h"),
    "azimuthal_profile": lambda d: azimuthal_profile(
        d(EDGE_FRAME), (d(EDGE), d(EDGE)), d(EDGE), d(EDGE), d(EDGE)),
    "write_pgm16": lambda d: _write_pgm16(d(EDGE_IMAGE)),
    "predictability_from_arm_powers": lambda d: predictability_from_arm_powers(d(EDGE), d(EDGE)),
    "scan": lambda d: scan(d(EDGE_PROFILE), [d(EDGE)], d(MODE)),
    "true_ratio": lambda d: true_ratio(d(EDGE_PROFILE)),
    "reconstruct_profile": lambda d: reconstruct_profile(d(EDGE_PROFILE), d(EDGE), d(MODE)),
    "convergence_order": lambda d: convergence_order(
        np.array([d(EDGE), d(EDGE)]), np.array([d(EDGE), d(EDGE)])),
    "uniform_wavefunction": lambda d: uniform_wavefunction(d(EDGE)),
    "gaussian_wavefunction": lambda d: gaussian_wavefunction(d(EDGE), d(EDGE)),
}


@settings(PROPERTY, max_examples=600)
@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data())
def test_edge_arguments_return_or_raise_a_library_error(name, data):
    # A numpy warning (ComplexWarning and RankWarning are RuntimeWarnings too) is an
    # error here, and so is any exception but ValueError or a DualitySimError; the
    # designed weak-coupling warning of a strong phi is not an input error.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "pointer deflection")
        try:
            ENTRY_POINTS[name](data.draw)
        except (ValueError, DualitySimError) as exc:
            assert not isinstance(exc, np.linalg.LinAlgError), (name, exc)


# Edge classes of a command-line number, including pi literals, and per flag of
# ``sweep`` a few values that run.  Each command line gives up to two flags an edge
# value; the grid and the sample count are always given, so that every run stays small.
EDGE_TEXT = ["0", "-0", "1", "-1", "1.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
             "-1e-300", "5e-324", "2.2e-308", "pi", "-pi/2", "2pi", "pi/0",
             "1" + "0" * 308 + "pi"]
SWEEP_FLAGS = {
    "--grid": [str(size) for size in range(43, 65)],
    "--samples": ["2", "3", "5"],
    "--sweep": ["theta", "alpha"],
    "--fixed": ["pi/12", "0.3"],
    "--start": ["0", "-1"],
    "--end": ["2pi", "7"],
    "--seed": ["0", "7"],
    "--photons": ["inf", "1e4", "1e-9"],
    "--readout-sigma": ["0", "2"],
    "--l": ["3", "-3", "32"],
}


@settings(PROPERTY, max_examples=100)
@given(st.sets(st.sampled_from(sorted(SWEEP_FLAGS)), max_size=2), st.data())
def test_sweep_command_lines_exit_with_a_code_and_a_flag(edges, data):
    argv = ["sweep"]
    for flag, values in SWEEP_FLAGS.items():
        if flag in edges or flag in ("--grid", "--samples") or data.draw(st.booleans()):
            value = data.draw(st.sampled_from(EDGE_TEXT if flag in edges else values))
            argv.append(f"{flag}={value}")
    stderr = io.StringIO()
    with (tempfile.TemporaryDirectory() as folder, warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("always")
        out = Path(folder) / "sweep"
        code = main([*argv, "--out", str(out)])
        written = [out.with_suffix(suffix).is_file() for suffix in (".csv", ".json")]
    assert code in (0, 1, 2), argv
    assert not [w.message for w in caught if issubclass(w.category, RuntimeWarning)], argv
    if code == 1:  # argparse's usage line names every flag, so only the error line counts
        assert re.search(r"error: .*--[a-z]", stderr.getvalue()), (argv, stderr.getvalue())
    assert written == [code == 0] * 2, argv
