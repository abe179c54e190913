"""Azimuthal profiles, visibility estimators, predictability recovery."""

import math
import tracemalloc

import numpy as np
import pytest

from dualitysim import (
    DegenerateProfile,
    EmptyBin,
    GridSpec,
    NoiseModel,
    StateParams,
    ZeroIntensity,
    closed_form_conditional,
    count_petals,
    fringe_visibility,
    predictability_from_arm_powers,
    predictability_from_images,
    predictability_from_profile,
    render_image,
    synthesize_ports,
)
from dualitysim import fringes, optics
from dualitysim.cli import main
from dualitysim.fringes import (
    _PAIR_MULTIPLICITY,
    _PAIRS,
    AzimuthalProfile,
    _mode_moments,
    analysis_report_json,
    analytic_ports,
    annulus_plan,
    azimuthal_profile,
    fit_operator,
    measure_rows,
    port_profile,
    profile_to_csv,
    write_csv,
)

from oracles import bin_average_cos, mask_azimuthal_profile

GRID = GridSpec()  # 512 x 512, spanning +-4 waists


def painted_annulus(grid: GridSpec, func):
    """Intensity image func(phi) inside the default annulus, else zero."""
    cx, cy = grid.beam_center
    ys, xs = np.indices((grid.size, grid.size))
    r = np.hypot(xs - cx, ys - cy)
    phi = np.arctan2(ys - cy, xs - cx)
    mask = (r >= grid.waist_to_pixels(0.5)) & (r < grid.waist_to_pixels(2.5))
    return np.where(mask, func(phi), 0.0)


def synthetic_profile(values):
    n = len(values)
    return AzimuthalProfile(
        values=np.asarray(values, dtype=float),
        stderr=np.zeros(n),
        counts=np.full(n, 100),
    )


class TestAzimuthalProfile:
    def test_bins_tile_the_circle(self):
        image = painted_annulus(GRID, lambda phi: 1.0)
        prof = port_profile(image, GRID)
        assert len(prof) == 120
        assert prof.window_degrees * len(prof) == pytest.approx(360.0)
        np.testing.assert_allclose(np.diff(prof.angles_deg), 3.0)

    def test_bin_count_fixes_window_and_angles(self):
        image = painted_annulus(GRID, lambda phi: 1.0)
        prof = azimuthal_profile(image, GRID.beam_center, 32, 160, window_degrees=7.5)
        assert len(prof) == 48
        assert prof.window_degrees == 7.5
        np.testing.assert_array_equal(prof.angles_deg, np.arange(48) * 7.5)

    def test_uniform_image_gives_flat_profile(self):
        image = painted_annulus(GRID, lambda phi: 2.5)
        prof = port_profile(image, GRID)
        np.testing.assert_allclose(prof.values, 2.5, atol=1e-12)
        np.testing.assert_allclose(prof.stderr, 0.0, atol=1e-12)

    def test_painted_cosine_within_discretization_error(self):
        image = painted_annulus(GRID, lambda phi: 1.0 + np.cos(6 * phi))
        prof = port_profile(image, GRID)
        window = np.radians(3.0)
        for angle, value in zip(np.radians(prof.angles_deg), prof.values):
            expected = 1.0 + bin_average_cos(6, angle, window)
            assert abs(value - expected) <= 0.005  # 0.5 percent of full scale

    def test_window_must_tile_evenly(self):
        image = painted_annulus(GRID, lambda phi: 1.0)
        with pytest.raises(ValueError):
            azimuthal_profile(image, GRID.beam_center, 32, 160, window_degrees=7.0)

    @pytest.mark.parametrize("window", [0.0, -3.0])
    def test_window_must_be_positive(self, window):
        image = np.ones((64, 64))
        with pytest.raises(ValueError, match="not positive"):
            azimuthal_profile(image, (31.5, 31.5), 8, 30, window_degrees=window)

    def test_empty_bin_raises(self):
        image = np.ones((64, 64))
        with pytest.raises(EmptyBin):
            # A 2-pixel-radius circle cannot populate 3-degree windows.
            azimuthal_profile(image, (31.5, 31.5), 1.0, 2.0, window_degrees=3.0)

    def test_invalid_radii(self):
        image = np.ones((64, 64))
        with pytest.raises(ValueError):
            azimuthal_profile(image, (31.5, 31.5), 10.0, 5.0)

    def test_six_petal_profile_from_pipeline(self):
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        prof = port_profile(render_image(v), GRID)
        assert count_petals(prof) == 6


# (shape, center, r_min, r_max): centred and off-centre annuli on square,
# oblong and full-size frames.
PLAN_CASES = [
    ((64, 64), (31.5, 31.5), 4.0, 20.0),
    ((64, 64), (27.25, 35.0), 3.0, 18.5),
    ((100, 140), (69.5, 49.5), 8.0, 40.0),
    ((100, 140), (60.3, 44.7), 6.5, 35.2),
    ((512, 512), GRID.beam_center, GRID.waist_to_pixels(0.5), GRID.waist_to_pixels(2.5)),
    ((512, 512), (240.2, 270.9), 30.0, 150.0),
]


class TestAnnulusPlan:
    @pytest.mark.parametrize("shape,center,r_min,r_max", PLAN_CASES)
    def test_profile_is_bit_identical_to_the_mask_reference(self, shape, center, r_min, r_max):
        image = np.random.default_rng(shape[1]).gamma(2.0, 3.0, size=shape)
        prof = azimuthal_profile(image, center, r_min, r_max)
        values, stderr, counts = mask_azimuthal_profile(image, center, r_min, r_max, 3.0)
        np.testing.assert_array_equal(prof.values, values)
        np.testing.assert_array_equal(prof.stderr, stderr)
        np.testing.assert_array_equal(prof.counts, counts)

    def test_each_geometry_gets_its_own_plan(self):
        plan = annulus_plan((64, 64), (31.5, 31.5), 4.0, 20.0, 3.0)
        assert annulus_plan((64, 64), (31.5, 31.5), 4.0, 20.0, 3.0) is plan
        other_grid = annulus_plan((64, 80), (31.5, 31.5), 4.0, 20.0, 3.0)
        other_center = annulus_plan((64, 64), (30.25, 31.5), 4.0, 20.0, 3.0)
        assert other_grid is not plan and other_center is not plan
        assert not np.array_equal(other_center.pixels, plan.pixels)

    def test_empty_bin_raises_on_every_call(self):
        image = np.ones((64, 64))
        for _ in range(2):
            with pytest.raises(EmptyBin):
                azimuthal_profile(image, (31.5, 31.5), 1.0, 2.0)


class TestMeasurePorts:
    def test_noiseless_measurement_forms_no_frame_until_read(self, monkeypatch):
        syn = synthesize_ports(StateParams(1.0, 0.7), grid=GridSpec(128))
        expected = render_image(syn.fields("v"))
        rendered = []
        original = optics.render_image

        def counting_render(*args, **kwargs):
            rendered.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(optics, "render_image", counting_render)
        m = measure_rows(syn, NoiseModel()).row(0)
        assert not rendered
        np.testing.assert_array_equal(m.v_image, expected)
        assert m.v_image is m.v_image and len(rendered) == 1

    def test_noiseless_measures_match_the_pixel_path(self):
        grid = GridSpec(128)
        syn = synthesize_ports(StateParams(2.0, 1.1), grid=grid, path_phase=0.3)
        m = measure_rows(syn, NoiseModel()).row(0)
        v_pixel = fringe_visibility(port_profile(render_image(syn.fields("v")), grid), 3)
        p_pixel = predictability_from_profile(port_profile(render_image(syn.fields("h")), grid), 3)
        np.testing.assert_allclose([m.visibility, m.uncertainty], v_pixel, rtol=1e-9)
        assert m.predictability == pytest.approx(p_pixel, abs=1e-9)

    @pytest.mark.parametrize("theta", [1e-9, np.pi - 2e-9])
    def test_analytic_and_measured_ports_agree_on_dark(self, theta):
        # p_H = 2.5e-19 at theta = 1e-9 and p_V = 1e-18 at pi - 2e-9: each
        # value is NaN on both paths, or on neither.
        syn = synthesize_ports(StateParams(theta, 0.0), grid=GridSpec(64))
        m = measure_rows(syn, NoiseModel()).row(0)
        analytic = np.concatenate(analytic_ports(syn))
        assert np.isnan(analytic).any()
        np.testing.assert_array_equal(np.isnan(analytic),
                                      np.isnan([m.visibility, m.predictability]))

    def test_noiseless_sweep_fits_once_per_port(self, monkeypatch, tmp_path):
        # The rows are fitted as one stack per port, not one fit per row,
        # through the public fit function (P calls it through
        # predictability_from_profile).
        stacked_fit = fringes.fringe_visibility
        stack_sizes = []

        def counting_fit(profile, l):
            stack_sizes.append(len(profile.values))
            return stacked_fit(profile, l)

        monkeypatch.setattr(fringes, "fringe_visibility", counting_fit)
        assert main(["sweep", "--samples", "37", "--photons", "inf", "--grid", "64",
                     "--out", str(tmp_path / "s")]) == 0
        # p_H is 0 at theta = 0 and round-off at 2 pi: those H ports are dark.
        assert stack_sizes == [37, 35]

    def test_noiseless_measurement_forms_each_port_weight_once(self, monkeypatch):
        # measure_rows, moment_profile and analytic_ports read one array per port.
        calls = []
        original = optics._port_weights

        def counting_weights(*amplitudes):
            calls.append(amplitudes)
            return original(*amplitudes)

        monkeypatch.setattr(optics, "_port_weights", counting_weights)
        rows = [StateParams(theta, 0.7) for theta in (0.5, 1.0, 2.0, 3.0)]
        syn = synthesize_ports(rows, grid=GridSpec(64))
        assert not calls
        measure_rows(syn, NoiseModel())
        assert len(calls) == 2 * len(rows)
        analytic_ports(syn)
        assert len(calls) == 2 * len(rows)
        for port in "vh":
            with pytest.raises(ValueError):
                syn.intensity_weights(port)[0, 0] = 1.0

    @pytest.mark.parametrize("size", [64, 43])
    def test_moment_tables_read_the_minus_mode_as_built(self, size):
        grid = GridSpec(size)
        for l in [*range(1, optics.MAX_OAM + 1), -1, -3, -optics.MAX_OAM]:
            plan, sums, pair_sums = _mode_moments(l, grid)
            u_plus = optics._mode_data(l, grid).take(plan.pixels)
            u_minus = optics._mode_data(-l, grid).take(plan.pixels)
            cross = u_plus * u_minus.conj()
            terms = [np.abs(u_plus) ** 2, np.abs(u_minus) ** 2, cross.real, cross.imag]
            np.testing.assert_array_equal(sums, [plan.window_sums(t) for t in terms])
            np.testing.assert_array_equal(pair_sums, [
                plan.window_sums(m * terms[i] * terms[j])
                for i, j, m in zip(*_PAIRS, _PAIR_MULTIPLICITY)
            ])

    @pytest.mark.parametrize("l", ["3", "-3"])
    def test_noiseless_sweep_builds_one_full_grid_mode(self, l, tmp_path):
        # The bound sits between this sweep's measured tracemalloc peaks:
        # 22.6 MiB when both charges are built on the full grid, 16.5 MiB
        # when u(|l|) and its full-grid conjugate are, 12.5 MiB when only
        # u(|l|) is and its conjugate is read on the annulus pixels.
        for cached in (optics._mode_data, _mode_moments, annulus_plan):
            cached.cache_clear()
        tracemalloc.start()
        try:
            assert main(["sweep", "--samples", "181", "--photons", "inf", "--grid", "512",
                         "--l", l, "--out", str(tmp_path / "s")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert optics._mode_data.cache_info().misses == 1
        assert peak < 15 * 2**20


class TestFringeVisibility:
    def test_flat_profile_is_fringeless(self):
        vis, unc = fringe_visibility(synthetic_profile(np.ones(120)), 3)
        assert vis == pytest.approx(0.0, abs=1e-12)
        assert unc == pytest.approx(0.0, abs=1e-12)

    def test_perfect_fringes_on_painted_annulus(self):
        image = painted_annulus(GRID, lambda phi: 1.0 + np.cos(6 * phi))
        prof = port_profile(image, GRID)
        vis, _ = fringe_visibility(prof, 3)
        assert vis == pytest.approx(1.0, abs=1e-3)

    def test_pipeline_value_matches_closed_form(self):
        params = StateParams(np.pi / 2, np.pi / 2)
        v = synthesize_ports(params, 3, GRID).fields("v")
        prof = port_profile(render_image(v), GRID)
        vis, _ = fringe_visibility(prof, 3)
        expected, _ = closed_form_conditional(params)
        assert vis == pytest.approx(expected, abs=1e-3)
        assert vis == pytest.approx(0.9428090415820634, abs=1e-3)

    def test_analytic_fringe_law_on_parameter_grid(self):
        # Noiseless end to end, the fitted contrast of the V port tracks
        # the closed form; 512 px keeps pixel sampling below 5e-4.
        for theta in np.linspace(0.4, 2 * np.pi - 0.4, 5):
            for alpha in np.linspace(0.4, 2 * np.pi - 0.4, 5):
                params = StateParams(theta, alpha)
                v = synthesize_ports(params, 3, GRID).fields("v")
                prof = port_profile(render_image(v), GRID)
                vis, _ = fringe_visibility(prof, 3)
                expected, _ = closed_form_conditional(params)
                assert abs(vis - expected) < 1e-3

    def test_l_zero_rejected(self):
        with pytest.raises(ValueError):
            fringe_visibility(synthetic_profile(np.ones(120)), 0)

    def test_all_zero_profile_degenerate(self):
        with pytest.raises(DegenerateProfile):
            fringe_visibility(synthetic_profile(np.zeros(120)), 3)

    @pytest.mark.parametrize("l", [60, -60, 120, 30, -30, 90])
    def test_harmonic_aliased_to_a_constant_is_degenerate(self, l):
        # |l| * 3 deg is a multiple of 180 deg: cos(2|l| phi) is 1 on every
        # bin; or an odd multiple of 90 deg: cos alternates and sin is 0.
        values = 1.0 + 0.5 * np.cos(np.arange(120))
        with pytest.raises(DegenerateProfile, match=rf"\|l\|={abs(l)} .* 3-degree windows"):
            fringe_visibility(synthetic_profile(values), l)

    def test_degenerate_rows_read_nan_with_the_scalar_reasons(self):
        angles = np.radians(np.arange(120) * 3.0)
        fringed = 1.0 + 0.5 * np.cos(6 * angles)
        stack = np.stack([np.zeros(120), -1.0 + 1.5 * np.cos(6 * angles), fringed])
        visibility, uncertainty, reasons = fringes._fringe_rows(stack, 3)
        assert reasons[0] == "profile carries no intensity"
        assert reasons[1].startswith("fitted baseline") and reasons[1].endswith("is not positive")
        assert reasons[2] is None
        assert np.isnan(visibility[:2]).all() and np.isnan(uncertainty[:2]).all()
        assert (visibility[2], uncertainty[2]) == fringe_visibility(synthetic_profile(fringed), 3)
        stacked = fringe_visibility(fringes.AzimuthalProfile(stack, stack, np.ones(120)), 3)
        np.testing.assert_array_equal(stacked, (visibility, uncertainty))
        for values, reason in zip(stack[:2], reasons):
            with pytest.raises(DegenerateProfile) as raised:
                fringe_visibility(synthetic_profile(values), 3)
            assert str(raised.value) == reason

    def test_visibility_clamped_to_unity(self):
        angles = np.radians(np.arange(120) * 3.0)
        values = np.clip(1.0 + 1.2 * np.cos(6 * angles), 0.0, None)
        vis, _ = fringe_visibility(synthetic_profile(values), 3)
        assert vis <= 1.0

    def test_noise_robustness_over_seeds(self):
        # Mean fitted visibility over 100 shot-noise frames at a million
        # photons stays within 0.01 of the noiseless value.
        params = StateParams(np.pi / 2, np.pi / 2)
        v = synthesize_ports(params, 3, GRID).fields("v")
        truth, _ = fringe_visibility(port_profile(render_image(v), GRID), 3)
        estimates = []
        for seed in range(100):
            image = render_image(v, NoiseModel(1e6, 0.0, seed=seed))
            vis, _ = fringe_visibility(port_profile(image, GRID), 3)
            estimates.append(vis)
        assert abs(np.mean(estimates) - truth) < 0.01

    def test_noise_robustness_with_readout(self):
        # Readout noise of 2 counts is harmless once pixels hold well
        # over a count each (10 million photons here).
        params = StateParams(np.pi / 2, np.pi / 2)
        v = synthesize_ports(params, 3, GRID).fields("v")
        truth, _ = fringe_visibility(port_profile(render_image(v), GRID), 3)
        estimates = []
        for seed in range(40):
            image = render_image(v, NoiseModel(1e7, 2.0, seed=seed))
            vis, _ = fringe_visibility(port_profile(image, GRID), 3)
            estimates.append(vis)
        assert abs(np.mean(estimates) - truth) < 0.01

    def test_clamped_readout_censors_dim_exposures(self):
        # At a million photons the outer annulus holds under a count per
        # pixel; clamping the readout noise then inflates every bin
        # baseline and pulls the fitted contrast down by a few percent.
        # This documents the censoring regime of the camera model.
        params = StateParams(np.pi / 2, np.pi / 2)
        v = synthesize_ports(params, 3, GRID).fields("v")
        truth, _ = fringe_visibility(port_profile(render_image(v), GRID), 3)
        estimates = []
        for seed in range(25):
            image = render_image(v, NoiseModel(1e6, 2.0, seed=seed))
            vis, _ = fringe_visibility(port_profile(image, GRID), 3)
            estimates.append(vis)
        bias = np.mean(estimates) - truth
        assert -0.1 < bias < -0.01

    def test_fit_uncertainty_covers_noise_scatter(self):
        params = StateParams(np.pi / 2, np.pi / 2)
        v = synthesize_ports(params, 3, GRID).fields("v")
        image = render_image(v, NoiseModel(1e6, 0.0, seed=3))
        vis, unc = fringe_visibility(port_profile(image, GRID), 3)
        truth, _ = fringe_visibility(port_profile(render_image(v), GRID), 3)
        assert unc > 0
        assert abs(vis - truth) < 6 * unc


class TestFitOperator:
    def test_operator_is_read_only_and_shared_by_both_signs_of_l(self):
        profile = synthetic_profile(np.ones(120))
        fit_operator.cache_clear()
        for l in (3, -3):
            fringe_visibility(profile, l)
        assert fit_operator.cache_info().misses == 1
        design, pinv, inv_normal = fit_operator(120, 3)
        for array in (design, pinv, inv_normal):
            with pytest.raises(ValueError):
                array[0, 0] = 0.0

    def test_noiseless_sweep_builds_the_operator_once(self, tmp_path):
        fit_operator.cache_clear()
        assert main(["sweep", "--samples", "181", "--pipeline", "--grid", "64",
                     "--out", str(tmp_path / "s")]) == 0
        # One stacked fit per port: built for the V port, reused for the H port.
        assert fit_operator.cache_info().misses == 1
        assert fit_operator.cache_info().hits == 1


class TestPredictability:
    def test_stacked_steps_keep_the_scalar_rounding(self):
        # Python's x**2 (libm pow) and x * x differ in about one value in a
        # thousand; P must round as the scalar sqrt(1 - V**2) does.
        candidates = np.random.default_rng(3).uniform(0.0, 1.0, 100_000).tolist()
        visibility = np.array([v for v in candidates if v**2 != v * v] + [0.0, 1.0, np.nan])
        assert len(visibility) > 10
        expected = [math.sqrt(1.0 - v**2) for v in visibility.tolist()]
        np.testing.assert_array_equal(fringes._coherent_predictability(visibility), expected)
        rows = fringes.PortRows(None, None, visibility, visibility, visibility[::-1], None)
        np.testing.assert_array_equal(rows.sum_of_squares, [
            fringes.PortMeasurement(None, None, v, v, p, None).sum_of_squares
            for v, p in zip(visibility.tolist(), visibility[::-1].tolist())
        ])

    def test_arm_power_examples(self):
        assert predictability_from_arm_powers(0.0, 1.0) == pytest.approx(1.0)
        assert predictability_from_arm_powers(0.7, 0.7) == pytest.approx(0.0)

    def test_zero_intensity_raises(self):
        with pytest.raises(ZeroIntensity):
            predictability_from_arm_powers(0.0, 0.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            predictability_from_arm_powers(-1.0, 1.0)

    def test_from_images(self):
        plus = np.zeros((8, 8))
        minus = np.full((8, 8), 2.0)
        assert predictability_from_images(plus, minus) == pytest.approx(1.0)

    def test_h_port_profile_gives_unity(self):
        for theta, alpha in [(np.pi / 2, np.pi / 2), (1.3, 0.7), (2.0, 2.8)]:
            h = synthesize_ports(StateParams(theta, alpha), 3, GRID).fields("h")
            prof = port_profile(render_image(h), GRID)
            assert predictability_from_profile(prof, 3) == pytest.approx(1.0, abs=1e-6)

    def test_balanced_petals_give_zero(self):
        # alpha = pi sends everything vertical: at theta = pi/2 the V port
        # holds equal +l/-l amplitudes, so its own predictability vanishes.
        # sqrt(1 - V^2) is ill-conditioned as V -> 1, so pixel-level
        # discretization of a few 1e-4 in V still allows a few 1e-2 here.
        v = synthesize_ports(StateParams(np.pi / 2, np.pi), 3, GRID).fields("v")
        prof = port_profile(render_image(v), GRID)
        assert predictability_from_profile(prof, 3) == pytest.approx(0.0, abs=0.05)


class TestExports:
    def test_profile_csv_schema(self, tmp_path):
        prof = synthetic_profile(np.ones(120))
        path = tmp_path / "profile.csv"
        profile_to_csv(prof, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "angle_deg,mean_intensity,stderr"
        assert len(lines) == 121

    def test_csv_values_format_as_repr_digits(self, tmp_path):
        # Each value is written as format(value, ".17g") would write it.
        path = tmp_path / "values.csv"
        rows = [[np.nan, np.inf, -np.inf, -0.0], [0.1, 1.0, 3, 1e-300]]
        write_csv(path, ["a", "b", "c", "d"], rows)
        assert path.read_text() == "a,b,c,d\nnan,inf,-inf,-0\n0.10000000000000001,1,3,1e-300\n"
        write_csv(path, ["a"], [])
        assert path.read_text() == "a\n"

    def test_report_json_keys(self, tmp_path):
        import json

        path = tmp_path / "report.json"
        analysis_report_json(
            path,
            visibility=0.9,
            uncertainty=0.01,
            predictability=1.0,
            params={"theta": 1.0},
        )
        report = json.loads(path.read_text())
        assert set(report) >= {"visibility", "uncertainty", "predictability", "method", "params"}
