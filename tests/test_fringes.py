"""Azimuthal profiles, visibility estimators, predictability recovery."""

import math
import tracemalloc
import warnings
import weakref

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
    oam_mode,
    predictability_from_arm_powers,
    predictability_from_images,
    predictability_from_profile,
    render_image,
    synthesize_ports,
)
from dualitysim import fringes, optics
from dualitysim.cli import main
from dualitysim.fringes import (
    AzimuthalProfile,
    _mode_moments,
    analysis_report_json,
    analytic_ports,
    annulus_plan,
    azimuthal_profile,
    fit_operator,
    measure_rows,
    port_profile,
    port_report,
    profile_to_csv,
    write_csv,
)
from dualitysim.optics import PortSynthesis

from oracles import bin_average_cos, mask_azimuthal_profile, meshgrid_mode

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
    return AzimuthalProfile(values=np.asarray(values, dtype=float), counts=np.full(n, 100))


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

    @pytest.mark.parametrize("window", [0.0, -3.0, math.nan, math.inf, 720.0, 1e300])
    def test_window_must_be_positive(self, window):
        image = np.ones((64, 64))
        with pytest.raises(ValueError, match="not positive"):
            azimuthal_profile(image, (31.5, 31.5), 8, 30, window_degrees=window)

    def test_empty_bin_raises(self):
        image = np.ones((64, 64))
        with pytest.raises(EmptyBin):
            # A 2-pixel-radius circle cannot populate 3-degree windows.
            azimuthal_profile(image, (31.5, 31.5), 1.0, 2.0, window_degrees=3.0)

    # 1e-7 and 1e-12 once asked np.bincount for 3.6e9 and 3.6e14 windows, and
    # 5e-324 makes 360 / window infinite.
    @pytest.mark.parametrize("window", [0.01, 1e-7, 1e-12, 1e-300, 5e-324])
    def test_windows_outnumbering_the_annulus_pixels_raise_before_binning(self, window):
        with pytest.raises(EmptyBin, match="outnumber the annulus"):
            azimuthal_profile(np.ones((64, 64)), (31.5, 31.5), 8, 30, window_degrees=window)

    def test_infinite_pixel_profiles_without_a_warning(self):
        # Only window sums are formed, so no two infinite terms are subtracted.
        image = np.ones((64, 64))
        image[31, 45] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = azimuthal_profile(image, (31.5, 31.5), 8, 30)
        assert np.count_nonzero(np.isinf(prof.values)) == 1
        np.testing.assert_array_equal(prof.values[np.isfinite(prof.values)], 1.0)

    def test_huge_pixels_profile_without_a_warning(self):
        # No pixel value is squared.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = azimuthal_profile(np.full((64, 64), 1e200), (31.5, 31.5), 8, 30)
        np.testing.assert_allclose(prof.values, 1e200, rtol=1e-15)

    def test_complex_image_raises(self):
        with pytest.raises(ValueError, match="real intensity image"):
            azimuthal_profile(np.ones((64, 64), dtype=complex), (31.5, 31.5), 8, 30)

    def test_one_dimensional_image_raises(self):
        with pytest.raises(ValueError, match="2-D intensity image"):
            azimuthal_profile(np.ones(64), (31.5, 31.5), 8, 30)

    def test_invalid_radii(self):
        image = np.ones((64, 64))
        with pytest.raises(ValueError):
            azimuthal_profile(image, (31.5, 31.5), 10.0, 5.0)

    def test_six_petal_profile_from_pipeline(self):
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        prof = port_profile(render_image(v), GRID)
        assert count_petals(prof) == 6
        # A flat profile has no bin above its mid-level, so no lobe.
        flat = AzimuthalProfile(np.ones(len(prof)), prof.counts)
        assert count_petals(flat) == 0

    def test_stacked_profile_is_rejected(self):
        # One count over a flattened stack means nothing; each row has its own.
        m = measure_rows(synthesize_ports([StateParams(1.0, 0.7)] * 2, grid=GridSpec(128)),
                         NoiseModel())
        assert [m.petal_count(k) for k in (0, 1)] == [6, 6]
        with pytest.raises(ValueError, match=r"shape \(2, 120\)"):
            count_petals(m.v_profile)


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
        values, counts = mask_azimuthal_profile(image, center, r_min, r_max, 3.0)
        np.testing.assert_array_equal(prof.values, values)
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


def _count_covariance_fits(monkeypatch) -> list[bool]:
    """Whether each stacked harmonic fit from now on forms its covariance, the
    step that only a fit uncertainty reads."""
    fits, original = [], fringes._harmonic_fits

    def counting_fits(values, l, covariance=True):
        fits.append(covariance)
        return original(values, l, covariance)

    monkeypatch.setattr(fringes, "_harmonic_fits", counting_fits)
    return fits


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
        m = measure_rows(syn, NoiseModel())
        assert not rendered
        np.testing.assert_array_equal(m.frame(0, 0), expected)
        assert m.frame(0, 0) is m.frame(0, 0) and len(rendered) == 1

    def test_noiseless_measures_match_the_pixel_path(self):
        grid = GridSpec(128)
        syn = synthesize_ports(StateParams(2.0, 1.1), grid=grid, path_phase=0.3)
        m = measure_rows(syn, NoiseModel())
        v_pixel = fringe_visibility(port_profile(render_image(syn.fields("v")), grid), 3)
        p_pixel = predictability_from_profile(port_profile(render_image(syn.fields("h")), grid), 3)
        np.testing.assert_allclose([m.visibility[0], m.uncertainty[0]], v_pixel, rtol=1e-9)
        assert m.predictability[0] == pytest.approx(p_pixel, abs=1e-9)

    @pytest.mark.parametrize("theta", [1e-9, np.pi - 2e-9])
    def test_analytic_and_measured_ports_agree_on_dark(self, theta):
        # p_H = 2.5e-19 at theta = 1e-9 and p_V = 1e-18 at pi - 2e-9: each
        # value is NaN on both paths, or on neither.
        syn = synthesize_ports(StateParams(theta, 0.0), grid=GridSpec(64))
        m = measure_rows(syn, NoiseModel())
        analytic = np.concatenate(analytic_ports(syn))
        assert np.isnan(analytic).any()
        np.testing.assert_array_equal(np.isnan(analytic),
                                      np.isnan([m.visibility[0], m.predictability[0]]))

    def test_noiseless_sweep_fits_once_per_port(self, monkeypatch, tmp_path):
        # The rows are fitted as one stack per port, not one fit per row, by the
        # fit core (P reaches it through predictability_from_profile).
        stacked_fit = fringes._fringe_rows
        stack_sizes = []

        def counting_fit(values, l, uncertainty=True):
            stack_sizes.append(len(values))
            return stacked_fit(values, l, uncertainty)

        monkeypatch.setattr(fringes, "_fringe_rows", counting_fit)
        assert main(["sweep", "--samples", "37", "--photons", "inf", "--grid", "64",
                     "--out", str(tmp_path / "s")]) == 0
        # p_H is 0 at theta = 0 and round-off at 2 pi: those H ports are dark.
        assert stack_sizes == [37, 35]

    def test_uncertainty_is_formed_on_first_read_as_fringe_visibility_forms_it(self, monkeypatch):
        # Rows: a lit V port; a dark one (theta = pi, alpha = 0); and one lit above
        # P_MIN (p_V = 1e-9) whose frame holds no counts at 1e4 photons, so only the
        # 1e-170 readout noise is left and its fitted baseline's square underflows.
        theta = 2 * math.acos(math.sqrt(1e-9))
        syn = synthesize_ports([StateParams(1.0, 0.7), StateParams(np.pi, 0.0),
                                StateParams(theta, 0.0)], grid=GridSpec(64))
        covariances = _count_covariance_fits(monkeypatch)
        m = measure_rows(syn, NoiseModel(1e4, 1e-170, seed=3))
        assert covariances == [False, False]  # the V and H fits
        assert not math.isnan(m.visibility[0]) and np.isnan(m.visibility[1:]).all()
        uncertainty = m.uncertainty
        assert covariances == [False, False, True] and m.uncertainty is uncertainty
        lit = np.array([True, False, True])
        _, _, reasons = fringes._fringe_rows(m.v_profile.values[lit], 3)
        assert reasons[0] is None and reasons[1].endswith("underflows the uncertainty's gradient")
        expected = np.full(3, np.nan)
        expected[lit] = fringe_visibility(m.v_profile.row(lit), 3)[1]
        assert uncertainty.tobytes() == expected.tobytes() and not math.isnan(uncertainty[0])

    @pytest.mark.parametrize("camera", [["--photons", "inf"], ["--photons", "1e4",
                                                                 "--readout-sigma", "2"]])
    def test_sweep_forms_no_uncertainty(self, camera, monkeypatch, tmp_path):
        covariances = _count_covariance_fits(monkeypatch)
        assert main(["sweep", "--samples", "9", "--grid", "64", *camera,
                     "--out", str(tmp_path / "s")]) == 0
        assert covariances == [False, False]

    def test_render_forms_the_uncertainty_once(self, monkeypatch, tmp_path):
        covariances = _count_covariance_fits(monkeypatch)
        assert main(["render", "--calibrated", "--grid", "64", "--out", str(tmp_path)]) == 0
        assert covariances == [False, True]

    def test_petal_count_reads_zero_on_a_dark_v_row(self):
        # theta = pi, alpha = 0 puts no light in the V port, so its V is NaN.
        syn = synthesize_ports([StateParams(1.0, 0.7), StateParams(np.pi, 0.0)],
                               grid=GridSpec(128))
        m = measure_rows(syn, NoiseModel())
        assert not math.isnan(m.visibility[0]) and math.isnan(m.visibility[1])
        assert m.petal_count(0) == count_petals(m.v_profile.row(0)) == 6
        assert m.petal_count(1) == 0

    def test_impure_h_port_without_counts_reads_nan(self):
        # At 1e-6 photons the lit, impure H port's frames hold no counts,
        # so its image-based P raises ZeroIntensity and the row reads NaN.
        syn = synthesize_ports(StateParams(1.0, 0.7), grid=GridSpec(64), flip_impurity=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = measure_rows(syn, NoiseModel(1e-6))
        assert math.isnan(m.predictability[0])

    def test_mode_frames_render_each_components_part_on_its_mode(self):
        # Two incoherent components, both on +l: the -l frame is a zero
        # frame, not an error, and P is 1 without and with shot noise.
        syn = PortSynthesis(3, GridSpec(64), {
            "h": np.array([[[0.6, 0.0], [0.8, 0.0]]]),
            "v": np.array([[[0.6, 0.8]]]),
        })
        assert len(syn.fields("h")) == 2
        for noise in (NoiseModel(), NoiseModel(1e5, 0.0, 3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert measure_rows(syn, noise).predictability[0] == 1.0

    def test_noisy_frames_are_rendered_with_their_row_and_port_key(self, monkeypatch):
        # Frame (k, port) of rows measured from first_row is render_image's
        # frame keyed (first_row + k, port), and the impure H port's +l and
        # -l frames are keyed with ports 2 and 3.
        grid = GridSpec(64)
        syn = synthesize_ports([StateParams(1.0, 0.7), StateParams(2.0, 0.4)], grid=grid,
                               flip_impurity=0.2)
        noise = NoiseModel(1e5, 1.5, 21)
        keys = []
        original = optics.render_image

        def keyed_render(fields, noise, key=()):
            keys.append(key)
            return original(fields, noise, key)

        monkeypatch.setattr(optics, "render_image", keyed_render)
        rows = measure_rows(syn, noise, first_row=5)
        assert sorted(keys) == [(row, port) for row in (5, 6) for port in range(4)]
        for k in range(2):
            for port, name in enumerate("vh"):
                np.testing.assert_array_equal(
                    rows.frame(k, port), original(syn.fields(name, k), noise, (5 + k, port)))

    @pytest.mark.parametrize("size", [43, 64])
    @pytest.mark.parametrize("l", [3, -3])
    def test_block_height_changes_no_measured_frame(self, size, l, monkeypatch):
        # The impure H port renders all four frames, its +l and -l frames from row slices;
        # the path phase makes the V amplitudes complex, so swapped modes would show.
        syn = synthesize_ports(StateParams(1.0, 0.7), l, GridSpec(size), path_phase=0.3,
                               flip_impurity=0.2)
        noise = NoiseModel(1e5, 2.0, 9)
        original = optics.render_image
        frames = {}

        def recording_render(fields, noise, key=()):
            frame = original(fields, noise, key)
            frames.setdefault(optics.RENDER_BLOCK_ROWS, {})[key] = frame.tobytes()
            return frame

        monkeypatch.setattr(optics, "render_image", recording_render)
        for height in (1, 7, optics.RENDER_BLOCK_ROWS, size):
            monkeypatch.setattr(optics, "RENDER_BLOCK_ROWS", height)
            measure_rows(syn, noise)
        whole = frames[size]
        assert sorted(whole) == [(0, port) for port in range(4)]
        for port, name in enumerate("vh"):
            assert whole[0, port] == original(syn.fields(name), noise, (0, port)).tobytes()
        assert all(by_key == whole for by_key in frames.values())

    def test_at_most_one_earlier_frame_is_alive_at_each_draw(self, monkeypatch):
        # An impure H port's +l and -l frames live until their totals are taken; the
        # V and H frames stay cached for the render that writes them.
        syn = synthesize_ports(StateParams(1.0, 0.7), grid=GridSpec(64), flip_impurity=0.2)
        original = optics.render_image
        drawn, alive_at_draw = [], {}

        def alive() -> list[tuple[int, int]]:
            return [key for key, ref in drawn if ref() is not None]

        def recording_render(fields, noise, key=()):
            alive_at_draw[key] = alive()
            frame = original(fields, noise, key)
            drawn.append((key, weakref.ref(frame)))
            return frame

        monkeypatch.setattr(optics, "render_image", recording_render)
        rows = measure_rows(syn, NoiseModel(1e5, 1.5, 4))
        assert sorted(alive_at_draw) == [(0, port) for port in range(4)]
        assert all(len(earlier) <= 1 for earlier in alive_at_draw.values()), alive_at_draw
        assert alive() == [(0, 0), (0, 1)]
        assert rows.frame(0, 0) is rows.frame(0, 0)

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(1e5, 2.0, 9)],
                             ids=["exact", "noisy"])
    def test_impure_p_equals_p_of_the_whole_mode_frames(self, noise):
        # P read off the bucket totals has the bits of P of the re-rendered +l and -l
        # frames, keyed (first_row + k, 2) and (first_row + k, 3).
        syn = synthesize_ports([StateParams(1.0, 0.7), StateParams(2.0, 0.4)], -3,
                               GridSpec(43), path_phase=0.3, flip_impurity=0.2)
        rows = measure_rows(syn, noise, first_row=5)
        for k, components in enumerate(syn.amplitudes["h"]):
            plus, minus = (
                render_image(lambda r, c=(components * cut).tolist(): syn.field_rows(c, r),
                             noise, (5 + k, 2 + j))
                for j, cut in enumerate(np.eye(2)))
            expected = predictability_from_images(plus, minus)
            assert rows.predictability[k].hex() == expected.hex()

    def test_zero_amplitudes_form_no_field(self):
        # The H port's upper amplitude is 0: its coherent field is m u- alone,
        # and the unflipped light e u+ is the second field.
        syn = synthesize_ports(StateParams(1.0, 0.7), grid=GridSpec(64), flip_impurity=0.2)
        (_, m), (e, _) = syn.amplitudes["h"][0].tolist()
        fields = syn.fields("h")
        np.testing.assert_array_equal(fields[0], m * oam_mode(-3, GridSpec(64)))
        np.testing.assert_array_equal(fields[1], e * oam_mode(3, GridSpec(64)))
        # A dark port still yields one field, an all-zero one.
        [dark] = synthesize_ports(StateParams(0.0, 0.7), grid=GridSpec(64)).fields("h")
        assert not dark.any()

    def test_noiseless_measurement_forms_each_port_weight_once(self, monkeypatch):
        # measure_rows, moment_profile and analytic_ports read one array per port.
        calls = []
        original = optics._weight_rows

        def counting_weights(amplitudes):
            calls.append(amplitudes)
            return original(amplitudes)

        monkeypatch.setattr(optics, "_weight_rows", counting_weights)
        rows = [StateParams(theta, 0.7) for theta in (0.5, 1.0, 2.0, 3.0)]
        syn = synthesize_ports(rows, grid=GridSpec(64))
        assert not calls
        measure_rows(syn, NoiseModel())
        assert len(calls) == 2
        analytic_ports(syn)
        assert len(calls) == 2
        for port in "vh":
            with pytest.raises(ValueError):
                syn.intensity_weights(port)[0, 0] = 1.0

    def test_noiseless_measurement_maps_only_the_fit_amplitudes_per_float(self, monkeypatch):
        # Squares and complex magnitudes have exact array forms; only the V and
        # H fits' math.hypot of (A, B) is evaluated one Python float at a time.
        calls = []
        original = fringes._hypot

        def counting_hypot(a, b):
            calls.append(len(a))
            return original(a, b)

        monkeypatch.setattr(fringes, "_hypot", counting_hypot)
        rows = [StateParams(theta, 0.7) for theta in np.linspace(0.1, 3.0, 37).tolist()]
        m = measure_rows(synthesize_ports(rows, grid=GridSpec(64)), NoiseModel())
        assert not np.isnan(m.visibility).any() and not np.isnan(m.predictability).any()
        assert len(calls) == 2

    @pytest.mark.parametrize("size", [64, 43])
    def test_moment_tables_read_the_minus_mode_as_built(self, size):
        grid = GridSpec(size)
        for l in [*range(1, optics.MAX_OAM + 1), -1, -3, -optics.MAX_OAM]:
            plan, sums = _mode_moments(l, grid)
            u_plus = oam_mode(l, grid).take(plan.pixels)
            u_minus = oam_mode(-l, grid).take(plan.pixels)
            cross = u_plus * u_minus.conj()
            terms = [np.abs(u_plus) ** 2, np.abs(u_minus) ** 2, cross.real, cross.imag]
            np.testing.assert_array_equal(sums, [plan.window_sums(t) for t in terms])

    @pytest.mark.parametrize("l", ["3", "-3"])
    def test_noiseless_sweep_builds_no_full_grid_mode(self, l, tmp_path):
        # The bound sits between this sweep's measured tracemalloc peaks:
        # 22.6 MiB when both charges are built on the full grid, 16.5 MiB
        # when u(|l|) and its full-grid conjugate are, 12.5 MiB when only
        # u(|l|) is, and 5.7 MiB when u(|l|) is formed in row blocks and
        # only its annulus pixels are kept.
        for cached in (optics._mode_data, _mode_moments, annulus_plan):
            cached.cache_clear()
        tracemalloc.start()
        try:
            assert main(["sweep", "--samples", "181", "--photons", "inf", "--grid", "512",
                         "--l", l, "--out", str(tmp_path / "s")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert optics._mode_data.cache_info().misses == 0
        assert peak < 9 * 2**20

    @pytest.mark.parametrize("size", [43, 64, 100])
    def test_mode_block_height_changes_no_bit(self, size, monkeypatch):
        # Any block height, from one row to the whole grid, forms u(|l|), its value on
        # any sorted pixel set and the moment tables bit for bit; no size here is a
        # multiple of 32.
        grid = GridSpec(size)
        pixel_sets = [fringes.port_plan(grid).pixels, np.array([], dtype=np.intp),
                      np.array([size * size // 2 + 3]), np.arange(size * (size - 1), size**2)]
        for height in (1, 7, 32, size):
            monkeypatch.setattr(optics, "RENDER_BLOCK_ROWS", height)
            for cached in (optics._mode_data, _mode_moments):
                cached.cache_clear()
            for l in (1, 3, optics.MAX_OAM):
                mode = optics._mode_data(l, grid)
                assert mode.tobytes() == meshgrid_mode(l, grid).tobytes()
                for pixels in pixel_sets:
                    kept = optics._mode_rows(l, grid, pixels)
                    assert kept.tobytes() == mode.take(pixels).tobytes()
            self.test_moment_tables_read_the_minus_mode_as_built(size)

    def test_calibrated_render_forms_no_full_grid_field(self, tmp_path):
        # The bound sits between the tracemalloc peaks of this 512^2 render: 32.1 MiB
        # with full-grid port fields and their temporaries, 14.7 MiB when only the
        # frames and u(|l|) are full-grid arrays, and 11.9 MiB once the mode frames
        # are kept as bucket totals.
        for cached in (optics._mode_data, _mode_moments, annulus_plan):
            cached.cache_clear()
        tracemalloc.start()
        try:
            assert main(["render", "--calibrated", "--out", str(tmp_path / "r")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert optics._mode_data.cache_info().misses == 1
        assert peak < 20 * 2**20


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

    @pytest.mark.parametrize("l", [True, np.True_, 3.0])
    def test_charge_that_is_no_integer_rejected(self, l):
        # numpy reads a bool as a number, so True would fit the charge-1 harmonic.
        v = synthesize_ports(StateParams(1.0, 0.7), 3, GridSpec(64)).fields("v")
        with pytest.raises(ValueError, match="OAM charge l must be an integer"):
            fringe_visibility(port_profile(render_image(v), GridSpec(64)), l)

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
        stacked = fringe_visibility(fringes.AzimuthalProfile(stack, np.ones(120)), 3)
        np.testing.assert_array_equal(stacked, (visibility, uncertainty))
        for values, reason in zip(stack[:2], reasons):
            with pytest.raises(DegenerateProfile) as raised:
                fringe_visibility(synthetic_profile(values), 3)
            assert str(raised.value) == reason

    def test_baseline_whose_gradient_underflows_reads_nan_with_a_reason(self):
        # At 1e-200 a fringe's c0**2 and |c1| c0 underflow to 0; at 1e-100 they do not.
        angles = np.radians(np.arange(120) * 3.0)
        fringed = 1.0 + 0.5 * np.cos(6 * angles)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            visibility, uncertainty, reasons = fringes._fringe_rows(
                np.stack([1e-200 * fringed, 1e-100 * fringed, fringed]), 3)
        assert reasons[0].startswith("fitted baseline 1") and "underflows" in reasons[0]
        assert math.isnan(visibility[0]) and math.isnan(uncertainty[0])
        assert reasons[1:] == [None, None]
        assert visibility[1] == pytest.approx(visibility[2], rel=1e-12)
        assert uncertainty[1] == pytest.approx(uncertainty[2], rel=1e-6)

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
        assert main(["sweep", "--samples", "181", "--photons", "inf", "--grid", "64",
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
        rows = fringes.PortRows(None, None, visibility, visibility[::-1], None, 3)
        np.testing.assert_array_equal(rows.sum_of_squares, [
            v**2 + p**2 for v, p in zip(visibility.tolist(), visibility[::-1].tolist())
        ])

    def test_arm_power_examples(self):
        assert predictability_from_arm_powers(0.0, 1.0) == pytest.approx(1.0)
        assert predictability_from_arm_powers(0.7, 0.7) == pytest.approx(0.0)

    def test_zero_intensity_raises(self):
        with pytest.raises(ZeroIntensity):
            predictability_from_arm_powers(0.0, 0.0)

    @pytest.mark.parametrize("powers", [(True, 1.0), (1.0, False), (np.True_, 1.0)])
    def test_bool_power_rejected(self, powers):
        with pytest.raises(ValueError, match="powers must be finite and nonnegative"):
            predictability_from_arm_powers(*powers)

    @pytest.mark.parametrize("l", [True, np.True_])
    def test_bool_charge_rejected_by_the_profile_predictability(self, l):
        h = synthesize_ports(StateParams(1.0, 0.7), 3, GridSpec(64)).fields("h")
        with pytest.raises(ValueError, match="OAM charge l must be an integer"):
            predictability_from_profile(port_profile(render_image(h), GridSpec(64)), l)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            predictability_from_arm_powers(-1.0, 1.0)

    @pytest.mark.parametrize("powers", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_power_rejected(self, powers):
        with pytest.raises(ValueError, match="powers must be finite and nonnegative"):
            predictability_from_arm_powers(*powers)

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
        profile_to_csv(prof, path, NoiseModel())
        lines = path.read_text().splitlines()
        assert lines[0] == "angle_deg,mean_intensity,poisson_stderr"
        assert len(lines) == 121

    def test_exact_render_writes_a_zero_poisson_stderr(self, tmp_path):
        out = tmp_path / "exact"
        assert main(["render", "--theta", "1", "--alpha", "0.7", "--grid", "64",
                     "--out", str(out)]) == 0
        for port in "vh":
            path = out / f"{port}_profile.csv"
            assert path.read_text().splitlines()[0] == "angle_deg,mean_intensity,poisson_stderr"
            _, means, error = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
            assert means.all()
            np.testing.assert_array_equal(error, 0.0)

    def test_noisy_poisson_stderr_is_the_window_mean_formula(self, tmp_path):
        out = tmp_path / "noisy"
        assert main(["render", "--theta", "1", "--alpha", "0.7", "--grid", "64", "--photons",
                     "1e4", "--readout-sigma", "2", "--seed", "5", "--out", str(out)]) == 0
        counts = fringes.port_plan(GridSpec(64)).counts
        for port in "vh":
            _, means, error = np.loadtxt(out / f"{port}_profile.csv", delimiter=",",
                                         skiprows=1, unpack=True)
            np.testing.assert_array_equal(error, np.sqrt((means + 2.0**2) / counts))

    def test_poisson_stderr_is_the_spread_of_the_window_means(self, tmp_path):
        # The H port's ring at a budget where its dimmest annulus pixel expects ~760
        # counts, 7.6 readout sigmas, so the clip at 0 never acts and the spread of a
        # window mean over seeded frames is the column's.  Over seeds 0-39,999 in groups
        # of 200, the largest |ratio - 1| of a group's 120 windows read at most 0.23 and
        # its mean squared ratio 1 +- 0.025; dropping sigma_r^2 reads 1.45 or more.
        grid = GridSpec(64)
        field = synthesize_ports(StateParams(1.0, 0.7), 3, grid).fields("h")
        path = tmp_path / "h_profile.csv"
        means, errors = [], []
        for seed in range(200):
            noise = NoiseModel(3e8, 100.0, seed)
            profile_to_csv(port_profile(render_image(field, noise), grid), path, noise)
            _, mean, error = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
            means.append(mean)
            errors.append(error)
        ratio = np.std(means, axis=0, ddof=1) / np.mean(errors, axis=0)
        assert np.abs(ratio - 1.0).max() <= 0.3
        assert abs(np.mean(ratio**2) - 1.0) <= 0.05

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
        syn = synthesize_ports(StateParams(1.0, 0.5), 3, GRID)
        analysis_report_json(path, port_report(measure_rows(syn, NoiseModel()), syn),
                             params={"theta": 1.0})
        report = json.loads(path.read_text())
        assert set(report) >= {"visibility", "uncertainty", "predictability", "method", "params"}
        assert report["params"] == {"theta": 1.0}
