"""Mode synthesis, interferometer ports, camera rendering, exports."""

import json

import numpy as np
import pytest

from dualitysim import (
    ChargeOutOfRange,
    DualitySimError,
    GridSpec,
    NoiseModel,
    StateParams,
    calibrated_operating_point,
    oam_mode,
    render_image,
    synthesize_ports,
)
from dualitysim.optics import (
    MAX_OAM,
    POISSON_LAM_MAX,
    _mode_data,
    write_metadata,
    write_pfm,
    write_pgm16,
)

from oracles import meshgrid_mode

GRID = GridSpec(256)
FULL = GridSpec()


def power(fields) -> float:
    """Total power of ``fields`` on ``GRID``: summed |amplitude|^2 times pixel area."""
    return float(render_image(fields).sum() * GRID.pixel_area)


class TestOamMode:
    def test_unit_power(self):
        for l in (-3, 0, 1, 3, 5):
            assert power(oam_mode(l, GRID)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_largest_supported_charge_is_finite(self):
        for l in (MAX_OAM, -MAX_OAM):
            assert np.isfinite(oam_mode(l, GridSpec(64)).data).all()
            syn = synthesize_ports(StateParams(1.0, 1.0), l=l, grid=GridSpec(64))
            assert np.isfinite(syn.fields("v")[0].data).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l", [MAX_OAM + 1, -(MAX_OAM + 1), 500])
    def test_charge_beyond_max_oam_is_rejected(self, l):
        grid = GridSpec(64)
        with pytest.raises(ChargeOutOfRange, match=rf"optics\.MAX_OAM = {MAX_OAM}"):
            oam_mode(l, grid)
        with pytest.raises(ChargeOutOfRange, match=rf"optics\.MAX_OAM = {MAX_OAM}"):
            synthesize_ports(StateParams(1.0, 1.0), l=l, grid=grid)
        assert issubclass(ChargeOutOfRange, DualitySimError)

    @pytest.mark.filterwarnings("error")
    def test_every_mode_is_checked_where_it_is_built(self):
        # A synthesis whose charge was changed after the up-front check still
        # builds its fields through the checked mode table.
        grid = GridSpec(64)
        syn = synthesize_ports(StateParams(1.0, 1.0), l=3, grid=grid)
        syn.l = 500
        with pytest.raises(ChargeOutOfRange, match=rf"optics\.MAX_OAM = {MAX_OAM}"):
            syn.fields("v")

    @pytest.mark.parametrize("size", [64, 43])
    def test_negative_charge_is_the_exact_conjugate(self, size):
        # Compared as values: on an odd grid the centre pixel's zero may
        # carry either sign, which |u|^2 erases.
        grid = GridSpec(size)
        for l in range(1, MAX_OAM + 1):
            minus = _mode_data(-l, grid)
            assert np.array_equal(minus, _mode_data(l, grid).conj())
            assert not minus.flags.writeable

    @pytest.mark.parametrize("size", [64, 43])
    def test_every_charge_equals_its_from_scratch_build(self, size):
        grid = GridSpec(size)
        for l in range(-MAX_OAM, MAX_OAM + 1):
            assert np.array_equal(_mode_data(l, grid), meshgrid_mode(l, grid))

    def test_phase_winds_l_times(self):
        mode = oam_mode(3, GRID)
        cx, cy = GRID.beam_center
        angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        radius = GRID.waist_to_pixels(1.2)
        xs = np.clip(np.round(cx + radius * np.cos(angles)).astype(int), 0, 255)
        ys = np.clip(np.round(cy + radius * np.sin(angles)).astype(int), 0, 255)
        samples = mode.data[ys, xs]
        # Remove the ideal winding; the residual phase should be flat.
        pixel_angles = np.arctan2(ys - cy, xs - cx)
        residual = samples * np.exp(-3j * pixel_angles)
        assert np.std(np.angle(residual)) < 1e-10
        # Winding number around the closed loop is exactly l.
        phase = np.angle(samples)
        steps = np.angle(np.exp(1j * np.diff(np.append(phase, phase[0]))))
        winding = steps.sum() / (2 * np.pi)
        assert winding == pytest.approx(3.0, abs=1e-9)

    def test_opposite_charges_share_intensity(self):
        plus = oam_mode(3, GRID)
        minus = oam_mode(-3, GRID)
        assert np.array_equal(render_image(plus), render_image(minus))
        np.testing.assert_allclose(plus.data, minus.data.conj(), atol=1e-15)

    def test_opposite_charges_are_orthogonal(self):
        plus = oam_mode(3, FULL)
        minus = oam_mode(-3, FULL)
        overlap = np.sum(plus.data.conj() * minus.data) * FULL.pixel_area
        assert abs(overlap) < 1e-6

    def test_azimuthally_uniform_intensity(self):
        mode = oam_mode(3, GRID)
        intensity = render_image(mode)
        # Fourfold grid symmetry: rotating the image by 90 degrees must
        # reproduce it exactly.
        assert np.allclose(intensity, np.rot90(intensity), atol=1e-15)


class TestGridSpec:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            GridSpec(8)

    def test_default_center_is_symmetric(self):
        assert FULL.beam_center == (255.5, 255.5)

    def test_pixel_size(self):
        assert FULL.pixel_size == pytest.approx(8.0 / 512)


class TestInterferometer:
    def test_maximally_correlated_ports(self):
        syn = synthesize_ports(StateParams(np.pi / 2, 0.0), 3, GRID)
        h, v = syn.fields("h"), syn.fields("v")
        assert power(h) == pytest.approx(0.5, abs=1e-12)
        assert power(v) == pytest.approx(0.5, abs=1e-12)
        # Each port carries a single charge: intensities are rotation
        # invariant, i.e. no petals anywhere.
        for image in (render_image(h), render_image(v)):
            assert np.allclose(image, np.rot90(image), atol=1e-15)

    def test_lower_arm_fully_vertical(self):
        syn = synthesize_ports(StateParams(np.pi / 2, np.pi), 3, GRID)
        h, v = syn.fields("h"), syn.fields("v")
        assert power(h) == pytest.approx(0.0, abs=1e-12)
        assert power(v) == pytest.approx(1.0, abs=1e-12)

    def test_energy_conservation_on_grid(self):
        for theta in np.linspace(0, 2 * np.pi, 9):
            for alpha in np.linspace(0, 2 * np.pi, 9):
                params = StateParams(theta, alpha)
                syn = synthesize_ports(params, 3, GRID)
                h, v = syn.fields("h"), syn.fields("v")
                assert power(h) + power(v) == pytest.approx(1.0, abs=1e-9)
                expected_h = np.sin(theta / 2) ** 2 * np.cos(alpha / 2) ** 2
                assert power(h) == pytest.approx(expected_h, abs=1e-9)

    def test_h_port_single_charge(self):
        # The horizontal output is one OAM mode for any preparation.
        h = synthesize_ports(StateParams(1.1, 0.9), 3, GRID).fields("h")
        image = render_image(h)
        assert np.allclose(image, np.rot90(image), atol=1e-15)

    def test_path_phase_rotates_petals_only(self):
        from dualitysim.fringes import fringe_visibility, port_profile

        params = StateParams(np.pi / 2, np.pi / 2)
        delta = np.pi / 7
        v0 = synthesize_ports(params, 3, GRID).fields("v")
        v1 = synthesize_ports(params, 3, GRID, path_phase=delta).fields("v")
        assert power(v0) == pytest.approx(power(v1), abs=1e-12)
        prof0 = port_profile(render_image(v0), GRID)
        prof1 = port_profile(render_image(v1), GRID)
        vis0, _ = fringe_visibility(prof0, 3)
        vis1, _ = fringe_visibility(prof1, 3)
        assert vis1 == pytest.approx(vis0, abs=1e-3)
        # The pattern rotates: its angular cross-correlation peaks at the
        # petal shift delta / (2 l).
        m = 2 * 3
        phases = np.exp(1j * m * np.radians(prof0.angles_deg))
        lag0 = np.angle(np.sum(prof0.values * phases))
        lag1 = np.angle(np.sum(prof1.values * phases))
        shift = np.angle(np.exp(1j * (lag1 - lag0)))
        assert shift == pytest.approx(delta, abs=1e-3)

    def test_petal_count_is_twice_charge(self):
        params = StateParams(np.pi / 2, np.pi / 2)
        for l in (1, 2, 3):
            v = synthesize_ports(params, l, GRID).fields("v")
            cx, cy = GRID.beam_center
            angles = np.linspace(0, 2 * np.pi, 1440, endpoint=False)
            # Sample each mode on its own ring radius sqrt(l/2), where the
            # envelope is stationary and pixel rounding cannot flip bins.
            radius = GRID.waist_to_pixels(np.sqrt(l / 2))
            xs = np.round(cx + radius * np.cos(angles)).astype(int)
            ys = np.round(cy + radius * np.sin(angles)).astype(int)
            ring = render_image(v)[ys, xs]
            mid = 0.5 * (ring.max() + ring.min())
            above = ring > mid
            rising = np.sum(above[1:] & ~above[:-1]) + int(above[0] and not above[-1])
            assert rising == 2 * l

    def test_impurity_bookkeeping(self):
        params, eps = calibrated_operating_point()
        syn = synthesize_ports(params, 3, GRID, flip_impurity=eps)
        h_plus, h_minus = syn.intensity_weights("h")[:2]
        v_plus, v_minus = syn.intensity_weights("v")[:2]
        assert h_plus + h_minus + v_plus + v_minus == pytest.approx(1.0, abs=1e-12)
        # The impurity ratio fixes the H-port mode split.
        assert h_plus / (h_plus + h_minus) == pytest.approx(eps**2, abs=1e-12)
        # H-port image of the incoherent mixture stays rotation invariant.
        image = render_image(syn.fields("h"))
        assert np.allclose(image, np.rot90(image), atol=1e-18)

    def test_impurity_range_check(self):
        with pytest.raises(ValueError):
            synthesize_ports(StateParams(1.0, 1.0), 3, GRID, flip_impurity=1.0)

    def test_zero_charge_is_rejected(self):
        with pytest.raises(ValueError, match="nonzero OAM charge"):
            synthesize_ports(StateParams(1.0, 1.0), l=0, grid=GridSpec(64))
        assert np.array_equal(oam_mode(0, GRID).data, meshgrid_mode(0, GRID))

    @pytest.mark.parametrize("path_phase", [np.nan, np.inf, -np.inf])
    def test_non_finite_path_phase_is_rejected(self, path_phase):
        with pytest.raises(ValueError, match="path_phase must be finite"):
            synthesize_ports(StateParams(1.0, 0.7), grid=GridSpec(64), path_phase=path_phase)


class TestRenderImage:
    def test_noiseless_is_exact_intensity(self):
        [v] = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        image = render_image(v, NoiseModel())
        np.testing.assert_array_equal(image, np.abs(v.data) ** 2)

    def test_infinite_budget_sentinel(self):
        [v] = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        image = render_image(v, NoiseModel(photon_budget=np.inf))
        np.testing.assert_array_equal(image, np.abs(v.data) ** 2)

    def test_vacuum_renders_black(self):
        h = synthesize_ports(StateParams(np.pi / 2, np.pi), 3, GRID).fields("h")
        image = render_image(h, NoiseModel(photon_budget=1e5, readout_sigma=0.0, seed=1))
        assert image.sum() == 0.0

    def test_deterministic_given_seed(self):
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        noise = NoiseModel(photon_budget=1e5, readout_sigma=2.0, seed=42)
        a = render_image(v, noise)
        b = render_image(v, noise)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_noise(self):
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        a = render_image(v, NoiseModel(1e5, 2.0, seed=1))
        b = render_image(v, NoiseModel(1e5, 2.0, seed=2))
        assert not np.array_equal(a, b)

    def test_expected_counts_match_budget(self):
        v = synthesize_ports(StateParams(np.pi / 2, np.pi), 3, GRID).fields("v")
        image = render_image(v, NoiseModel(photon_budget=2e5, readout_sigma=0.0, seed=3))
        # Unit-power port: expected total counts equal the budget.
        assert image.sum() == pytest.approx(2e5, rel=0.02)

    def test_counts_are_nonnegative(self):
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        image = render_image(v, NoiseModel(1e4, 5.0, seed=4))
        assert (image >= 0).all()

    def test_mismatched_grids_rejected(self):
        a = oam_mode(3, GRID)
        b = oam_mode(3, GridSpec(128))
        with pytest.raises(ValueError):
            render_image([a, b])

    def test_budget_beyond_poisson_range_is_rejected(self):
        # The bound is numpy's own: its sampler takes it and nothing above.
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_LAM_MAX)
        with pytest.raises(ValueError):
            rng.poisson(np.nextafter(POISSON_LAM_MAX, np.inf))
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        peak = render_image(v).max() * GRID.pixel_area
        assert render_image(v, NoiseModel(9.2e18 / peak, seed=1)).max() > 0
        with pytest.raises(ValueError, match=r"photon budget 1e\+25 .* Poisson"):
            render_image(v, NoiseModel(1e25, seed=1))

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(photon_budget=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(readout_sigma=-0.1)


class TestCalibration:
    def test_impurity_sets_predictability(self):
        _, eps = calibrated_operating_point(p_target=0.98)
        assert 1.0 - 2.0 * eps**2 == pytest.approx(0.98, abs=1e-12)

    def test_visibility_target_honored(self):
        params, eps = calibrated_operating_point(v_target=0.93)
        a = np.cos(params.theta / 2)
        c = np.sin(params.theta / 2) * np.sin(params.alpha / 2)
        v = 2 * a * c * np.sqrt(1 - eps**2) / (a**2 + c**2)
        assert v == pytest.approx(0.93, abs=1e-12)

    def test_faint_h_branch(self):
        params, _ = calibrated_operating_point()
        b_sq = np.sin(params.theta / 2) ** 2 * np.cos(params.alpha / 2) ** 2
        assert b_sq < 0.05  # the horizontal output is the faint one


class TestExports:
    def test_pfm_round_trip(self, tmp_path):
        image = np.arange(12.0, dtype=float).reshape(3, 4) / 7.0
        path = tmp_path / "img.pfm"
        write_pfm(path, image)
        raw = path.read_bytes()
        header, dims, scale, rest = raw.split(b"\n", 3)
        assert header == b"Pf"
        assert dims == b"4 3"
        assert float(scale) == -1.0
        decoded = np.frombuffer(rest, dtype="<f4").reshape(3, 4)
        np.testing.assert_allclose(np.flipud(decoded), image, rtol=1e-7)

    def test_pgm_round_trip(self, tmp_path):
        image = np.linspace(0.0, 3.0, 20).reshape(4, 5)
        path = tmp_path / "img.pgm"
        scale = write_pgm16(path, image)
        raw = path.read_bytes()
        magic, dims, maxval, rest = raw.split(b"\n", 3)
        assert magic == b"P5" and maxval == b"65535"
        levels = np.frombuffer(rest, dtype=">u2").reshape(4, 5)
        np.testing.assert_allclose(levels * scale, image, atol=scale)

    def test_metadata_sidecar(self, tmp_path):
        path = tmp_path / "meta.json"
        write_metadata(
            path,
            StateParams(1.0, 2.0),
            3,
            GRID,
            NoiseModel(1e6, 2.0, seed=5),
            extra={"note": "test"},
        )
        meta = json.loads(path.read_text())
        assert meta["theta"] == 1.0
        assert meta["oam_charge"] == 3
        assert meta["noise"]["seed"] == 5
        assert meta["note"] == "test"
