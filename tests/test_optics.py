"""Mode synthesis, interferometer ports, camera rendering, exports."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualitysim import (
    ChargeOutOfRange,
    DualitySimError,
    GridSpec,
    NoiseModel,
    StateParams,
    amplitude_rows,
    calibrated_operating_point,
    oam_mode,
    render_image,
    synthesize_ports,
)
from dualitysim import optics
from dualitysim.fringes import measure_rows
from dualitysim.optics import (
    MAX_OAM,
    POISSON_LAM_MAX,
    RENDER_BLOCK_ROWS,
    _mode_data,
    write_json,
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
            assert np.isfinite(oam_mode(l, GridSpec(64))).all()
            syn = synthesize_ports(StateParams(1.0, 1.0), l=l, grid=GridSpec(64))
            assert np.isfinite(syn.fields("v")[0]).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l", [MAX_OAM + 1, -(MAX_OAM + 1), 500])
    def test_charge_beyond_max_oam_is_rejected(self, l):
        grid = GridSpec(64)
        with pytest.raises(ChargeOutOfRange, match=rf"optics\.MAX_OAM = {MAX_OAM}"):
            oam_mode(l, grid)
        with pytest.raises(ChargeOutOfRange, match=rf"optics\.MAX_OAM = {MAX_OAM}"):
            synthesize_ports(StateParams(1.0, 1.0), l=l, grid=grid)
        assert issubclass(ChargeOutOfRange, DualitySimError)

    @pytest.mark.parametrize("l", [2.5, 2.0, -3.5, "3", True, np.True_])
    def test_non_integer_charge_is_rejected(self, l):
        # exp(2.5 i phi) is not single-valued, so a charge must be an integer, and a
        # bool is none: True would measure and write as the charge 1.
        grid = GridSpec(64)
        with pytest.raises(ValueError, match="OAM charge must be an integer"):
            oam_mode(l, grid)
        with pytest.raises(ValueError, match="OAM charge must be an integer"):
            synthesize_ports(StateParams(1.0, 1.0), l=l, grid=grid)

    def test_numpy_integer_charge_is_accepted(self):
        np.testing.assert_array_equal(oam_mode(np.int64(3), GRID), oam_mode(3, GRID))
        params = StateParams(1.0, 1.0)
        [v] = synthesize_ports(params, l=np.int32(-3), grid=GRID).fields("v")
        np.testing.assert_array_equal(v, synthesize_ports(params, -3, GRID).fields("v")[0])

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
            assert np.array_equal(oam_mode(-l, grid), _mode_data(l, grid).conj())
            assert not _mode_data(l, grid).flags.writeable

    def test_opposite_charges_share_one_cached_mode(self):
        # u(-l) is read off the cached u(|l|), so it builds and caches nothing more.
        _mode_data.cache_clear()
        grid = GridSpec(64)
        plus = oam_mode(3, grid)
        assert np.array_equal(oam_mode(-3, grid), plus.conj())
        assert _mode_data.cache_info().misses == 1

    @pytest.mark.parametrize("size", [64, 43])
    def test_every_charge_equals_its_from_scratch_build(self, size):
        grid = GridSpec(size)
        for l in range(-MAX_OAM, MAX_OAM + 1):
            assert np.array_equal(oam_mode(l, grid), meshgrid_mode(l, grid))

    def test_phase_winds_l_times(self):
        mode = oam_mode(3, GRID)
        cx, cy = GRID.beam_center
        angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        radius = GRID.waist_to_pixels(1.2)
        xs = np.clip(np.round(cx + radius * np.cos(angles)).astype(int), 0, 255)
        ys = np.clip(np.round(cy + radius * np.sin(angles)).astype(int), 0, 255)
        samples = mode[ys, xs]
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
        np.testing.assert_allclose(plus, minus.conj(), atol=1e-15)

    def test_opposite_charges_are_orthogonal(self):
        plus = oam_mode(3, FULL)
        minus = oam_mode(-3, FULL)
        overlap = np.sum(plus.conj() * minus) * FULL.pixel_area
        assert abs(overlap) < 1e-6

    def test_azimuthally_uniform_intensity(self):
        mode = oam_mode(3, GRID)
        intensity = render_image(mode)
        # Fourfold grid symmetry: rotating the image by 90 degrees must
        # reproduce it exactly.
        assert np.allclose(intensity, np.rot90(intensity), atol=1e-15)


class TestGridSpec:
    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="at least 16x16"):
            GridSpec(8)

    @pytest.mark.parametrize("size", [64.5, 64.0, "64", None])
    def test_rejects_non_integer_sizes(self, size):
        with pytest.raises(ValueError, match=f"grid size {size!r} must be an integer"):
            GridSpec(size)

    def test_accepts_numpy_integer_sizes(self):
        assert GridSpec(np.int64(64)).pixel_size == GridSpec(64).pixel_size

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
        h_plus, h_minus = syn.intensity_weights("h")[0, :2]
        v_plus, v_minus = syn.intensity_weights("v")[0, :2]
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
        assert np.array_equal(oam_mode(0, GRID), meshgrid_mode(0, GRID))

    def test_one_row_per_params(self):
        rows = [StateParams(1.0, 0.7), StateParams(2.0, 0.1), StateParams(0.3, 3.0)]
        syn = synthesize_ports(rows, grid=GridSpec(64))
        assert len(syn) == 3 and syn.intensity_weights("v").shape == (3, 4)
        assert all(a.shape == (3, 1, 2) for a in syn.amplitudes.values())
        assert len(synthesize_ports(rows[0], grid=GridSpec(64))) == 1
        with pytest.raises(ValueError, match="at least one StateParams"):
            synthesize_ports([], grid=GridSpec(64))

    @pytest.mark.parametrize("impurity", [0.0, 0.2])
    def test_amplitude_rows_synthesize_as_their_params(self, impurity):
        thetas, alphas = np.linspace(0.0, 2 * np.pi, 37), np.full(37, 0.7)
        params = [StateParams(t, a) for t, a in zip(thetas.tolist(), alphas.tolist())]
        kwargs = {"l": -5, "grid": GridSpec(64), "path_phase": 0.4, "flip_impurity": impurity}
        by_rows = synthesize_ports(amplitude_rows(thetas, alphas), **kwargs)
        by_params = synthesize_ports(params, **kwargs)
        for port in "hv":
            assert by_rows.amplitudes[port].tobytes() == by_params.amplitudes[port].tobytes()
            assert (by_rows.intensity_weights(port).tobytes()
                    == by_params.intensity_weights(port).tobytes())

    @pytest.mark.parametrize("rows", [np.empty((0, 4)), np.empty(0), np.ones(4), np.ones((2, 3)),
                                      np.ones((2, 4), dtype=complex), np.ones((2, 4), dtype=int)])
    def test_amplitude_rows_of_another_shape_or_type_are_rejected(self, rows):
        with pytest.raises(ValueError, match="at least one StateParams"):
            synthesize_ports(rows, grid=GridSpec(64))

    @pytest.mark.parametrize("l", [3, -3])
    def test_field_rows_are_rows_of_the_whole_fields(self, l):
        # Every row block of a port's fields, dark or lit, has the bits of the whole
        # fields' rows; the path phase would show swapped modes.
        rows_params = [StateParams(1.0, 0.7), StateParams(0.0, 0.7)]
        syn = synthesize_ports(rows_params, l, GridSpec(43), path_phase=0.4, flip_impurity=0.2)
        for port in "vh":
            for row in (0, 1):
                components = syn.amplitudes[port][row].tolist()
                whole = syn.fields(port, row)
                for rows in (slice(0, 0), slice(5, 17), slice(32, None)):
                    assert [f.tobytes() for f in syn.field_rows(components, rows)] == [
                        f[rows].tobytes() for f in whole]

    @pytest.mark.parametrize("path_phase", [np.nan, np.inf, -np.inf])
    def test_non_finite_path_phase_is_rejected(self, path_phase):
        with pytest.raises(ValueError, match="path_phase must be finite"):
            synthesize_ports(StateParams(1.0, 0.7), grid=GridSpec(64), path_phase=path_phase)


class TestRenderImage:
    def test_noiseless_is_exact_intensity(self):
        [v] = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        image = render_image(v, NoiseModel())
        np.testing.assert_array_equal(image, np.abs(v) ** 2)

    def test_infinite_budget_sentinel(self):
        [v] = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        image = render_image(v, NoiseModel(photon_budget=np.inf))
        np.testing.assert_array_equal(image, np.abs(v) ** 2)

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

    @pytest.mark.parametrize("shapes", [[(64, 64), (64, 63)], [(64, 63)], [], [(4, 8)],
                                        [(9, 8)], [(8, 8), (4, 8)], [(8,)], [(2, 8, 8)]])
    def test_fields_of_different_or_non_square_shapes_are_rejected(self, shapes):
        # The camera is read off a field's square shape, so it must be one, whether
        # the fields come whole or as row slices.
        fields = [np.ones(shape, dtype=complex) for shape in shapes]
        for source in (fields, lambda rows: [f[rows] for f in fields]):
            for noise in (NoiseModel(), NoiseModel(1e5, 2.0, 1)):
                with pytest.raises(ValueError, match="square fields of one shape"):
                    render_image(source, noise)

    def test_zero_dimensional_field_is_rejected(self):
        with pytest.raises(ValueError, match="square fields of one shape"):
            render_image(np.ones((), dtype=complex))

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

    @pytest.mark.parametrize("seed", [0, 7, 2**70])
    def test_default_key_draws_the_seeds_own_stream(self, seed):
        # Poisson counts, then readout noise, then the clamp, all from default_rng(seed).
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        rng = np.random.default_rng(seed)
        expected = rng.poisson(render_image(v) * GRID.pixel_area * 1e5).astype(float)
        expected = np.clip(expected + rng.normal(0.0, 2.0, expected.shape), 0.0, None)
        np.testing.assert_array_equal(render_image(v, NoiseModel(1e5, 2.0, seed)), expected)

    def test_frame_key_spawns_the_stream(self):
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        noise = NoiseModel(1e5, 0.0, 11)
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(4, 1)))
        expected = rng.poisson(render_image(v) * GRID.pixel_area * 1e5).astype(float)
        np.testing.assert_array_equal(render_image(v, noise, (4, 1)), expected)
        assert not np.array_equal(render_image(v, noise, (4, 0)), expected)
        assert not np.array_equal(render_image(v, noise), expected)

    @pytest.mark.parametrize("size", [43, 64])
    def test_block_height_changes_no_bit(self, size, monkeypatch):
        # Any block height, from one row to the whole frame, gives the frame that the
        # whole-frame formulas draw, whether the fields come as arrays or as row slices.
        grid = GridSpec(size)
        fields = synthesize_ports(StateParams(1.0, 0.7), 3, grid, flip_impurity=0.2).fields("h")
        intensity = sum(np.abs(f) ** 2 for f in fields)
        expected = [intensity]
        for sigma in (0.0, 2.0):
            rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(2, 1)))
            frame = rng.poisson(intensity * grid.pixel_area * 1e5).astype(float)
            if sigma:
                frame += rng.normal(0.0, sigma, frame.shape)
            expected.append(np.clip(frame, 0.0, None))
        peak = float((intensity * grid.pixel_area * 1e25).max())
        message = (f"photon budget 1e+25 puts {peak:.3g} expected counts in one pixel, "
                   f"above the Poisson sampler's limit of {POISSON_LAM_MAX:.3g}")
        noises = [NoiseModel(), NoiseModel(1e5, 0.0, 5), NoiseModel(1e5, 2.0, 5)]
        for height in (1, 7, RENDER_BLOCK_ROWS, size):
            monkeypatch.setattr(optics, "RENDER_BLOCK_ROWS", height)
            for source in (fields, lambda rows: [f[rows] for f in fields]):
                for noise, frame in zip(noises, expected):
                    assert render_image(source, noise, (2, 1)).tobytes() == frame.tobytes()
                with pytest.raises(ValueError) as raised:
                    render_image(source, NoiseModel(1e25, seed=1))
                assert str(raised.value) == message

    @pytest.mark.parametrize("seed", [np.random.SeedSequence(1), 1.5, 1.0, -1, True, None, "1"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            NoiseModel(1e5, 0.0, seed)

    @pytest.mark.parametrize("case,name", [
        (lambda syn, noise: measure_rows(syn, noise, first_row=-1), "first_row"),
        (lambda syn, noise: measure_rows(syn, NoiseModel(), first_row=-1), "first_row"),
        (lambda syn, noise: measure_rows(syn, noise, first_row=1.5), "first_row"),
        (lambda syn, noise: measure_rows(syn, noise, first_row=True), "first_row"),
        (lambda syn, noise: render_image(syn.fields("v"), noise, (1.5,)), "key"),
        (lambda syn, noise: render_image(syn.fields("v"), noise, ("a",)), "key"),
        (lambda syn, noise: render_image(syn.fields("v"), noise, (True,)), "key"),
        (lambda syn, noise: NoiseModel(photon_budget=True), "photon_budget"),
        (lambda syn, noise: NoiseModel(1e5, readout_sigma=False), "readout_sigma"),
    ], ids=["first_row=-1", "first_row=-1-exact", "first_row=1.5", "first_row=True",
            "key=(1.5,)", "key=('a',)", "key=(True,)", "photon_budget=True",
            "readout_sigma=False"])
    def test_bad_seeding_and_noise_inputs_are_rejected(self, case, name):
        # Each fails as a ValueError naming its argument, not as numpy's error from
        # the seed sequence, and a bool is not taken as 0 or 1.
        syn = synthesize_ports(StateParams(1.0, 0.7), 3, GridSpec(64))
        with pytest.raises(ValueError, match=name):
            case(syn, NoiseModel(1e5, 0.0, 1))

    @pytest.mark.parametrize("key", [5, None])
    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(1e5, 0.0, 1)],
                             ids=["exact", "noisy"])
    def test_key_that_is_not_a_sequence_is_rejected(self, key, noise):
        v = synthesize_ports(StateParams(1.0, 0.7), 3, GridSpec(64)).fields("v")
        with pytest.raises(ValueError, match="key must be a sequence"):
            render_image(v, noise, key)

    def test_numpy_integer_seed_is_accepted(self):
        v = synthesize_ports(StateParams(np.pi / 2, np.pi / 2), 3, GRID).fields("v")
        np.testing.assert_array_equal(render_image(v, NoiseModel(1e5, 0.0, np.uint8(9))),
                                      render_image(v, NoiseModel(1e5, 0.0, 9)))

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(photon_budget=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(readout_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(readout_sigma=POISSON_LAM_MAX)
        # Readout sigma is in counts, and an infinite budget has no count scale.
        with pytest.raises(ValueError, match="finite photon budget"):
            NoiseModel(math.inf, 2.0)
        assert NoiseModel(math.inf).exact and not NoiseModel(1e6, 2.0).exact


class TestCalibration:
    def test_impurity_sets_predictability(self):
        _, eps = calibrated_operating_point()
        assert 1.0 - 2.0 * eps**2 == pytest.approx(0.98, abs=1e-12)

    def test_visibility_target_honored(self):
        params, eps = calibrated_operating_point()
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

    @pytest.mark.parametrize("size", [43, 64])
    def test_pgm_block_height_changes_no_byte(self, size, tmp_path, monkeypatch):
        # A Poisson frame with readout noise, a frame with negative pixels, an all-zero
        # frame and integer counts whose peak is exactly level 65535 (scale 1).
        v = synthesize_ports(StateParams(1.0, 0.7), 3, GridSpec(size)).fields("v")
        rng = np.random.default_rng(7)
        images = [render_image(v, NoiseModel(1e6, 2.0, 3)), rng.normal(0.0, 1.0, (size, size)),
                  np.zeros((size, size)), rng.integers(0, 65536, (size, size)).astype(float)]
        images[3][size // 2, 3] = 65535.0
        for i, image in enumerate(images):
            peak = image.max()
            scale = peak / 65535.0 if peak > 0 else 1.0
            levels = np.clip(np.round(image / scale), 0, 65535).astype(">u2")
            expected = f"P5\n{size} {size}\n65535\n".encode() + levels.tobytes()
            for height in (1, 7, RENDER_BLOCK_ROWS, size):
                monkeypatch.setattr(optics, "RENDER_BLOCK_ROWS", height)
                path = tmp_path / f"{i}_{height}.pgm"
                assert write_pgm16(path, image).hex() == scale.hex()
                assert path.read_bytes() == expected, (i, height)

    @pytest.mark.parametrize("writer,name", [(write_pfm, "PFM"), (write_pgm16, "PGM")])
    def test_one_dimensional_image_is_rejected(self, writer, name, tmp_path):
        with pytest.raises(ValueError, match=f"{name} export expects a 2-D image"):
            writer(tmp_path / "img", np.ones(8))
        assert not (tmp_path / "img").exists()

    @pytest.mark.parametrize("writer,name", [(write_pfm, "PFM"), (write_pgm16, "PGM")])
    def test_complex_image_is_rejected(self, writer, name, tmp_path):
        with pytest.raises(ValueError, match=f"{name} export expects a 2-D image of real values"):
            writer(tmp_path / "img", np.ones((4, 4), dtype=complex))
        assert not (tmp_path / "img").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pgm_of_a_non_finite_maximum_is_rejected(self, bad, tmp_path):
        image = np.ones((4, 4))
        image[1, 2] = bad
        with pytest.raises(ValueError, match="finite image maximum"):
            write_pgm16(tmp_path / "img.pgm", image)
        assert not (tmp_path / "img.pgm").exists()

    def test_pgm_peak_whose_scale_underflows_quantises_to_zero(self, tmp_path):
        # 1e-322 / 65535 rounds to 0, which would divide the frame by zero.
        image = np.zeros((4, 4))
        image[0, 0] = 1e-322
        assert write_pgm16(tmp_path / "img.pgm", image) == 1.0
        assert (tmp_path / "img.pgm").read_bytes() == b"P5\n4 4\n65535\n" + bytes(32)

    def test_metadata_sidecar(self, tmp_path):
        path = tmp_path / "meta.json"
        write_metadata(
            path,
            {"theta": 1.0, "alpha": 2.0, "oam_charge": 3, "note": "test"},
            GRID,
            NoiseModel(1e6, 2.0, seed=5),
        )
        meta = json.loads(path.read_text())
        assert meta["theta"] == 1.0
        assert meta["oam_charge"] == 3
        assert meta["noise"]["seed"] == 5
        assert meta["note"] == "test"


# Cells as a sweep writes them: any float, with the edge values pinned.
FLOAT_CELLS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
                        st.floats())


# The sweep and weak JSON are one line; report.json and metadata.json are indented by 2.
@pytest.mark.parametrize("indent", [None, 2])
@settings(derandomize=True, deadline=None, database=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.lists(st.lists(FLOAT_CELLS, min_size=width, max_size=width), max_size=5)))
@example(rows=[[math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e16]])
@example(rows=[])
def test_json_writer_reads_every_float_back(tmp_path_factory, indent, rows):
    path = tmp_path_factory.mktemp("json") / "payload.json"
    payload = {"rows": rows, "columns": ["c"] * len(rows[0]) if rows else []}
    text = write_json(path, payload, indent=indent)
    assert path.read_text() == text == json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    assert text.count("\n") == 1 if indent is None else text.startswith('{\n  "columns": [')
    assert [[x.hex() for x in row] for row in json.loads(text)["rows"]] == [
        [x.hex() for x in row] for row in rows
    ]
