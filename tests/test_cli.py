"""Command-line interface: parsing, outputs, determinism, exit codes."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from dualitysim import (
    GridSpec,
    NoiseModel,
    StateParams,
    oam_mode,
    render_image,
    synthesize_ports,
)
from dualitysim import cli, fringes, optics, weak
from dualitysim.cli import UsageError, build_parser, main, parse_angle
from dualitysim.fringes import measure_rows
from dualitysim.optics import write_pfm, write_pgm16

from golden.refresh import GOLDEN, fingerprint


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def col(header, rows, name):
    return rows[:, header.index(name)]


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0.0),
            ("1.25", 1.25),
            ("pi", math.pi),
            ("PI", math.pi),
            ("pi/12", math.pi / 12),
            ("2pi", 2 * math.pi),
            ("2*pi", 2 * math.pi),
            ("3*pi/4", 3 * math.pi / 4),
            ("-pi/2", -math.pi / 2),
            ("0.5pi", 0.5 * math.pi),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_angle("about tau")

    def test_rejects_zero_divisor(self):
        with pytest.raises(UsageError):
            parse_angle("pi/0")


class TestSweepCommand:
    def test_analytic_sweep_schema_and_shape(self, tmp_path):
        out = tmp_path / "sweep_a"
        code = main(["sweep", "--sweep", "theta", "--fixed", "pi/12",
                     "--samples", "181", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out.with_suffix(".csv"))
        assert header == [
            "theta", "alpha", "V_cond_V", "P_cond_H", "sum_cond_squares",
            "V_avg", "P_avg", "sum_avg_squares", "p_H", "p_V",
        ]
        assert rows.shape == (181, 10)
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["columns"] == header
        assert len(payload["rows"]) == 181

    def test_conditional_dominates_averaged(self, tmp_path):
        out = tmp_path / "sweep_b"
        main(["sweep", "--sweep", "alpha", "--fixed", "pi/2", "--out", str(out)])
        header, rows = read_csv(out.with_suffix(".csv"))
        cond = col(header, rows, "sum_cond_squares")
        avg = col(header, rows, "sum_avg_squares")
        valid = ~np.isnan(cond)
        assert np.all(cond[valid] >= avg[valid] - 1e-9)
        assert np.all(avg <= 1.0 + 1e-9)

    def test_alpha_sweep_endpoints(self, tmp_path):
        out = tmp_path / "sweep_c"
        main(["sweep", "--sweep", "alpha", "--fixed", "pi/2", "--start", "0",
              "--end", "pi", "--samples", "91", "--out", str(out)])
        header, rows = read_csv(out.with_suffix(".csv"))
        cond = col(header, rows, "sum_cond_squares")
        assert cond[0] == pytest.approx(1.0, abs=1e-9)
        assert cond[-1] == pytest.approx(2.0, abs=1e-9)
        assert np.all(np.diff(cond) >= -1e-12)

    def test_probabilities_sum_to_one(self, tmp_path):
        out = tmp_path / "sweep_d"
        main(["sweep", "--samples", "61", "--out", str(out)])
        header, rows = read_csv(out.with_suffix(".csv"))
        np.testing.assert_allclose(
            col(header, rows, "p_H") + col(header, rows, "p_V"), 1.0, atol=1e-12
        )

    def test_pipeline_columns_noiseless(self, tmp_path):
        out = tmp_path / "sweep_e"
        code = main(["sweep", "--sweep", "alpha", "--fixed", "pi/2",
                     "--start", "0.3", "--end", "2.8", "--samples", "6",
                     "--photons", "inf", "--grid", "256", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out.with_suffix(".csv"))
        assert header[-3:] == [
            "V_cond_V_measured", "P_cond_H_measured", "sum_cond_squares_measured"
        ]
        v_gap = col(header, rows, "V_cond_V") - col(header, rows, "V_cond_V_measured")
        assert np.nanmax(np.abs(v_gap)) < 0.01
        p_measured = col(header, rows, "P_cond_H_measured")
        assert np.nanmax(np.abs(p_measured - 1.0)) < 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--sweep", "theta", "--samples", "10", "--photons", "2e5",
                "--readout-sigma", "2", "--grid", "128", "--seed", "99"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
        j1 = json.loads(out1.with_suffix(".json").read_text())
        j2 = json.loads(out2.with_suffix(".json").read_text())
        assert j1["rows"] == j2["rows"]

    def test_bad_samples_is_usage_error(self, tmp_path):
        assert main(["sweep", "--samples", "1", "--out", str(tmp_path / "x")]) == 1

    def test_bad_angle_is_usage_error(self, tmp_path):
        assert main(["sweep", "--fixed", "twelve", "--out", str(tmp_path / "x")]) == 1

    def test_config_file_provides_defaults(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"samples": 7, "fixed": "pi/12"}))
        out = tmp_path / "sweep_f"
        assert main(["sweep", "--out", str(out), "--config", str(config)]) == 0
        _, rows = read_csv(out.with_suffix(".csv"))
        assert rows.shape[0] == 7

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 1

    def test_config_list_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps([{"samples": 7}]))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'\xff\xfe{"samples": 7}')
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert f"cannot load config {config}" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"photon": 1e3, "samples": 7}))
        out = tmp_path / "sweep_g"
        assert main(["sweep", "--out", str(out), "--config", str(config)]) == 1
        assert "photon" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    def test_noiseless_dark_h_port_reads_nan(self, tmp_path):
        # p_H is 0 at theta = 0 and ~1.5e-32 (round-off) at theta = 2 pi.
        out = tmp_path / "sweep_j"
        assert main(["sweep", "--samples", "3", "--photons", "inf", "--grid", "64",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out.with_suffix(".csv"))
        p_measured = col(header, rows, "P_cond_H_measured")
        assert np.isnan(p_measured[[0, 2]]).all()
        assert p_measured[1] == pytest.approx(1.0, abs=1e-6)

    def test_dark_h_port_under_readout_noise_reads_nan(self, tmp_path):
        # The readout floor puts counts in the dark H ports of theta = 0 and
        # 2 pi; the dark rule reads the port power, so their P stays NaN.
        out = tmp_path / "sweep_k"
        assert main(["sweep", "--samples", "9", "--photons", "1e5", "--readout-sigma", "2",
                     "--grid", "64", "--out", str(out)]) == 0
        header, rows = read_csv(out.with_suffix(".csv"))
        p_measured = col(header, rows, "P_cond_H_measured")
        assert np.isnan(p_measured[[0, -1]]).all()
        assert not np.isnan(p_measured[1:-1]).any()
        assert np.isnan(col(header, rows, "sum_cond_squares_measured")[[0, -1]]).all()

    @pytest.mark.parametrize("sigma", ["1e-310", "1e-300", "1e-200"])
    def test_tiny_readout_sigma_reads_nan_without_a_warning(self, sigma, tmp_path):
        # 1.5 photons leave the annuli dark, so each profile is readout noise of
        # order sigma, whose fitted baseline squares to 0: every measure is NaN.
        out = tmp_path / "sweep_q"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--samples", "3", "--grid", "64", "--sweep", "alpha",
                         "--end", "7", "--photons", "1.5", "--readout-sigma", sigma,
                         "--l", "32", "--out", str(out)]) == 0
        header, rows = read_csv(out.with_suffix(".csv"))
        assert np.isnan(rows[:, [header.index(name) for name in cli.MEASURED_COLUMNS]]).all()

    def test_readout_sigma_without_a_budget_is_usage_error(self, tmp_path, capsys):
        # Readout sigma is in counts, which an unset or infinite budget does not give.
        for budget in ([], ["--photons", "inf"]):
            assert main(["sweep", "--samples", "3", "--readout-sigma", "2", "--grid", "64",
                         *budget, "--out", str(tmp_path / "sweep_l")]) == 1
            err = capsys.readouterr().err
            assert "--readout-sigma" in err and "--photons" in err
            assert not any(tmp_path.iterdir())

    def test_photons_alone_turns_on_the_pipeline(self, tmp_path, capsys):
        for name, budget, pipeline in (("sweep_m", [], False),
                                       ("sweep_n", ["--photons", "inf"], True),
                                       ("sweep_o", ["--photons", "1e5"], True)):
            out = tmp_path / name
            assert main(["sweep", "--samples", "3", "--grid", "64", *budget,
                         "--out", str(out)]) == 0
            header, _ = read_csv(out.with_suffix(".csv"))
            assert (header[-3:] == cli.MEASURED_COLUMNS) is pipeline
            config = json.loads(out.with_suffix(".json").read_text())["config"]
            assert config["pipeline"] is pipeline
        for flag in ("--pipeline", "--no-pipeline"):
            assert main(["sweep", "--samples", "3", flag, "--out", str(tmp_path / "sweep_p")]) == 1
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert not list(tmp_path.glob("sweep_p*"))

    def test_measure_ports_reproduces_noisy_rows(self, tmp_path):
        out = tmp_path / "sweep_i"
        assert main(["sweep", "--samples", "4", "--photons", "2e5", "--readout-sigma", "2",
                     "--grid", "64", "--seed", "9", "--out", str(out)]) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        names = payload["columns"]
        for i, row in enumerate(payload["rows"]):
            value = dict(zip(names, row))
            syn = synthesize_ports(StateParams(value["theta"], value["alpha"]),
                                   grid=GridSpec(64))
            m = measure_rows(syn, NoiseModel(2e5, 2.0, 9), first_row=i)
            np.testing.assert_array_equal(
                [m.visibility[0], m.predictability[0]],
                [value["V_cond_V_measured"], value["P_cond_H_measured"]],
            )


class TestRenderCommand:
    def test_noiseless_correlated_point(self, tmp_path):
        out = tmp_path / "render1"
        code = main(["render", "--theta", "pi/2", "--alpha", "0",
                     "--grid", "256", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["V_measured"] == pytest.approx(0.0, abs=1e-3)
        assert report["P_measured"] == pytest.approx(1.0, abs=1e-6)
        for name in ("h_port.pfm", "v_port.pfm", "h_port.pgm", "v_port.pgm",
                     "h_profile.csv", "v_profile.csv", "metadata.json"):
            assert (out / name).exists()

    def test_noiseless_full_visibility_point(self, tmp_path):
        out = tmp_path / "render2"
        main(["render", "--theta", "pi/2", "--alpha", "pi",
              "--grid", "512", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["V_measured"] == pytest.approx(1.0, abs=1e-3)

    def test_calibrated_point_reproduces_reference_values(self, tmp_path):
        out = tmp_path / "render3"
        code = main(["render", "--calibrated", "--seed", "5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["P_measured"] == pytest.approx(0.98, abs=0.02)
        assert report["V_measured"] == pytest.approx(0.93, abs=0.02)
        assert report["sum_squares"] == pytest.approx(1.83, abs=0.05)
        assert report["petal_count"] == 6

    @pytest.mark.parametrize("flags", [["--theta", "1", "--alpha", "0.7"], ["--calibrated"]])
    def test_json_prints_the_report_written(self, tmp_path, capsys, flags):
        out = tmp_path / "r"
        assert main(["render", *flags, "--grid", "64", "--json", "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode() == (out / "report.json").read_bytes()

    @pytest.mark.parametrize("argv,renders", [
        # Two port frames and a flip impurity's two arm frames, each drawn once.
        (["render", "--calibrated"], 4),
        # The exact frames are rendered only for the image files.
        (["render", "--theta", "1", "--alpha", "0.7"], 2),
        (["sweep", "--samples", "5", "--photons", "inf"], 0),
    ])
    def test_render_image_calls(self, argv, renders, tmp_path, monkeypatch):
        calls = []
        original = optics.render_image

        def counting_render(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(optics, "render_image", counting_render)
        assert main(argv + ["--grid", "64", "--out", str(tmp_path / "r")]) == 0
        assert len(calls) == renders

    def test_missing_angles_is_usage_error(self, tmp_path):
        assert main(["render", "--out", str(tmp_path / "x")]) == 1

    def test_dark_v_port_reads_nan(self, tmp_path):
        out = tmp_path / "render4"
        assert main(["render", "--theta", "pi", "--alpha", "0", "--photons", "1e5",
                     "--grid", "64", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert math.isnan(report["V_measured"])
        assert report["P_measured"] == pytest.approx(1.0, abs=1e-3)

    def test_noiseless_dark_v_port_reads_nan(self, tmp_path):
        out = tmp_path / "render6"
        assert main(["render", "--theta", "pi", "--alpha", "0",
                     "--grid", "64", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert math.isnan(report["V_measured"])
        assert report["petal_count"] == 0
        assert report["P_measured"] == pytest.approx(1.0, abs=1e-6)

    def test_nan_photon_budget_is_usage_error(self, tmp_path, capsys):
        assert main(["render", "--theta", "1", "--alpha", "1", "--photons", "nan",
                     "--grid", "64", "--out", str(tmp_path / "render12")]) == 1
        assert "photon budget must be nonnegative" in capsys.readouterr().err

    def test_photon_budget_beyond_sampler_range_is_runtime_error(self, tmp_path, capsys):
        assert main(["render", "--theta", "1", "--alpha", "1", "--grid", "64",
                     "--photons", "1e25", "--out", str(tmp_path / "render7")]) == 2
        err = capsys.readouterr().err
        assert "photon budget 1e+25" in err
        assert "Poisson sampler's limit" in err

    @pytest.mark.parametrize("sigma", ["1e39", "1e300"])
    def test_readout_sigma_beyond_counts_ceiling_is_usage_error(self, sigma, tmp_path, capsys):
        # Values this large would overflow the float32 PFM cast, and 1e300 also
        # the profile CSV's squared readout sigma, so they fail up front.
        out = tmp_path / "render13"
        assert main(["render", "--theta", "1", "--alpha", "1", "--grid", "64",
                     "--photons", "1e3", "--readout-sigma", sigma, "--out", str(out)]) == 1
        assert "argument --readout-sigma:" in capsys.readouterr().err
        assert not out.exists()

    def test_readout_sigma_without_a_budget_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "render15"
        assert main(["render", "--theta", "1", "--alpha", "1", "--readout-sigma", "2",
                     "--grid", "64", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--readout-sigma" in err and "--photons" in err
        assert not out.exists()

    def test_calibrated_readout_noise_takes_its_default_budget(self, tmp_path):
        out = tmp_path / "render16"
        assert main(["render", "--calibrated", "--readout-sigma", "2", "--grid", "64",
                     "--out", str(out)]) == 0
        params = json.loads((out / "report.json").read_text())["params"]
        assert (params["photon_budget"], params["readout_sigma"]) == (1e6, 2.0)

    def test_dark_h_port_with_impurity_reads_nan(self, tmp_path):
        out = tmp_path / "render5"
        assert main(["render", "--theta", "0", "--alpha", "0", "--impurity", "0.1",
                     "--grid", "64", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert math.isnan(report["P_measured"])
        assert math.isnan(report["P_analytic"])

    @pytest.mark.parametrize("impurity", ["0.1", "0"])
    def test_dark_h_port_under_readout_noise_reads_nan(self, impurity, tmp_path):
        # p_H = 0 exactly; the readout floor puts counts in every pixel of
        # the dark port, and the dark rule reads the port power, not them.
        out = tmp_path / "render14"
        assert main(["render", "--theta", "0", "--alpha", "0", "--impurity", impurity,
                     "--grid", "64", "--photons", "1e5", "--readout-sigma", "2",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert math.isnan(report["P_measured"])
        assert math.isnan(report["P_analytic"])

    def test_impurity_predictability_is_absolute(self, tmp_path):
        out = tmp_path / "render6"
        assert main(["render", "--theta", "1", "--alpha", "1", "--impurity", "0.8",
                     "--grid", "64", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["P_analytic"] == pytest.approx(0.28, abs=1e-12)
        assert report["P_measured"] == pytest.approx(report["P_analytic"], abs=1e-12)

    @pytest.mark.parametrize("flag", ["--theta", "--alpha", "--impurity"])
    def test_calibrated_conflicts_with_the_flags_it_sets(self, flag, tmp_path, capsys):
        out = tmp_path / "render8"
        assert main(["render", "--calibrated", flag, "0.3", "--grid", "64",
                     "--out", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_calibrated_conflict_from_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"calibrated": True, "impurity": 0.5}))
        out = tmp_path / "render9"
        assert main(["render", "--config", str(config), "--grid", "64",
                     "--out", str(out)]) == 1
        assert "--impurity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("l", [32, -32])
    def test_largest_oam_charge_gives_finite_measures(self, l, tmp_path):
        out = tmp_path / "render11"
        assert main(["render", "--theta", "1", "--alpha", "1", "--l", str(l),
                     "--grid", "64", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["V_measured"] <= 1.0
        assert 0.0 <= report["P_measured"] <= 1.0

    def test_zero_oam_charge_is_named(self, tmp_path, capsys):
        for command in (["render", "--theta", "pi", "--alpha", "0"],
                        ["sweep", "--photons", "inf"]):
            assert main([*command, "--l", "0", "--grid", "64",
                         "--out", str(tmp_path / "render10")]) == 1
            assert "argument --l:" in capsys.readouterr().err
            assert not any(tmp_path.iterdir())

    def test_render_byte_identical(self, tmp_path):
        args = ["render", "--theta", "pi/2", "--alpha", "pi/2", "--grid", "128",
                "--photons", "1e5", "--readout-sigma", "2", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("h_port.pfm", "v_port.pgm", "v_profile.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_noiseless_frames_are_the_exact_port_intensities(self, tmp_path):
        # The frames are written from lazily built fields; they must hold
        # |a u+ + c flip e^(i phase) u-|^2 + |c eps u+|^2 to the last bit.
        theta, alpha, eps, phase = 1.2, 2.1, 0.2, 0.7
        out, ref = tmp_path / "render11", tmp_path / "ref"
        assert main(["render", "--theta", str(theta), "--alpha", str(alpha),
                     "--impurity", str(eps), "--path-phase", str(phase),
                     "--grid", "96", "--out", str(out)]) == 0
        grid = GridSpec(96)
        u_plus, u_minus = oam_mode(3, grid), oam_mode(-3, grid)
        a, lower = math.cos(theta / 2), math.sin(theta / 2)
        b, c = lower * math.cos(alpha / 2), lower * math.sin(alpha / 2)
        flip, turn = math.sqrt(1 - eps**2), np.exp(1j * phase)
        fields = {
            "h": [b * flip * turn * u_minus, b * eps * u_plus],
            "v": [a * u_plus + c * flip * turn * u_minus, c * eps * u_plus],
        }
        ref.mkdir()
        for port, data in fields.items():
            image = render_image(data)
            write_pfm(ref / f"{port}_port.pfm", image)
            write_pgm16(ref / f"{port}_port.pgm", image)
            for suffix in ("pfm", "pgm"):
                name = f"{port}_port.{suffix}"
                assert (out / name).read_bytes() == (ref / name).read_bytes()


class TestWeakCommand:
    def test_uniform_flat_reconstruction(self, tmp_path):
        out = tmp_path / "weak1"
        code = main(["weak", "--psi", "uniform", "--n", "64", "--phi", "0.1",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(tmp_path / "weak1_phi0.1.csv")
        assert header == ["x", "re_psi_ratio", "im_psi_ratio", "abs_error_vs_truth"]
        np.testing.assert_allclose(rows[:, 1], 1 / 8.0, atol=1e-3)
        np.testing.assert_allclose(rows[:, 2], 0.0, atol=1e-12)

    def test_zero_phi_exits_with_runtime_error(self, tmp_path):
        # A scan that fails writes no file, also for a phi before the zero one.
        for phis in ("0", "0.1,0"):
            code = main(["weak", "--psi", "gaussian:32", "--phi", phis,
                         "--out", str(tmp_path / "weak2")])
            assert code == 2
            assert not list(tmp_path.iterdir())

    def test_convergence_ratio_about_four(self, tmp_path):
        out = tmp_path / "weak3"
        code = main(["weak", "--psi", "gaussian:32", "--n", "256",
                     "--phi", "0.1,0.05", "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "weak3_summary.json").read_text())
        errors = summary["max_abs_error"]
        ratio = errors["0.1"] / errors["0.05"]
        assert ratio == pytest.approx(4.0, rel=0.15)
        assert summary["convergence_order"] == pytest.approx(2.0, abs=0.2)

    @pytest.mark.parametrize("n,phi", [("2", "1e-320"), ("64", "1e200")])
    def test_phi_outside_the_readout_range_is_a_runtime_error(self, n, phi, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["weak", "--n", n, "--phi", phi, "--out", str(tmp_path / "w")])
        assert code == 2
        assert f"error: phi = {float(phi)!r}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_tiny_phi_inside_the_readout_range_keeps_its_bytes(self, tmp_path):
        recorded_on = json.loads(GOLDEN.read_text())["fingerprint"]
        if fingerprint() != recorded_on:
            pytest.skip(f"bytes recorded on {recorded_on}, this is {fingerprint()}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["weak", "--n", "64", "--phi", "1e-300", "--out", str(tmp_path / "w")]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == {
            "w_phi1e-300.csv": "9cfb5982df626a07448e5035ba5d89795e3025a23b9a77e1ee0a348d94d4675a",
            "w_summary.json": "4556c45c30613363ec1033642b384db97e26968a318abfab4013b7cc99e6b967",
        }

    def test_json_summary_printed_is_the_file_written(self, tmp_path, capsys):
        assert main(["weak", "--psi", "gaussian:4", "--n", "32", "--phi", "0.1,0.05",
                     "--json", "--out", str(tmp_path / "w")]) == 0
        printed = capsys.readouterr().out.encode()
        assert printed == (tmp_path / "w_summary.json").read_bytes()

    def test_file_input_round_trip(self, tmp_path):
        samples = tmp_path / "psi.txt"
        x = np.linspace(-3, 3, 64)
        values = np.exp(-(x**2))
        samples.write_text(
            "# re im\n" + "\n".join(f"{v:.12g} 0.0" for v in values) + "\n"
        )
        out = tmp_path / "weak4"
        assert main(["weak", "--psi", f"file:{samples}", "--phi", "0.05",
                     "--out", str(out)]) == 0
        _, rows = read_csv(tmp_path / "weak4_phi0.05.csv")
        assert rows.shape == (64, 4)

    def test_file_samples_near_the_float_ceiling_normalize(self, tmp_path):
        samples = tmp_path / "big.txt"
        samples.write_text("1e308 0\n1e308 0\n")
        out = tmp_path / "big"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["weak", "--psi", f"file:{samples}", "--out", str(out)]) == 0
        assert (tmp_path / "big_phi0.1.csv").exists()

    def test_file_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.1 0.0\n0.2 forty\n")
        code = main(["weak", "--psi", f"file:{bad}", "--out", str(tmp_path / "w")])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,named", [
        ("gaussian:nan", "'nan'"),
        ("gaussian:inf", "'inf'"),
        ("gaussian:abc", "'abc'"),
        ("gaussian:-3", "'-3'"),
        ("gaussian:0", "'0'"),
        ("file:0.1 0\nnan 0\n", ":2:"),
        ("file:0.1 0\n0.2 -inf\n", ":2:"),
        ("file:0 0\n0 0\n", "zero wavefunction"),
        ("gaussian", "needs a width"),
        ("gaussian(32)", "'gaussian(32)'"),
        ("gaussian(32", "'gaussian(32'"),
        ("gaussian:32)", "'32)'"),
        ("triangle:3", "'triangle:3'"),
        ("file:0.1 0\n", "need at least two samples"),
        ("file:0.1 0 0\n0.2 0\n", ":1: expected two columns"),
    ])
    def test_bad_psi_is_a_usage_error(self, spec, named, tmp_path, capsys):
        if spec.startswith("file:"):
            samples = tmp_path / "psi.txt"
            samples.write_text(spec[5:])
            spec = f"file:{samples}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["weak", "--psi", spec, "--n", "16", "--json",
                         "--out", str(tmp_path / "w")])
        assert code == 1
        err = capsys.readouterr().err
        assert "--psi" in err and named in err
        assert not list(tmp_path.glob("w*"))

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        assert main(["weak", "--psi", f"file:{missing}", "--out", str(tmp_path / "w")]) == 1
        assert f"{missing} does not exist" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["", ".", "sub"])
    def test_directory_is_a_usage_error(self, name, tmp_path, capsys, monkeypatch):
        # "file:" names the working directory; no directory is a wavefunction file.
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["weak", "--psi", f"file:{name}", "--out", "w"]) == 1
        assert "--psi: wavefunction file" in capsys.readouterr().err
        assert not list(tmp_path.glob("w*"))

    @pytest.mark.parametrize("raw", [b"\xff\xfe1 0\n-1 0\n", b"1 0\n0.5\xe9 0\n"])
    def test_file_that_is_not_utf8_is_a_usage_error(self, raw, tmp_path, capsys):
        samples = tmp_path / "bad.txt"
        samples.write_bytes(raw)
        code = main(["weak", "--psi", f"file:{samples}", "--n", "4", "--out", str(tmp_path / "w")])
        assert code == 1
        err = capsys.readouterr().err
        assert "--psi" in err and str(samples) in err
        assert not list(tmp_path.glob("w*"))

    def test_odd_parity_file_is_a_runtime_error(self, tmp_path, capsys):
        # psi0 = 0: the postselection error, with no numpy warning before it.
        samples = tmp_path / "psi.txt"
        samples.write_text("1 0\n-1 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["weak", "--psi", f"file:{samples}", "--out", str(tmp_path / "w")])
        assert code == 2
        assert "zero-momentum amplitude" in capsys.readouterr().err
        assert not list(tmp_path.glob("w*"))

    @pytest.mark.parametrize("n,code", [(15, 0), (16, 1)])
    def test_underflowing_gaussian_gives_one_point_or_usage_error(self, n, code, tmp_path,
                                                                 capsys):
        # (x / (2 sigma))^2 overflows to inf off the centre, so only the
        # centre sample of an odd grid survives.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["weak", "--psi", "gaussian:1e-300", "--n", str(n), "--phi", "0.01",
                         "--out", str(tmp_path / "w")]) == code
        if code:
            assert "zero wavefunction" in capsys.readouterr().err
        else:
            _, rows = read_csv(tmp_path / "w_phi0.01.csv")
            assert np.count_nonzero(rows[:, 1]) == 1

    @pytest.mark.parametrize("phis,fitted", [("-0.1,0.05", True), ("0.1,-0.1", False)])
    def test_convergence_order_is_fitted_on_abs_phi(self, phis, fitted, tmp_path):
        assert main(["weak", "--psi", "gaussian:4", "--n", "32", f"--phi={phis}",
                     "--out", str(tmp_path / "w")]) == 0
        order = json.loads((tmp_path / "w_summary.json").read_text())["convergence_order"]
        if fitted:
            assert order == pytest.approx(2.0, abs=0.2)
        else:
            assert order is None

    @pytest.mark.parametrize("phis,order", [
        ("1e-9,2e-9", None),  # both max errors 2.78e-17, under eps max|psi/psi0|
        ("1e-6,2e-6", pytest.approx(1.97, abs=0.01)),  # 7.2e-16 and 2.8e-15
    ])
    def test_roundoff_errors_have_no_order(self, phis, order, tmp_path):
        assert main(["weak", "--phi", phis, "--out", str(tmp_path / "w")]) == 0
        summary = json.loads((tmp_path / "w_summary.json").read_text())
        assert summary["convergence_order"] == order

    @pytest.mark.parametrize("phis", ["1e-10,2e-10", "1e-200,1e-100"])
    def test_scan_exact_to_the_last_bit_has_no_order(self, phis, tmp_path):
        # A uniform profile's reconstruction is exact here: both max errors are 0.
        assert main(["weak", "--psi", "uniform", "--n", "4", "--phi", phis,
                     "--out", str(tmp_path / "w")]) == 0
        summary = json.loads((tmp_path / "w_summary.json").read_text())
        assert set(summary["max_abs_error"].values()) == {0.0}
        assert summary["convergence_order"] is None

    @pytest.mark.parametrize("flag", ["--grid", "--seed", "--photons",
                                      "--readout-sigma", "--l"])
    def test_image_flags_are_usage_errors(self, flag, tmp_path):
        assert main(["weak", "--n", "16", flag, "8",
                     "--out", str(tmp_path / "w")]) == 1

    def test_image_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": 8, "n": 16}))
        assert main(["weak", "--config", str(config), "--out", str(tmp_path / "w")]) == 1
        assert "grid" in capsys.readouterr().err
        assert not (tmp_path / "w_summary.json").exists()

    @pytest.mark.parametrize("phis", ["0.1,0.1000000001", "0.05,0.1,0.1"])
    def test_colliding_phi_names_are_usage_errors(self, phis, tmp_path, capsys):
        first, second = phis.split(",")[-2:]
        assert main(["weak", "--n", "16", "--phi", phis, "--json",
                     "--out", str(tmp_path / "w")]) == 1
        err = capsys.readouterr().err
        assert f"{float(first)!r} and {float(second)!r}" in err
        assert "w_phi0.1.csv" in err
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        args = ["weak", "--psi", "gaussian:24", "--n", "128", "--phi", "0.05"]
        out1, out2 = tmp_path / "wa", tmp_path / "wb"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (tmp_path / "wa_phi0.05.csv").read_bytes() == (
            tmp_path / "wb_phi0.05.csv"
        ).read_bytes()


def output_files(directory):
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def flag_argv(key, value):
    flag = "--" + key.replace("_", "-")
    if isinstance(value, bool):
        return [flag if value else "--no-" + flag[2:]]
    return [flag, value if isinstance(value, str) else json.dumps(value)]


SWEEP_BASE = {"samples": "5", "grid": "64", "out": "res"}
RENDER_BASE = {"theta": "1", "alpha": "2", "grid": "64", "out": "res"}
WEAK_BASE = {"psi": "gaussian:8", "n": "32", "phi": "0.1", "out": "res"}

# (command, base flags, key, value, a config value that the flag must beat)
CONFIG_CASES = [
    ("sweep", SWEEP_BASE, "sweep", "alpha", "theta"),
    ("sweep", SWEEP_BASE, "fixed", "pi/3", 0.5),
    ("sweep", SWEEP_BASE, "start", 0.5, "0"),
    ("sweep", SWEEP_BASE, "end", "pi", 6),
    ("sweep", SWEEP_BASE, "samples", 4, 6),
    ("sweep", SWEEP_BASE, "seed", 3, 4),
    ("sweep", SWEEP_BASE, "grid", 96, 128),
    ("sweep", SWEEP_BASE, "photons", 1e4, "inf"),
    ("sweep", {**SWEEP_BASE, "photons": "1e5"}, "readout_sigma", 1.5, 0),
    ("sweep", SWEEP_BASE, "l", 2, 4),
    ("sweep", SWEEP_BASE, "out", "res", "other"),
    ("render", RENDER_BASE, "theta", "pi/3", 2),
    ("render", RENDER_BASE, "alpha", 0.5, "pi"),
    ("render", {"grid": "64", "out": "res"}, "calibrated", True, False),
    ("render", RENDER_BASE, "calibrated", False, True),
    ("render", RENDER_BASE, "impurity", 0.2, 0.5),
    ("render", RENDER_BASE, "path_phase", "pi/4", 0),
    ("render", RENDER_BASE, "seed", 3, 4),
    ("render", RENDER_BASE, "grid", 96, 128),
    ("render", RENDER_BASE, "photons", 1e5, 1e4),
    ("render", {**RENDER_BASE, "photons": "1e5"}, "readout_sigma", 1.5, 0),
    ("render", RENDER_BASE, "l", 2, 4),
    ("render", RENDER_BASE, "out", "res", "other"),
    ("weak", WEAK_BASE, "psi", "uniform", "gaussian:6"),
    ("weak", WEAK_BASE, "n", 48, 40),
    ("weak", WEAK_BASE, "phi", "0.1,0.05", 0.2),
    ("weak", WEAK_BASE, "mode", "exact", "linearized"),
    ("weak", WEAK_BASE, "out", "res", "other"),
]


class TestConfigFile:
    @pytest.mark.parametrize(
        "command,base,key,value,loser",
        CONFIG_CASES,
        ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in CONFIG_CASES],
    )
    def test_config_value_matches_flag_and_flag_wins(
        self, command, base, key, value, loser, tmp_path, monkeypatch
    ):
        argv = [command]
        for name, text in base.items():
            if name != key:
                argv += flag_argv(name, text)

        def run(name, config, extra):
            if config is not None:
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(config))
                extra = extra + ["--config", str(path)]
            run_dir = tmp_path / name
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            return main(argv + extra), output_files(run_dir)

        from_flag = run("flag", None, flag_argv(key, value))
        assert from_flag[0] == 0 and from_flag[1]
        assert run("config", {key: value}, []) == from_flag
        assert run("override", {key: loser}, flag_argv(key, value)) == from_flag
        assert run("loser", {key: loser}, []) != from_flag

    @pytest.mark.parametrize(
        "command,config,flag",
        [
            ("sweep", {"samples": [7]}, "--samples"),
            ("sweep", {"samples": 7.9}, "--samples"),
            ("render", {"grid": "abc"}, "--grid"),
            ("weak", {"mode": "bogus"}, "--mode"),
            ("render", {"calibrated": "yes"}, "--calibrated"),
        ],
    )
    def test_bad_value_is_usage_error(self, command, config, flag, tmp_path, monkeypatch,
                                      capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main([command, "--config", str(path)]) == 1
        assert flag in capsys.readouterr().err
        assert not any(run_dir.iterdir())

    def test_null_value_keeps_the_default(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"samples": None}))
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(path), "--out", "res"]) == 0
        _, rows = read_csv(tmp_path / "res.csv")
        assert rows.shape[0] == 181


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["render", "--theta", "nan", "--alpha", "1"], "--theta"),
        (["render", "--theta", "1", "--alpha", "inf"], "--alpha"),
        (["render", "--theta", "1", "--alpha", "1", "--path-phase", "nan"], "--path-phase"),
        (["render", "--theta", "1", "--alpha", "1", "--grid", "0"], "--grid"),
        (["render", "--theta", "1", "--alpha", "1", "--readout-sigma", "-1"],
         "--readout-sigma"),
        (["render", "--theta", "1", "--alpha", "1", "--readout-sigma", "nan"],
         "--readout-sigma"),
        (["sweep", "--grid", "8"], "--grid"),
        (["sweep", "--samples", "1"], "--samples"),
        (["sweep", "--fixed", "nan"], "--fixed"),
        (["sweep", "--start", "inf"], "--start"),
        (["sweep", "--end", "nan"], "--end"),
        (["weak", "--n", "-5"], "--n"),
        (["weak", "--n", "1"], "--n"),
        (["render", "--theta", "1", "--alpha", "1", "--impurity", "nan"], "--impurity"),
        (["render", "--theta", "1", "--alpha", "1", "--impurity", "1.5"], "--impurity"),
        (["render", "--theta", "1", "--alpha", "1", "--impurity", "-0.1"], "--impurity"),
        (["render", "--theta", "1", "--alpha", "1", "--l", "500", "--grid", "64"], "--l"),
        (["render", "--theta", "1", "--alpha", "1", "--l", "-33", "--grid", "64"], "--l"),
        (["sweep", "--photons", "inf", "--l", "64", "--grid", "64"], "--l"),
        (["render", "--theta", "1", "--alpha", "1", "--grid", "64", "--photons=-inf"],
         "--photons"),
        (["sweep", "--grid", "64", "--photons=-inf"], "--photons"),
        (["render", "--theta", "1", "--alpha", "1", "--grid", "64", "--photons", "-1"],
         "--photons"),
        (["sweep", "--grid", "64", "--photons", "nan"], "--photons"),
        (["render", "--theta", "1", "--alpha", "1", "--grid", "64", "--photons", "none"],
         "--photons"),
        # A pi literal past the largest float, and a finite span that overflows.
        (["sweep", "--samples", "3", "--end", "6" + "0" * 307 + "pi"], "--end"),
        (["render", "--theta", "1" + "0" * 309 + "pi", "--alpha", "1"], "--theta"),
        (["sweep", "--samples", "3", "--start=-1.7e308", "--end", "1.7e308"], "--start/--end"),
        (["weak", "--phi", ","], "--phi"),  # need at least one angle
    ],
)
def test_out_of_range_flag_is_usage_error_naming_the_flag(argv, flag, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command",
    [["render", "--theta", "1", "--alpha", "1"], ["sweep", "--photons", "inf", "--samples", "2"]],
    ids=["render", "sweep"],
)
@pytest.mark.parametrize("size", [16, 32, 42, 62, 43, 63, 64])
def test_grid_needs_a_pixel_in_every_port_window(size, command, tmp_path, capsys):
    code = main(command + ["--grid", str(size), "--out", str(tmp_path / "x")])
    if size in (16, 32, 42, 62):
        assert code == 1
        err = capsys.readouterr().err
        assert "argument --grid:" in err and "without pixels" in err
        assert not any(tmp_path.iterdir())
    else:
        assert code == 0


@pytest.mark.parametrize(
    "argv,flag,value",
    [(["render", "--alpha", "0", "--grid", "64"], "--theta", "-pi/3"),
     (["sweep", "--samples", "3"], "--start", "-pi/2")],
    ids=["theta", "start"],
)
def test_negative_angle_joins_its_flag_with_equals(argv, flag, value, tmp_path, capsys):
    # argparse reads a separate "-pi/3" as a flag; "--theta=-pi/3" is one token.
    assert main(argv + [flag, value, "--out", str(tmp_path / "a")]) == 1
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    assert main(argv + [f"{flag}={value}", "--out", str(tmp_path / "b")]) == 0
    if argv[0] == "render":
        record = json.loads((tmp_path / "b" / "report.json").read_text())["params"]
    else:
        record = json.loads((tmp_path / "b.json").read_text())["config"]
    assert record[flag[2:]] == parse_angle(value)


@pytest.mark.parametrize(
    "argv,module,name",
    [
        # Inside argparse: the --grid type builds the port annulus plan.
        (["render", "--theta", "1", "--alpha", "1", "--grid", "64"], fringes, "port_plan"),
        (["sweep", "--samples", "3", "--photons", "inf", "--grid", "64"], optics,
         "synthesize_ports"),
        (["weak", "--n", "16"], weak, "reconstruct_profile"),
    ],
    ids=["render-grid", "sweep", "weak"],
)
def test_failed_allocation_is_a_runtime_error(argv, module, name, tmp_path, monkeypatch, capsys):
    # Stands in for numpy's error on an out-of-reach size such as
    # `render --grid 1000000`, without allocating anything large.
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(module, name, refuse)
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"


RUN_KEYS = ("theta", "alpha", "oam_charge", "flip_impurity", "path_phase")
CAMERA_KEYS = ("grid", "oam_charge", "photon_budget", "readout_sigma", "seed")


@pytest.mark.parametrize("argv", [
    ["--theta", "1", "--alpha", "0.7", "--impurity", "0.2", "--path-phase", "0.3", "--l", "-3",
     "--photons", "1e4", "--readout-sigma", "2", "--seed", "4"],
    ["--calibrated", "--seed", "5"],
])
def test_render_and_sweep_record_one_run(argv, tmp_path):
    # report.json's params and metadata.json hold the same run and camera, and a
    # sweep through the same camera records the same camera keys in its config.
    out = tmp_path / "r"
    assert main(["render", *argv, "--grid", "64", "--out", str(out)]) == 0
    params = json.loads((out / "report.json").read_text())["params"]
    meta = json.loads((out / "metadata.json").read_text())
    assert {k: params[k] for k in RUN_KEYS} == {k: meta[k] for k in RUN_KEYS}
    assert params["grid"] == meta["grid"]["width"] == meta["grid"]["height"] == 64
    assert {k: params[k] for k in meta["noise"]} == meta["noise"]
    assert set(params) == {*RUN_KEYS, *CAMERA_KEYS}
    camera = {k: params[k] for k in CAMERA_KEYS}
    photons = "inf" if camera["photon_budget"] is None else repr(camera["photon_budget"])
    assert main(["sweep", "--samples", "2", "--grid", "64", "--l", str(camera["oam_charge"]),
                 "--photons", photons, "--readout-sigma", repr(camera["readout_sigma"]),
                 "--seed", str(camera["seed"]), "--out", str(tmp_path / "s")]) == 0
    config = json.loads((tmp_path / "s.json").read_text())["config"]
    assert {k: config[k] for k in CAMERA_KEYS} == camera


def test_noiseless_budget_is_written_as_null(tmp_path):
    out = tmp_path / "r"
    assert main(["render", "--theta", "1", "--alpha", "1", "--grid", "64", "--photons", "inf",
                 "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["params"]["photon_budget"] is None
    assert json.loads((out / "metadata.json").read_text())["noise"]["photon_budget"] is None
    assert main(["sweep", "--samples", "2", "--grid", "64", "--photons", "inf",
                 "--out", str(tmp_path / "s")]) == 0
    config = json.loads((tmp_path / "s.json").read_text())["config"]
    assert config["photon_budget"] is None and config["pipeline"]


def test_negative_zero_records_as_zero_except_for_an_angle(tmp_path, capsys):
    # A -0 budget, readout sigma or impurity records as 0; a -0 angle is an angle
    # and keeps its sign.
    assert main(["sweep", "--photons=-0", "--grid", "64", "--samples", "3", "--json",
                 "--out", str(tmp_path / "s")]) == 0
    config = json.loads(capsys.readouterr().out)
    assert math.copysign(1.0, config["photon_budget"]) == 1.0
    out = tmp_path / "r"
    assert main(["render", "--theta=-0", "--alpha", "0.7", "--photons", "1e4",
                 "--readout-sigma=-0", "--impurity=-0", "--grid", "64", "--out", str(out)]) == 0
    params = json.loads((out / "report.json").read_text())["params"]
    meta = json.loads((out / "metadata.json").read_text())
    for value in (params["readout_sigma"], params["flip_impurity"],
                  meta["noise"]["readout_sigma"], meta["flip_impurity"]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert math.copysign(1.0, params["theta"]) == math.copysign(1.0, meta["theta"]) == -1.0


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == 0

    def test_help_shows_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        assert main(["sweep", "--help"]) == 0
        out = capsys.readouterr().out
        assert "(default: 181)" in out
        assert "--pipeline" not in out
        assert main(["render", "--help"]) == 0
        assert "--no-calibrated" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_parser_is_built_once_and_flags_still_win_over_config(self, tmp_path, monkeypatch):
        build_parser.cache_clear()
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"samples": 5}))
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(config), "--samples", "4", "--out", "a"]) == 0
        assert main(["sweep", "--config", str(config), "--out", "b"]) == 0
        assert build_parser.cache_info().misses == 1
        assert [len(read_csv(tmp_path / f"{name}.csv")[1]) for name in "ab"] == [4, 5]

    @pytest.mark.parametrize("command", [["sweep"], ["render", "--theta", "1", "--alpha", "1"]])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        assert main(command + ["--seed", "-1", "--out", str(tmp_path / "x")]) == 1
        assert "--seed" in capsys.readouterr().err
