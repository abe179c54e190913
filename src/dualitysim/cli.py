"""Command-line driver: parameter sweeps, image synthesis, pointer scans.

Subcommands
-----------
sweep   Tabulate conditional and averaged duality measures along a theta
        or alpha sweep (CSV + JSON); optionally re-measure each row
        through the full image pipeline.
render  Synthesize the two output-port images for one configuration,
        export rasters and profiles, and report measured versus analytic
        visibility/predictability.
weak    Scan the wave-plate sliver across a transverse profile and export
        the reconstructed wavefunction ratio.

Angles are given in radians and accept pi literals such as ``pi/12``,
``2pi/3`` or ``-pi/2`` alongside plain decimals.  Exit codes: 0 success,
1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import duality, fringes, optics, weak
from .errors import DualitySimError
from .qubit import StateParams

_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:\.\d*)?)?\s*\*?\s*(?:pi|π)"
    r"\s*(?:/\s*(?P<div>\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)

SWEEP_COLUMNS = [
    "theta",
    "alpha",
    "V_cond_V",
    "P_cond_H",
    "sum_cond_squares",
    "V_avg",
    "P_avg",
    "sum_avg_squares",
    "p_H",
    "p_V",
]
MEASURED_COLUMNS = ["V_cond_V_measured", "P_cond_H_measured", "sum_cond_squares_measured"]
# Parsed names that no --config file may set: every other flag can.
_NOT_CONFIGURABLE = {"command", "func", "config", "json"}


class UsageError(Exception):
    """Invalid command line or configuration; exits with code 1."""


def parse_angle(text: str) -> float:
    """Angle in radians from a decimal or a pi literal like ``pi/12``."""
    if isinstance(text, (int, float)):
        return float(text)
    match = _ANGLE_RE.match(text)
    if match:
        value = math.pi
        if match.group("coef"):
            value *= float(match.group("coef"))
        if match.group("div"):
            divisor = float(match.group("div"))
            if divisor == 0:
                raise UsageError(f"zero divisor in angle {text!r}")
            value /= divisor
        if match.group("sign") == "-":
            value = -value
        return value
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def _parse_photons(text: str | float | None) -> float | None:
    if text is None:
        return None
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        lowered = text.strip().lower()
        if lowered in ("inf", "infinity", "none"):
            return None
        try:
            value = float(lowered)
        except ValueError:
            raise UsageError(f"cannot parse photon budget {text!r}") from None
    if math.isinf(value):
        return None
    if value < 0:
        raise UsageError("photon budget must be nonnegative")
    return value


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _write_csv(path: Path, columns: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _seed(args: argparse.Namespace, config: dict) -> int:
    seed = int(_resolve(args, config, "seed", 0))
    if seed < 0:
        raise UsageError("--seed must be >= 0")
    return seed


def cmd_sweep(args: argparse.Namespace, config: dict) -> int:
    swept = _resolve(args, config, "sweep", "theta")
    if swept not in ("theta", "alpha"):
        raise UsageError(f"--sweep must be theta or alpha, got {swept!r}")
    default_fixed = "pi/12" if swept == "theta" else "pi/2"
    fixed = parse_angle(_resolve(args, config, "fixed", default_fixed))
    start = parse_angle(_resolve(args, config, "start", "0"))
    end = parse_angle(_resolve(args, config, "end", "2pi"))
    samples = int(_resolve(args, config, "samples", 181))
    if samples < 2:
        raise UsageError("--samples must be at least 2")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise UsageError("sweep range must be finite")
    seed = _seed(args, config)
    grid_n = int(_resolve(args, config, "grid", 512))
    l = int(_resolve(args, config, "l", optics.DEFAULT_OAM))
    photons_raw = _resolve(args, config, "photons", None)
    readout_sigma = float(_resolve(args, config, "readout_sigma", 0.0))
    pipeline = bool(_resolve(args, config, "pipeline", False)) or photons_raw is not None
    photons = _parse_photons(photons_raw)
    out_base = Path(_resolve(args, config, "out", "sweep"))

    values = np.linspace(start, end, samples)
    thetas = values if swept == "theta" else np.full(samples, fixed)
    alphas = values if swept == "alpha" else np.full(samples, fixed)

    v_cond = duality.conditional_visibility_v(thetas, alphas)
    sum_cond = duality.conditional_sum_of_squares(thetas, alphas)
    v_avg, p_avg = duality.closed_form_averaged(thetas, alphas)
    sum_avg = duality.averaged_sum_of_squares(thetas, alphas)
    p_h, p_v = duality.postselection_probabilities(thetas, alphas)
    rows = [
        [thetas[i], alphas[i], v_cond[i], 1.0, sum_cond[i], v_avg[i], p_avg[i],
         sum_avg[i], p_h[i], p_v[i]]
        for i in range(samples)
    ]

    columns = list(SWEEP_COLUMNS)
    grid = optics.GridSpec(width=grid_n, height=grid_n)
    if pipeline:
        columns += MEASURED_COLUMNS
        for i, row in enumerate(rows):
            syn = optics.synthesize_ports(
                StateParams(float(thetas[i]), float(alphas[i])), l=l, grid=grid
            )
            m = fringes.measure_ports(syn, photons, readout_sigma, seed, row=i)
            row += [m.visibility, m.predictability, m.sum_of_squares]
            # Free this row's fields and frames before the next row renders.
            del syn, m

    out_base.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out_base.with_suffix(".csv")
    json_path = out_base.with_suffix(".json")
    _write_csv(csv_path, columns, rows)
    payload = {
        "columns": columns,
        "rows": [[float(v) for v in row] for row in rows],
        "config": {
            "sweep": swept,
            "fixed": fixed,
            "start": start,
            "end": end,
            "samples": samples,
            "seed": seed,
            "grid": grid_n,
            "oam_charge": l,
            "photon_budget": photons,
            "readout_sigma": readout_sigma,
            "pipeline": pipeline,
        },
    }
    _write_json(json_path, payload)
    if getattr(args, "json", False):
        print(json.dumps(payload["config"], sort_keys=True))
    else:
        print(f"wrote {csv_path} and {json_path} ({samples} rows)")
    return 0


def cmd_render(args: argparse.Namespace, config: dict) -> int:
    calibrated = bool(_resolve(args, config, "calibrated", False))
    seed = _seed(args, config)
    grid_n = int(_resolve(args, config, "grid", 512))
    l = int(_resolve(args, config, "l", optics.DEFAULT_OAM))
    readout_sigma = float(_resolve(args, config, "readout_sigma", 0.0))
    path_phase = parse_angle(_resolve(args, config, "path_phase", "0"))
    out_dir = Path(_resolve(args, config, "out", "render_out"))

    if calibrated:
        params, impurity = optics.calibrated_operating_point()
        photons = _parse_photons(_resolve(args, config, "photons", 1e6))
    else:
        theta_raw = _resolve(args, config, "theta", None)
        alpha_raw = _resolve(args, config, "alpha", None)
        if theta_raw is None or alpha_raw is None:
            raise UsageError("render needs --theta and --alpha (or --calibrated)")
        params = StateParams(parse_angle(theta_raw), parse_angle(alpha_raw))
        impurity = float(_resolve(args, config, "impurity", 0.0))
        photons = _parse_photons(_resolve(args, config, "photons", None))

    grid = optics.GridSpec(width=grid_n, height=grid_n)
    syn = optics.synthesize_ports(
        params, l=l, grid=grid, path_phase=path_phase, flip_impurity=impurity
    )
    m = fringes.measure_ports(syn, photons, readout_sigma, seed)
    v_analytic, p_analytic = fringes.analytic_ports(syn)

    out_dir.mkdir(parents=True, exist_ok=True)
    for port, image, profile in (
        ("h", m.h_image, m.h_profile),
        ("v", m.v_image, m.v_profile),
    ):
        optics.write_pfm(out_dir / f"{port}_port.pfm", image)
        optics.write_pgm16(out_dir / f"{port}_port.pgm", image)
        fringes.profile_to_csv(profile, out_dir / f"{port}_profile.csv")

    params_info = {
        "theta": params.theta,
        "alpha": params.alpha,
        "oam_charge": l,
        "flip_impurity": impurity,
        "path_phase": path_phase,
        "grid": grid_n,
        "photon_budget": photons,
        "readout_sigma": readout_sigma,
        "seed": seed,
    }
    fringes.analysis_report_json(
        out_dir / "report.json",
        visibility=m.visibility,
        uncertainty=m.uncertainty,
        predictability=m.predictability,
        method="fit",
        params=params_info,
        extra={
            "V_measured": m.visibility,
            "P_measured": m.predictability,
            "sum_squares": m.sum_of_squares,
            "V_analytic": v_analytic,
            "P_analytic": p_analytic,
            "sum_squares_analytic": v_analytic**2 + p_analytic**2,
            "petal_count": m.petal_count,
        },
    )
    optics.write_metadata(
        out_dir / "metadata.json",
        params,
        l,
        grid,
        optics.NoiseModel(photons, readout_sigma, seed),
        extra={"flip_impurity": impurity, "path_phase": path_phase},
    )
    if getattr(args, "json", False):
        print((out_dir / "report.json").read_text(), end="")
    else:
        print(
            f"wrote images and report to {out_dir} "
            f"(V={m.visibility:.4f}, P={m.predictability:.4f})"
        )
    return 0


def _load_psi(spec: str, n: int) -> np.ndarray:
    if spec == "uniform":
        return weak.uniform_wavefunction(n)
    if spec.startswith("gaussian"):
        match = re.match(r"^gaussian[:(]([^)]+)\)?$", spec)
        if not match:
            raise UsageError("gaussian profile needs a width, e.g. gaussian:32")
        sigma = float(match.group(1))
        return weak.gaussian_wavefunction(n, sigma)
    if spec.startswith("file:"):
        path = Path(spec[5:])
        if not path.exists():
            raise UsageError(f"wavefunction file {path} does not exist")
        values = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.replace(",", " ").split()
            if len(parts) != 2:
                raise UsageError(
                    f"{path}:{lineno}: expected two columns (re im), got {len(parts)}"
                )
            try:
                values.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise UsageError(
                    f"{path}:{lineno}: cannot parse {stripped!r} as two floats"
                ) from None
        if len(values) < 2:
            raise UsageError(f"{path}: need at least two samples")
        return weak.normalized(np.array(values, dtype=complex))
    raise UsageError(f"unknown wavefunction spec {spec!r}")


def cmd_weak(args: argparse.Namespace, config: dict) -> int:
    spec = _resolve(args, config, "psi", "gaussian:32")
    n = int(_resolve(args, config, "n", 256))
    mode = _resolve(args, config, "mode", "linearized")
    phi_raw = _resolve(args, config, "phi", "0.1")
    out_base = Path(_resolve(args, config, "out", "weak"))
    phis = [parse_angle(part) for part in str(phi_raw).split(",") if part.strip()]
    if not phis:
        raise UsageError("need at least one --phi value")

    psi = _load_psi(spec, n)
    truth = weak.true_ratio(psi)
    x = np.arange(len(psi))

    out_base.parent.mkdir(parents=True, exist_ok=True)
    max_errors: dict[str, float] = {}
    for phi in phis:
        recon = weak.reconstruct_profile(psi, phi, mode=mode)
        errors = np.abs(recon - truth)
        key = format(phi, ".6g")
        max_errors[key] = float(errors.max())
        rows = [
            [float(x[i]), float(recon[i].real), float(recon[i].imag), float(errors[i])]
            for i in range(len(psi))
        ]
        _write_csv(
            Path(f"{out_base}_phi{key}.csv"),
            ["x", "re_psi_ratio", "im_psi_ratio", "abs_error_vs_truth"],
            rows,
        )

    order = None
    if len(phis) >= 2:
        order = weak.convergence_order(
            np.array(phis), np.array([max_errors[format(p, '.6g')] for p in phis])
        )
    summary = {
        "psi": spec,
        "n": len(psi),
        "mode": mode,
        "max_abs_error": max_errors,
        "convergence_order": order,
    }
    _write_json(Path(f"{out_base}_summary.json"), summary)
    if getattr(args, "json", False):
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"wrote reconstruction for {len(phis)} coupling(s) to {out_base}_*.csv")
    return 0


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None and value is not False:
        return value
    if key in config:
        return config[key]
    return default


def _add_camera(parser: argparse.ArgumentParser) -> None:
    """Flags of the image pipeline, which only sweep and render run."""
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--grid", type=int, default=None, metavar="N",
                        help="camera resolution (N x N pixels)")
    parser.add_argument("--photons", default=None, metavar="B",
                        help="photon budget per unit power ('inf' for noiseless)")
    parser.add_argument("--readout-sigma", dest="readout_sigma", type=float,
                        default=None, metavar="S", help="readout noise (counts)")
    parser.add_argument("--l", type=int, default=None, help="OAM charge (default 3)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path or directory")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable summary to stdout")
    parser.add_argument("--config", default=None,
                        help="JSON file with defaults for any flag of this subcommand")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualitysim",
        description="Conditional wave-particle duality simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="parameter sweep of duality measures")
    p_sweep.add_argument("--sweep", choices=("theta", "alpha"), default=None,
                         help="which preparation angle to sweep (default theta)")
    p_sweep.add_argument("--fixed", default=None,
                         help="value of the non-swept angle (pi literals allowed)")
    p_sweep.add_argument("--start", default=None, help="sweep start (default 0)")
    p_sweep.add_argument("--end", default=None, help="sweep end (default 2pi)")
    p_sweep.add_argument("--samples", type=int, default=None,
                         help="number of samples (default 181, i.e. 2-degree steps)")
    p_sweep.add_argument("--pipeline", action="store_true",
                         help="also measure each row through the image pipeline")
    _add_camera(p_sweep)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_render = sub.add_parser("render", help="synthesize and analyze port images")
    p_render.add_argument("--theta", default=None, help="preparation angle theta")
    p_render.add_argument("--alpha", default=None, help="preparation angle alpha")
    p_render.add_argument("--calibrated", action="store_true",
                          help="use the documented calibration operating point")
    p_render.add_argument("--impurity", type=float, default=None,
                          help="handedness-flip impurity amplitude (default 0)")
    p_render.add_argument("--path-phase", dest="path_phase", default=None,
                          help="relative interferometer path phase (default 0)")
    _add_camera(p_render)
    _add_common(p_render)
    p_render.set_defaults(func=cmd_render)

    p_weak = sub.add_parser("weak", help="weak-value wavefunction reconstruction")
    p_weak.add_argument("--psi", default=None,
                        help="profile: gaussian:SIGMA | uniform | file:PATH")
    p_weak.add_argument("--n", type=int, default=None,
                        help="grid points for built-in profiles (default 256)")
    p_weak.add_argument("--phi", default=None,
                        help="coupling angle(s), comma separated (default 0.1)")
    p_weak.add_argument("--mode", choices=("linearized", "exact"), default=None,
                        help="coupling model (default linearized)")
    _add_common(p_weak)
    p_weak.set_defaults(func=cmd_weak)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    config: dict = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load config {args.config}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(config, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return 1
        unknown = sorted(set(config) - (set(vars(args)) - _NOT_CONFIGURABLE))
        if unknown:
            print(
                f"error: config {args.config}: unknown key(s) for {args.command}: "
                + ", ".join(unknown),
                file=sys.stderr,
            )
            return 1
    try:
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DualitySimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
