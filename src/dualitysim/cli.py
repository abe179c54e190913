"""Command-line driver: parameter sweeps, image synthesis, pointer scans.

Each subcommand only parses its flags, gets its result from the library
(``duality.sweep_columns``, ``fringes.port_report``, ``weak.scan``) and writes it.

Subcommands
-----------
sweep   Tabulate conditional and averaged duality measures along a theta
        or alpha sweep (CSV + JSON); with ``--photons``, also measure
        each row through the full image pipeline.
render  Synthesize the two output-port images for one configuration,
        export rasters and profiles, and report measured versus analytic
        visibility/predictability.
weak    Scan the wave-plate sliver across a transverse profile and export
        the reconstructed wavefunction ratio.

Angles are given in radians and accept pi literals such as ``pi/12``,
``2pi/3`` or ``-pi/2`` alongside plain decimals; join a negative angle
other than a plain decimal such as ``-0.5`` to its flag with ``=``
(``--start=-pi/2``), as argparse reads a separate ``-pi/2`` as a flag.
Exit codes: 0 success, 1 usage error, 2 runtime error (a failed
allocation included).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import duality, fringes, optics, weak
from .errors import DualitySimError, EmptyBin
from .qubit import StateParams, amplitude_rows

_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:\.\d*)?)?\s*\*?\s*(?:pi|π)"
    r"\s*(?:/\s*(?P<div>\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)

MEASURED_COLUMNS = ["V_cond_V_measured", "P_cond_H_measured", "sum_cond_squares_measured"]
WEAK_COLUMNS = ["x", "re_psi_ratio", "im_psi_ratio", "abs_error_vs_truth"]
# Parsed names that no --config file may set: every other flag can.
_NOT_CONFIGURABLE = {"command", "func", "config", "json"}


class UsageError(argparse.ArgumentTypeError):
    """Invalid command line or configuration; exits with code 1.

    Raised by a flag's ``type``, it becomes an argparse error naming the flag.
    """


def parse_angle(text: str) -> float:
    """Finite angle in radians from a decimal or a pi literal like ``pi/12``."""
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
    else:
        try:
            value = float(text)
        except ValueError:
            raise UsageError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"angle must be finite, got {text!r}")
    return value


def parse_angles(text: str) -> list[float]:
    """Comma-separated angles, at least one."""
    angles = [parse_angle(part) for part in text.split(",") if part.strip()]
    if not angles:
        raise UsageError("need at least one angle")
    return angles


def at_least(minimum: float, convert=int, below: float = math.inf):
    """Flag type: a finite ``convert(text)`` in [``minimum``, ``below``)."""
    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and minimum <= value < below):
            raise UsageError(f"must be finite and in [{minimum}, {below}), got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def photon_budget(text: str) -> float:
    """Flag type of ``--photons``: a budget in [0, inf], where ``inf`` is noiseless."""
    value = float(text)
    if not 0.0 <= value <= math.inf:
        raise UsageError(f"photon budget must be nonnegative or inf, got {text!r}")
    return value


def oam_charge(text: str) -> int:
    """Flag type of ``--l``: a charge with 1 <= |l| <= ``optics.MAX_OAM`` (petals need l != 0)."""
    value = int(text)
    if not 1 <= abs(value) <= optics.MAX_OAM:
        raise UsageError(f"OAM charge must be nonzero with |l| <= {optics.MAX_OAM}, got {text}")
    return value


def grid_size(text: str) -> int:
    """Flag type of ``--grid``: a camera size with a pixel in every port window."""
    size = int(text)
    try:
        fringes.port_plan(optics.GridSpec(size))
    except (ValueError, EmptyBin):
        raise UsageError(f"a {size} x {size} camera leaves a {fringes.PORT_WINDOW:g}-degree "
                         "window of the port annulus without pixels; use a larger grid") from None
    return size


def _noise(args: argparse.Namespace, photons: float = math.inf) -> optics.NoiseModel:
    """The camera of ``args``, with ``photons`` as the budget when ``--photons`` is unset."""
    budget = photons if args.photons is None else args.photons
    try:
        return optics.NoiseModel(budget, args.readout_sigma, args.seed)
    except ValueError as exc:  # the flag types leave only a readout sigma without a budget
        raise UsageError(f"--readout-sigma needs a finite --photons budget: {exc}") from None


def _camera_record(args: argparse.Namespace, noise: optics.NoiseModel) -> dict:
    """The camera keys that ``sweep``'s config and ``render``'s report record."""
    return {"grid": args.grid, "oam_charge": args.l, **noise.record}


def cmd_sweep(args: argparse.Namespace) -> int:
    swept, samples, start, end, fixed = args.sweep, args.samples, args.start, args.end, args.fixed
    if fixed is None:
        fixed = math.pi / 12 if swept == "theta" else math.pi / 2
    noise = _noise(args)
    pipeline = args.photons is not None
    if not math.isfinite(end - start):
        raise UsageError(f"argument --start/--end: end - start overflows to {end - start}")

    values = np.linspace(start, end, samples)
    thetas = values if swept == "theta" else np.full(samples, fixed)
    alphas = values if swept == "alpha" else np.full(samples, fixed)

    table = duality.sweep_columns(thetas, alphas)
    columns = list(duality.SWEEP_COLUMNS)
    if pipeline:
        columns += MEASURED_COLUMNS
        syn = optics.synthesize_ports(amplitude_rows(thetas, alphas), l=args.l,
                                      grid=optics.GridSpec(args.grid))
        m = fringes.measure_rows(syn, noise)
        table = np.column_stack((table, m.visibility, m.predictability, m.sum_of_squares))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = args.out.with_suffix(".csv")
    json_path = args.out.with_suffix(".json")
    fringes.write_csv(csv_path, columns, table)
    payload = {
        "columns": columns,
        "rows": table.tolist(),
        "config": {
            "sweep": swept,
            "fixed": fixed,
            "start": start,
            "end": end,
            "samples": samples,
            "pipeline": pipeline,
            **_camera_record(args, noise),
        },
    }
    optics.write_json(json_path, payload)
    if args.json:
        print(json.dumps(payload["config"], sort_keys=True))
    else:
        print(f"wrote {csv_path} and {json_path} ({samples} rows)")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    noise = _noise(args, photons=optics.CALIBRATED_PHOTONS if args.calibrated else math.inf)
    if args.calibrated:
        conflicts = [f"--{name}" for name in ("theta", "alpha", "impurity")
                     if getattr(args, name) is not None]
        if conflicts:
            raise UsageError("--calibrated sets theta, alpha and impurity itself; "
                             f"it conflicts with {', '.join(conflicts)}")
        params, impurity = optics.calibrated_operating_point()
    else:
        if args.theta is None or args.alpha is None:
            raise UsageError("render needs --theta and --alpha (or --calibrated)")
        params = StateParams(args.theta, args.alpha)
        impurity = 0.0 if args.impurity is None else args.impurity
    l, path_phase, out_dir = args.l, args.path_phase, args.out

    grid = optics.GridSpec(args.grid)
    syn = optics.synthesize_ports(params, l=l, grid=grid, path_phase=path_phase,
                                  flip_impurity=impurity)
    m = fringes.measure_rows(syn, noise)
    report = fringes.port_report(m, syn)

    out_dir.mkdir(parents=True, exist_ok=True)
    for port, image, profile in (
        ("h", m.frame(0, 1), m.h_profile.row(0)),
        ("v", m.frame(0, 0), m.v_profile.row(0)),
    ):
        optics.write_pfm(out_dir / f"{port}_port.pfm", image)
        optics.write_pgm16(out_dir / f"{port}_port.pgm", image)
        fringes.profile_to_csv(profile, out_dir / f"{port}_profile.csv", noise)

    run = {"theta": params.theta, "alpha": params.alpha, "oam_charge": l,
           "flip_impurity": impurity, "path_phase": path_phase}
    text = fringes.analysis_report_json(out_dir / "report.json", report,
                                        {**run, **_camera_record(args, noise)})
    optics.write_metadata(out_dir / "metadata.json", run, grid, noise)
    if args.json:
        print(text, end="")
    else:
        print(f"wrote images and report to {out_dir} "
              f"(V={report['visibility']:.4f}, P={report['predictability']:.4f})")
    return 0


def _load_psi(spec: str, n: int) -> np.ndarray:
    """Unit-norm profile of ``--psi``; a bad spec or sample is a usage error."""
    if spec == "uniform":
        return weak.uniform_wavefunction(n)
    kind, _, width = spec.partition(":")
    if kind == "gaussian":
        if not width:
            raise UsageError("--psi: gaussian profile needs a width, e.g. gaussian:32")
        try:
            return weak.gaussian_wavefunction(n, float(width))
        except ValueError as exc:
            raise UsageError(f"--psi: gaussian width {width!r}: {exc}") from None
    if spec.startswith("file:"):
        path = Path(spec[5:])
        if not path.is_file():
            raise UsageError(f"--psi: wavefunction file {path} does not exist or is not a file")
        values = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.replace(",", " ").split()
            if len(parts) != 2:
                raise UsageError(
                    f"--psi: {path}:{lineno}: expected two columns (re im), got {len(parts)}"
                )
            try:
                value = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise UsageError(
                    f"--psi: {path}:{lineno}: cannot parse {stripped!r} as two floats"
                ) from None
            if not cmath.isfinite(value):
                raise UsageError(f"--psi: {path}:{lineno}: sample {stripped!r} is not finite")
            values.append(value)
        if len(values) < 2:
            raise UsageError(f"--psi: {path}: need at least two samples")
        try:
            return weak.normalized(np.array(values, dtype=complex))
        except ValueError as exc:
            raise UsageError(f"--psi: {path}: {exc}") from None
    raise UsageError(f"--psi: unknown wavefunction spec {spec!r}")


def cmd_weak(args: argparse.Namespace) -> int:
    phis, out_base = args.phi, args.out
    names = {}
    for phi in phis:
        name = f"{phi:.6g}"
        if name in names:
            raise UsageError(f"--phi values {names[name]!r} and {phi!r} would both write "
                             f"{out_base}_phi{name}.csv")
        names[name] = phi
    psi = _load_psi(args.psi, args.n)
    result = weak.scan(psi, phis, args.mode)

    out_base.parent.mkdir(parents=True, exist_ok=True)
    for name, recon, errors in zip(names, result.reconstructions, result.errors):
        fringes.write_csv(Path(f"{out_base}_phi{name}.csv"), WEAK_COLUMNS,
                          np.column_stack((np.arange(len(psi)), recon.real, recon.imag, errors)))
    summary = {
        "psi": args.psi,
        "n": len(psi),
        "mode": args.mode,
        "max_abs_error": dict(zip(names, result.max_errors)),
        "convergence_order": result.order,
    }
    text = optics.write_json(Path(f"{out_base}_summary.json"), summary)
    if args.json:
        print(text, end="")
    else:
        print(f"wrote reconstruction for {len(phis)} coupling(s) to {out_base}_*.csv")
    return 0


def _add_camera(parser: argparse.ArgumentParser) -> None:
    """Flags of the image pipeline, which only sweep and render run."""
    parser.add_argument("--seed", type=at_least(0), default=0, help="base RNG seed")
    parser.add_argument("--grid", type=grid_size, default=512, metavar="N",
                        help="camera resolution (N x N pixels, with a pixel in every "
                             "window of the port annulus: odd N >= 43 or any N >= 63)")
    parser.add_argument("--photons", type=photon_budget, default=None, metavar="B",
                        help="photon budget per unit power, 'inf' for noiseless frames; "
                             "sweep runs the image pipeline exactly when this is given")
    parser.add_argument("--readout-sigma", default=0.0, metavar="S",
                        type=at_least(0.0, float, below=optics.POISSON_LAM_MAX),
                        help="readout noise (counts, so it needs a finite --photons)")
    parser.add_argument("--l", type=oam_charge, default=optics.DEFAULT_OAM,
                        help="OAM charge (nonzero)")


def _add_common(parser: argparse.ArgumentParser, out: str) -> None:
    parser.add_argument("--out", type=Path, default=out, help="output path or directory")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable summary to stdout")
    parser.add_argument("--config", default=None,
                        help="JSON file with values for any flag of this subcommand; "
                             "flags on the command line win")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dualitysim",
        description="Conditional wave-particle duality simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}

    p_sweep = sub.add_parser("sweep", help="parameter sweep of duality measures", **defaults)
    p_sweep.add_argument("--sweep", choices=("theta", "alpha"), default="theta",
                         help="which preparation angle to sweep")
    p_sweep.add_argument("--fixed", type=parse_angle, default=None,
                         help="value of the non-swept angle (pi literals allowed); "
                              "pi/12 when sweeping theta, pi/2 when sweeping alpha")
    p_sweep.add_argument("--start", type=parse_angle, default="0", help="sweep start")
    p_sweep.add_argument("--end", type=parse_angle, default="2pi", help="sweep end")
    p_sweep.add_argument("--samples", type=at_least(2), default=181,
                         help="number of samples (181 is 2-degree steps)")
    _add_camera(p_sweep)
    _add_common(p_sweep, "sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_render = sub.add_parser("render", help="synthesize and analyze port images", **defaults)
    p_render.add_argument("--theta", type=parse_angle, default=None,
                          help="preparation angle theta")
    p_render.add_argument("--alpha", type=parse_angle, default=None,
                          help="preparation angle alpha")
    p_render.add_argument("--calibrated", action=argparse.BooleanOptionalAction,
                          default=False,
                          help="use the documented calibration operating point "
                               "(its own theta, alpha and impurity; photons 1e6)")
    p_render.add_argument("--impurity", type=at_least(0.0, float, below=1.0), default=None,
                          help="handedness-flip impurity amplitude; 0 when not set")
    p_render.add_argument("--path-phase", type=parse_angle, default="0",
                          help="relative interferometer path phase")
    _add_camera(p_render)
    _add_common(p_render, "render_out")
    p_render.set_defaults(func=cmd_render)

    p_weak = sub.add_parser("weak", help="weak-value wavefunction reconstruction", **defaults)
    p_weak.add_argument("--psi", default="gaussian:32",
                        help="profile: gaussian:SIGMA | uniform | file:PATH")
    p_weak.add_argument("--n", type=at_least(2), default=256,
                        help="grid points for built-in profiles (at least 2)")
    p_weak.add_argument("--phi", type=parse_angles, default="0.1",
                        help="coupling angle(s), comma separated")
    p_weak.add_argument("--mode", choices=("linearized", "exact"), default="linearized",
                        help="coupling model")
    _add_common(p_weak, "weak")
    p_weak.set_defaults(func=cmd_weak)
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The ``--config`` file of ``args`` spelled as command-line flags.

    A key ``read_out`` becomes ``--read-out=VALUE``, ``true``/``false``
    become ``--read-out``/``--no-read-out`` and ``null`` is skipped, so
    argparse checks a config value exactly as it checks a flag.
    """
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load config {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(config) - (set(vars(args)) - _NOT_CONFIGURABLE))
    if unknown:
        raise UsageError(f"config {args.config}: unknown key(s) for {args.command}: "
                         + ", ".join(unknown))
    flags = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            flags.append(flag if value else "--no-" + flag[2:])
        elif value is not None:
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config flags come first, so the command line's own flags win.
            args = parser.parse_args([args.command, *_config_flags(args), *argv[1:]])
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except (UsageError, DualitySimError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


if __name__ == "__main__":
    sys.exit(main())
