"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a ``[PASS]``/``[FAIL]`` line per criterion (visible with
``pytest -s``) and then asserts.  Every criterion is expected to pass.

Criterion 5 pins the peak of V^2 + P^2 on its 181-sample theta sweep at
alpha = pi/12 to 1.99627, the grid maximum computed by the brute-force
oracle in ``oracles.py``, which shares no code with the package.  The
peak may not exceed the continuum maximum 2, reached at
tan(theta/2) = 1/sin(alpha/2).  An earlier version required
1 + cos^2(pi/24) = 1.9830 instead; that number is the V-branch
normaliser p_V / cos^2(theta/2) at theta = pi - alpha, not a value of
V^2 + P^2 anywhere on the sweep.
"""

import json
import time

import numpy as np

from dualitysim import (
    StateParams,
    ZeroProbabilityPostselection,
    averaged_duality,
    closed_form_averaged,
    closed_form_conditional,
    gaussian_wavefunction,
    partial_trace_env,
    postselect_env,
    predictability,
    projector_from_ket,
    state_vector,
    true_ratio,
    visibility,
)
from dualitysim.cli import main
from dualitysim.duality import SWEEP_COLUMNS, conditional_visibility_v, sweep_columns
from dualitysim.fringes import fringe_visibility, port_profile
from dualitysim.optics import GridSpec, render_image, synthesize_ports
from dualitysim.weak import (
    SliverCoupling,
    apply_sliver,
    convergence_order,
    pointer_sigma_expectations,
    postselect_zero_momentum,
    reconstruct_weak_value,
)
from oracles import (
    KET_BOT,
    KET_TOP,
    brute_density,
    brute_postselect,
    brute_predictability,
    brute_state,
    brute_visibility,
)

GRID_64 = np.linspace(0, 2 * np.pi, 64, endpoint=False)


def report(number: int, description: str, ok: bool, detail: str = "") -> str | None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    return None if ok else f"{description}{suffix}"


def test_criterion_01_duality_identity():
    """Unconditional V^2 + P^2 equals its closed form on a 64x64 grid."""
    start = time.perf_counter()
    worst = 0.0
    for theta in GRID_64:
        for alpha in GRID_64:
            rho = partial_trace_env(state_vector(StateParams(theta, alpha)))
            total = visibility(rho) ** 2 + predictability(rho) ** 2
            expected = np.sin(alpha / 2) ** 2 * np.sin(theta) ** 2 + np.cos(theta) ** 2
            worst = max(worst, abs(total - expected))
    elapsed = time.perf_counter() - start
    failures = [
        report(1, "identity deviation <= 1e-10", worst <= 1e-10, f"worst {worst:.2e}"),
        report(1, "runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"),
    ]
    assert not [f for f in failures if f]


def test_criterion_02_conditional_bound_sandwich():
    """Mixed-postselection sum of squares lies in [1, 2] with equalities."""
    low, high = np.inf, -np.inf
    skipped = 0
    for theta in GRID_64:
        for alpha in GRID_64:
            try:
                v, p = closed_form_conditional(StateParams(theta, alpha))
            except ZeroProbabilityPostselection:
                skipped += 1  # only the degenerate (pi, 0) grid point
                continue
            s = v**2 + p**2
            low, high = min(low, s), max(high, s)
    sums_alpha_zero = [
        closed_form_conditional(StateParams(theta, 0.0))[0] ** 2 + 1.0
        for theta in GRID_64
        if abs(theta - np.pi) > 1e-12
    ]
    v_max, p_max = closed_form_conditional(StateParams(np.pi / 2, np.pi))
    failures = [
        report(2, "lower bound 1 - 1e-9", low >= 1.0 - 1e-9, f"min {low:.12f}"),
        report(2, "upper bound 2 + 1e-9", high <= 2.0 + 1e-9, f"max {high:.12f}"),
        report(
            2,
            "equality 1 at alpha = 0",
            max(abs(s - 1.0) for s in sums_alpha_zero) <= 1e-9,
        ),
        report(
            2,
            "equality 2 at (pi/2, pi)",
            abs(v_max**2 + p_max**2 - 2.0) <= 1e-9,
        ),
        report(2, "only the degenerate grid point skipped", skipped == 1),
    ]
    assert not [f for f in failures if f]


def test_criterion_03_random_postselection_duality():
    """Single-postselection measures obey V^2 + P^2 <= 1 for random
    preparations and Haar-random polarization projectors."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    degenerate = 0
    for _ in range(10_000):
        theta, alpha = rng.uniform(0.0, 2 * np.pi, 2)
        ket = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        proj = projector_from_ket(ket)
        try:
            rho, _ = postselect_env(state_vector(StateParams(theta, alpha)), proj)
        except ZeroProbabilityPostselection:
            degenerate += 1
            continue
        worst = max(worst, visibility(rho) ** 2 + predictability(rho) ** 2)
    elapsed = time.perf_counter() - start
    failures = [
        report(3, "bound <= 1 + 1e-9 over 10^4 triples", worst <= 1.0 + 1e-9,
               f"worst {worst:.12f}, {degenerate} degenerate draws"),
        report(3, "runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f} s"),
    ]
    assert not [f for f in failures if f]


def test_criterion_04_averaged_bound_and_oracle():
    """Probability-weighted measures respect the single-qubit bound and
    match their closed forms."""
    worst_bound = -np.inf
    worst_gap = 0.0
    for theta in GRID_64:
        for alpha in GRID_64:
            rep = averaged_duality(StateParams(theta, alpha))
            v_bar, p_bar = closed_form_averaged(theta, alpha)
            worst_bound = max(worst_bound, rep.sum_of_squares)
            worst_gap = max(
                worst_gap,
                abs(rep.visibility - v_bar),
                abs(rep.predictability - p_bar),
            )
    failures = [
        report(4, "averaged bound <= 1 + 1e-9", worst_bound <= 1.0 + 1e-9,
               f"max {worst_bound:.12f}"),
        report(4, "weighted sums match closed forms <= 1e-10", worst_gap <= 1e-10,
               f"worst {worst_gap:.2e}"),
    ]
    assert not [f for f in failures if f]


def test_criterion_05_theta_sweep_peak(tmp_path):
    """Theta sweep at weak coupling pi/12: peak location, peak value,
    averaged curve, runtime (analytic and full pipeline)."""
    alpha = np.pi / 12
    start = time.perf_counter()
    thetas = np.linspace(0.0, 2 * np.pi, 181)
    cond = conditional_visibility_v(thetas, alpha) ** 2 + 1.0
    table = sweep_columns(thetas, np.full_like(thetas, alpha))
    avg = table[:, SWEEP_COLUMNS.index("sum_avg_squares")]
    analytic_time = time.perf_counter() - start

    step = thetas[1] - thetas[0]
    order = np.argsort(cond)[::-1]
    peak_primary = thetas[order[0]]
    # Second peak: best sample on the other side of theta = pi.
    same_side = (peak_primary - np.pi) * (thetas[order] - np.pi) > 0
    peak_secondary = thetas[order[~same_side][0]] if (~same_side).any() else np.nan
    peaks = sorted([peak_primary, peak_secondary])
    targets = (np.pi - alpha, np.pi + alpha)
    location_ok = all(
        abs(p - t) <= step + 1e-12 for p, t in zip(peaks, targets)
    )
    peak_value = float(cond[order[0]])
    # Required peak from the brute-force oracle on the same samples: V from
    # postselecting |V>, P from postselecting |H>.  Samples where either
    # branch is dark (theta = 0 has p_H = 0) have no conditional pair.
    # The 1 + cos^2(pi/24) once required here is p_V / cos^2(theta/2) at
    # theta = pi - alpha, the V-branch normaliser, not a value of V^2 + P^2.
    proj_h, proj_v = np.outer(KET_TOP, KET_TOP), np.outer(KET_BOT, KET_BOT)
    oracle_sums = []
    for theta in thetas:
        rho4 = brute_density(brute_state(theta, alpha))
        rho_v, _ = brute_postselect(rho4, proj_v)
        rho_h, _ = brute_postselect(rho4, proj_h)
        if rho_v is not None and rho_h is not None:
            oracle_sums.append(brute_visibility(rho_v) ** 2 + brute_predictability(rho_h) ** 2)
    required = max(oracle_sums)  # 1.99627

    start = time.perf_counter()
    code = main([
        "sweep", "--sweep", "theta", "--fixed", "pi/12", "--samples", "181",
        "--photons", "inf", "--grid", "512", "--seed", "1",
        "--out", str(tmp_path / "acc5_sweep"),
    ])
    pipeline_time = time.perf_counter() - start

    failures = [
        report(5, "peaks within one step of pi -+ pi/12", location_ok,
               f"peaks at {np.degrees(peaks).round(1)} deg"),
        report(5, "peak value 1.99627 (oracle grid peak) +/- 1e-3",
               abs(peak_value - required) <= 1e-3,
               f"measured {peak_value:.6f}, required {required:.6f}"),
        report(5, "peak value <= continuum maximum 2 + 1e-9", peak_value <= 2.0 + 1e-9,
               f"measured {peak_value:.6f}"),
        report(5, "averaged curve <= 1 everywhere", bool(np.all(avg <= 1.0 + 1e-9))),
        report(5, "analytic runtime < 1 s", analytic_time < 1.0,
               f"{analytic_time:.3f} s"),
        report(5, "pipeline sweep at 512^2 < 60 s", code == 0 and pipeline_time < 60.0,
               f"{pipeline_time:.1f} s"),
    ]
    assert not [f for f in failures if f]


def test_criterion_06_alpha_sweep_monotone(tmp_path):
    """Alpha sweep at theta = pi/2 rises from 1 to 2 on [0, pi] and the
    noiseless image pipeline tracks the analytic columns."""
    out = tmp_path / "acc6"
    code = main([
        "sweep", "--sweep", "alpha", "--fixed", "pi/2", "--samples", "181",
        "--photons", "inf", "--grid", "512", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.with_suffix(".csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    def col(name):
        return rows[:, header.index(name)]

    alphas = col("alpha")
    in_rise = (alphas >= -1e-12) & (alphas <= np.pi + 1e-12)
    cond = col("sum_cond_squares")[in_rise]
    monotone = bool(np.all(np.diff(cond) >= -1e-12))
    endpoints = abs(cond[0] - 1.0) <= 1e-9 and abs(cond[-1] - 2.0) <= 1e-9

    v_gap = np.abs(col("V_cond_V") - col("V_cond_V_measured"))
    p_gap = np.abs(col("P_cond_H") - col("P_cond_H_measured"))
    defined = ~np.isnan(v_gap)
    # The measured predictability is undefined only where the H port is
    # dark (alpha = pi exactly).
    p_defined = ~np.isnan(p_gap)
    failures = [
        report(6, "analytic curve monotone on [0, pi]", monotone),
        report(6, "rises from 1.0 to 2.0", endpoints,
               f"ends {cond[0]:.9f} -> {cond[-1]:.9f}"),
        report(6, "measured visibility within 0.01", float(v_gap[defined].max()) <= 0.01,
               f"worst {v_gap[defined].max():.4f}"),
        report(6, "measured predictability within 0.01",
               float(p_gap[p_defined].max()) <= 0.01,
               f"worst {p_gap[p_defined].max():.2e}, "
               f"{int((~p_defined).sum())} dark-port rows excluded"),
    ]
    assert not [f for f in failures if f]


def test_criterion_07_calibrated_reproduction(tmp_path):
    """The documented calibration point reports the reference measured
    values through the noisy pipeline, with the expected port imagery."""
    out = tmp_path / "acc7"
    code = main(["render", "--calibrated", "--seed", "11", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())

    # H-port uniformity: its petal-harmonic contrast stays in the noise.
    lines = (out / "h_profile.csv").read_text().splitlines()[1:]
    h_values = np.array([float(line.split(",")[1]) for line in lines])
    from dualitysim.fringes import AzimuthalProfile

    h_prof = AzimuthalProfile(values=h_values, counts=np.ones(120, dtype=int))
    h_vis, _ = fringe_visibility(h_prof, 3)

    failures = [
        report(7, "P = 0.98 +/- 0.02", abs(rep["P_measured"] - 0.98) <= 0.02,
               f"measured {rep['P_measured']:.4f}"),
        report(7, "V = 0.93 +/- 0.02", abs(rep["V_measured"] - 0.93) <= 0.02,
               f"measured {rep['V_measured']:.4f}"),
        report(7, "sum of squares 1.83 +/- 0.05", abs(rep["sum_squares"] - 1.83) <= 0.05,
               f"measured {rep['sum_squares']:.4f}"),
        report(7, "H port azimuthally uniform", h_vis <= 0.05,
               f"petal-harmonic contrast {h_vis:.4f}"),
        report(7, "V port shows exactly 6 petals", rep["petal_count"] == 6),
    ]
    assert not [f for f in failures if f]


def test_criterion_08_image_analytic_equivalence():
    """Noiseless synthesize -> profile -> fit matches the closed form
    within 1e-3 over a 16x16 parameter grid at 512^2."""
    grid = GridSpec()
    angles = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    start = time.perf_counter()
    worst = 0.0
    skipped = 0
    for theta in angles:
        for alpha in angles:
            params = StateParams(theta, alpha)
            try:
                expected, _ = closed_form_conditional(params)
            except ZeroProbabilityPostselection:
                skipped += 1
                continue
            v_port = synthesize_ports(params, 3, grid).fields("v")
            image = render_image(v_port)
            vis, _ = fringe_visibility(port_profile(image, grid), 3)
            worst = max(worst, abs(vis - expected))
    elapsed = time.perf_counter() - start
    failures = [
        report(8, "end-to-end visibility within 1e-3", worst <= 1e-3,
               f"worst {worst:.2e}, {skipped} dark-port points skipped"),
        report(8, "runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f} s"),
    ]
    assert not [f for f in failures if f]


def test_criterion_09_weak_value_reconstruction():
    """Pointer-scan reconstruction converges quadratically in the
    coupling and satisfies the polarization-visibility identity."""
    psi = gaussian_wavefunction(256, 32.0)
    truth = true_ratio(psi)
    phis = np.array([0.2, 0.1, 0.05, 0.025])
    errors = []
    identity_worst = 0.0
    for phi in phis:
        recon = np.empty(len(psi), dtype=complex)
        for x0 in range(len(psi)):
            joint = apply_sliver(psi, SliverCoupling(x0=x0, phi=float(phi)))
            pointer, _ = postselect_zero_momentum(joint)
            sx, sy = pointer_sigma_expectations(pointer)
            rho = np.outer(pointer, pointer.conj())
            identity_worst = max(
                identity_worst, abs(abs(complex(sx, -sy)) - visibility(rho))
            )
            recon[x0] = reconstruct_weak_value(pointer, float(phi))
        errors.append(np.abs(recon - truth).max())
    order = convergence_order(phis, np.array(errors))
    failures = [
        report(9, "convergence order 2.0 +/- 0.2", 1.8 <= order <= 2.2,
               f"measured {order:.3f}"),
        report(9, "visibility identity <= 1e-12", identity_worst <= 1e-12,
               f"worst {identity_worst:.2e}"),
    ]
    assert not [f for f in failures if f]


def test_criterion_10_determinism(tmp_path):
    """Identical seeded commands produce byte-identical outputs."""
    checks = []

    sweep_args = ["sweep", "--sweep", "theta", "--samples", "13",
                  "--photons", "3e5", "--readout-sigma", "2",
                  "--grid", "256", "--seed", "7"]
    a, b = tmp_path / "s1", tmp_path / "s2"
    main(sweep_args + ["--out", str(a)])
    main(sweep_args + ["--out", str(b)])
    checks.append(
        a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
        and a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
    )

    render_args = ["render", "--calibrated", "--grid", "256", "--seed", "21"]
    ra, rb = tmp_path / "r1", tmp_path / "r2"
    main(render_args + ["--out", str(ra)])
    main(render_args + ["--out", str(rb)])
    checks.append(
        all(
            (ra / name).read_bytes() == (rb / name).read_bytes()
            for name in ("h_port.pfm", "v_port.pfm", "h_port.pgm", "v_port.pgm",
                         "h_profile.csv", "v_profile.csv", "report.json",
                         "metadata.json")
        )
    )

    weak_args = ["weak", "--psi", "gaussian:32", "--n", "128", "--phi", "0.1,0.05"]
    wa, wb = tmp_path / "w1", tmp_path / "w2"
    main(weak_args + ["--out", str(wa)])
    main(weak_args + ["--out", str(wb)])
    checks.append(
        all(
            (tmp_path / f"w1{suffix}").read_bytes()
            == (tmp_path / f"w2{suffix}").read_bytes()
            for suffix in ("_phi0.1.csv", "_phi0.05.csv", "_summary.json")
        )
    )

    failures = [
        report(10, "sweep outputs byte-identical", checks[0]),
        report(10, "render outputs byte-identical", checks[1]),
        report(10, "weak outputs byte-identical", checks[2]),
    ]
    assert not [f for f in failures if f]
