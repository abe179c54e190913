"""Recover visibility and predictability from camera intensity images.

The analysis mirrors the experimental procedure: pixels inside an annulus
around the beam axis are collected into angular windows (default 3
degrees, 120 bins), giving an azimuthal intensity profile.  A petal
pattern of a +l/-l superposition modulates that profile as

    I(phi) = c0 + c1 cos(2 |l| phi + delta)

and the fringe visibility is |c1| / c0.  Averaging over a finite angular
window attenuates the modulation by sinc(|l| * window); the fit below
corrects for that factor, so its output refers to the continuous
pattern rather than to the binned one.

Angular windows are centered on multiples of the window width (the first
bin is centered on 0 degrees), which aligns bin centers with the petal
crests of the default zero-path-phase synthesis.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from . import optics
from .errors import P_MIN, DegenerateProfile, EmptyBin, ZeroIntensity
from .optics import GridSpec, NoiseModel, PortSynthesis

INTENSITY_EPS = 1e-300  # floor below which a total intensity is "zero"
PORT_ANNULUS = (0.5, 2.5)  # radii in beam-waist units enclosing the ring
PORT_WINDOW = 3.0  # degrees of each angular window of a port profile


def _bin_angles(n_bins: int) -> np.ndarray:
    """Centers in degrees of ``n_bins`` equal windows tiling [0, 360) from 0."""
    return np.arange(n_bins) * (360.0 / n_bins)


@dataclass
class AzimuthalProfile:
    """Mean intensity versus azimuthal angle.

    ``values`` are per-bin means of the pixel intensities, ``stderr`` the
    standard error of each mean and ``counts`` the number of contributing
    pixels.  The bins tile [0, 360) from 0, so their number fixes
    ``window_degrees`` and the bin centers ``angles_deg``.
    """

    values: np.ndarray
    stderr: np.ndarray
    counts: np.ndarray
    window_degrees = property(lambda self: 360.0 / len(self.values))
    angles_deg = property(lambda self: _bin_angles(len(self.values)))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AnnulusPlan:
    """Pixels of an annulus and their angular windows on one frame shape.

    ``pixels`` are flat indices into the frame in ``np.nonzero`` order,
    ``bins`` the window of each pixel and ``counts`` the pixels per
    window.  The arrays are read-only; build plans with ``annulus_plan``.
    """

    pixels: np.ndarray
    bins: np.ndarray
    counts: np.ndarray

    def window_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-window sums of one value per annulus pixel."""
        return np.bincount(self.bins, weights=values, minlength=len(self.counts))

    def profile(self, sums: np.ndarray, sq_sums: np.ndarray) -> AzimuthalProfile:
        """Profile from per-window sums of the pixel values and of their squares."""
        means = sums / self.counts
        variances = np.clip(sq_sums / self.counts - means**2, 0.0, None)
        return AzimuthalProfile(means, np.sqrt(variances / self.counts), self.counts)


@lru_cache(maxsize=8)
def annulus_plan(
    shape: tuple[int, int],
    center: tuple[float, float],
    r_min: float,
    r_max: float,
    window_degrees: float,
) -> AnnulusPlan:
    """Plan of the pixels whose center lies in the annulus, cached per geometry.

    Raises ``EmptyBin`` when a window holds no pixels, as an empty annulus
    does.
    """
    n_bins = int(round(360.0 / window_degrees))
    cx, cy = center
    # One row of x offsets and one column of y offsets; only the
    # comparisons below span the whole frame.
    dx = np.arange(shape[1]) - cx
    dy = np.arange(shape[0])[:, None] - cy
    radius = np.hypot(dx, dy)
    mask = (radius >= r_min) & (radius < r_max)
    rows, cols = np.nonzero(mask)
    angles = np.degrees(np.arctan2(dy[rows, 0], dx[cols]))
    bins = np.floor(angles / window_degrees + 0.5).astype(int) % n_bins
    counts = np.bincount(bins, minlength=n_bins)
    if (counts == 0).any():
        empty = int(np.argmax(counts == 0))
        raise EmptyBin(
            f"angular window at {empty * window_degrees:.1f} deg has no pixels; "
            "widen the annulus or the window"
        )
    pixels = rows * shape[1] + cols
    for array in (pixels, bins, counts):
        array.setflags(write=False)
    return AnnulusPlan(pixels, bins, counts)


def azimuthal_profile(
    image: np.ndarray,
    center: tuple[float, float],
    r_min: float,
    r_max: float,
    window_degrees: float = PORT_WINDOW,
) -> AzimuthalProfile:
    """Bin pixel intensities of an annulus into angular windows.

    ``center`` is (x, y) in pixel coordinates and the radii are in
    pixels.  ``window_degrees`` must be positive and divide 360 evenly.
    Each bin holds the mean intensity of the pixels whose center falls
    inside the annulus and the window; a window without any pixels
    raises ``EmptyBin``.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("expected a 2-D intensity image")
    if not window_degrees > 0:
        raise ValueError(f"window of {window_degrees} deg is not positive")
    n_bins = 360.0 / window_degrees
    if abs(n_bins - round(n_bins)) > 1e-9:
        raise ValueError(f"window of {window_degrees} deg does not tile 360 deg")
    if not 0 <= r_min < r_max:
        raise ValueError("need 0 <= r_min < r_max")

    plan = annulus_plan(image.shape, tuple(center), r_min, r_max, float(window_degrees))
    samples = image.take(plan.pixels)
    return plan.profile(plan.window_sums(samples), plan.window_sums(samples**2))


def _port_annulus(grid: GridSpec) -> tuple:
    """(center, r_min, r_max, window_degrees) of the port annulus in pixels."""
    r_min, r_max = (grid.waist_to_pixels(r) for r in PORT_ANNULUS)
    return grid.beam_center, r_min, r_max, PORT_WINDOW


def port_plan(grid: GridSpec) -> AnnulusPlan:
    """``annulus_plan`` of the port annulus; ``EmptyBin`` for a too coarse ``grid``."""
    return annulus_plan((grid.size, grid.size), *_port_annulus(grid))


def port_profile(image: np.ndarray, grid: GridSpec) -> AzimuthalProfile:
    """Azimuthal profile of a camera frame over the port annulus."""
    return azimuthal_profile(image, *_port_annulus(grid))


def _window_attenuation(l: int, window_degrees: float) -> float:
    # Mean of cos(2|l| phi) over a window of this width, relative to its
    # center value: sin(|l| w) / (|l| w).
    half_arg = abs(l) * math.radians(window_degrees)
    return math.sin(half_arg) / half_arg if half_arg != 0 else 1.0


@lru_cache(maxsize=8)
def fit_operator(n_bins: int, l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design matrix D of c0 + A cos(m phi) + B sin(m phi), m = 2|l|, on the
    angles of ``n_bins`` bins that tile the circle from 0, its pseudo-inverse
    and (D^T D)^-1, cached per (n_bins, |l|); the arrays are read-only.

    Raises ``DegenerateProfile`` when D does not have full rank 3, as on
    bins that tile the circle when |l| * window is a multiple of 90
    degrees: the harmonic aliases to a constant (180 degrees) or sits at
    the bins' Nyquist rate, where its sin column is round-off (90 degrees).
    """
    phi = np.radians(_bin_angles(n_bins))
    m = 2 * abs(l)
    design = np.column_stack([np.ones_like(phi), np.cos(m * phi), np.sin(m * phi)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    # On tiling bins a full-rank D has s_min / s_max >= 1/sqrt(2); a
    # rank-deficient one has s_min / s_max at round-off, near 1e-14.
    if s.size < 3 or s[-1] < 1e-8 * s[0]:
        raise DegenerateProfile(
            f"the petal harmonic of |l|={l} cannot be fitted on "
            f"{360.0 / n_bins:g}-degree windows: there are fewer than 3 bins, or "
            "it aliases to a constant or to the bins' Nyquist rate; choose a "
            "window whose product with |l| is not a multiple of 90 degrees"
        )
    pinv = vt.T @ ((1.0 / s)[:, np.newaxis] * u.T)
    inv_normal = np.linalg.inv(design.T @ design)
    for array in (design, pinv, inv_normal):
        array.setflags(write=False)
    return design, pinv, inv_normal


def _harmonic_fit(profile: AzimuthalProfile, l: int):
    """Least-squares c0 + A cos(m phi) + B sin(m phi) with m = 2|l|."""
    design, pinv, inv_normal = fit_operator(len(profile), abs(l))
    coeffs = pinv @ profile.values
    residuals = profile.values - design @ coeffs
    dof = max(len(profile) - 3, 1)
    sigma_sq = float(residuals @ residuals) / dof
    return coeffs, sigma_sq * inv_normal


def fringe_visibility(profile: AzimuthalProfile, l: int) -> tuple[float, float]:
    """Fringe visibility of a petal profile and its 1-sigma uncertainty.

    A least-squares fit of c0 + c1 cos(2|l| phi + delta) gives
    |c1| / c0 (window attenuation removed), clamped to [0, 1], with the
    uncertainty propagated from the fit residuals.

    Raises:
        DegenerateProfile: for an all-zero profile, a harmonic that
            cannot be fitted on the profile's windows (see
            ``fit_operator``), or a non-positive fitted baseline.
    """
    if abs(l) < 1:
        raise ValueError("petal analysis needs |l| >= 1")
    if not np.any(profile.values > 0.0):
        raise DegenerateProfile("profile carries no intensity")
    attenuation = _window_attenuation(l, profile.window_degrees)

    coeffs, covariance = _harmonic_fit(profile, l)
    c0, a, b = coeffs
    if c0 <= 0.0:
        raise DegenerateProfile(f"fitted baseline {c0!r} is not positive")
    amplitude = math.hypot(a, b)
    visibility = min(amplitude / (attenuation * c0), 1.0)
    if amplitude > 0.0:
        grad = np.array(
            [-amplitude / c0**2, a / (amplitude * c0), b / (amplitude * c0)]
        )
    else:
        grad = np.array([0.0, 1.0 / c0, 1.0 / c0]) / math.sqrt(2.0)
    uncertainty = float(np.sqrt(grad @ covariance @ grad)) / attenuation
    return visibility, uncertainty


def predictability_from_arm_powers(i_plus: float, i_minus: float) -> float:
    """|I+ - I-| / (I+ + I-) for two mode-attributable powers."""
    if i_plus < 0.0 or i_minus < 0.0:
        raise ValueError("powers must be nonnegative")
    total = i_plus + i_minus
    if total <= INTENSITY_EPS:
        raise ZeroIntensity("total intensity is zero; ratio undefined")
    return abs(i_plus - i_minus) / total


def predictability_from_images(plus_image: np.ndarray, minus_image: np.ndarray) -> float:
    """Predictability from two mode-attributed intensity images.

    The images hold the intensity attributable to the +l and -l content
    of the port under analysis (e.g. recorded arm by arm); their total
    counts play the role of I+ and I-.
    """
    return predictability_from_arm_powers(float(np.sum(plus_image)), float(np.sum(minus_image)))


def predictability_from_profile(profile: AzimuthalProfile, l: int) -> float:
    """Predictability of a coherent port inferred from its own profile.

    A coherent field a u(+l) + b u(-l) has fringe visibility
    V = 2|a||b| / (|a|^2 + |b|^2), so its mode powers give
    P = ||a|^2 - |b|^2| / (|a|^2 + |b|^2) = sqrt(1 - V^2), with V from
    ``fringe_visibility``.  A fringeless port gives 1, balanced petals 0.
    """
    visibility, _ = fringe_visibility(profile, l)
    return math.sqrt(1.0 - visibility**2)


def count_petals(profile: AzimuthalProfile) -> int:
    """Number of azimuthal intensity lobes above the mid-level.

    Counts the circular runs of bins whose value exceeds the midpoint of
    the profile extrema; robust against per-bin noise well below the
    fringe amplitude.
    """
    values = profile.values
    mid = 0.5 * (values.max() + values.min())
    above = values > mid
    if above.all() or not above.any():
        return 0
    # Rotate so the sequence starts below mid, then count rising edges.
    start = int(np.argmin(above))
    rolled = np.roll(above, -start)
    rising = np.sum(rolled[1:] & ~rolled[:-1]) + int(rolled[0])
    return int(rising)


# The 10 pairs i <= j of the four mode terms, and the multiplicity of
# each pair product in the square of a weighted sum of the terms.
_PAIRS = np.triu_indices(4)
_PAIR_MULTIPLICITY = np.where(_PAIRS[0] == _PAIRS[1], 1.0, 2.0)


@lru_cache(maxsize=8)
def _mode_moments(l: int, grid: GridSpec) -> tuple[AnnulusPlan, np.ndarray, np.ndarray]:
    """Plan of ``port_profile``'s annulus and per-window sums over it of the
    mode terms |u+|^2, |u-|^2, Re(u+ conj(u-)) and Im(u+ conj(u-)) (4 rows)
    and of their pair products times multiplicity (10 rows, for the stderr)."""
    plan = port_plan(grid)
    # Gather u(|l|) alone, so a negative l forms no full-grid conjugate.
    u_abs = optics._mode_data(abs(l), grid).take(plan.pixels)
    u_plus, u_minus = (u_abs, u_abs.conj()) if l > 0 else (u_abs.conj(), u_abs)
    cross = u_plus * u_minus.conj()
    terms = np.stack([np.abs(u_plus) ** 2, np.abs(u_minus) ** 2, cross.real, cross.imag])
    sums = np.stack([plan.window_sums(term) for term in terms])
    pair_sums = np.stack([
        plan.window_sums(m * terms[i] * terms[j]) for i, j, m in zip(*_PAIRS, _PAIR_MULTIPLICITY)
    ])
    return plan, sums, pair_sums


def moment_profile(synthesis: PortSynthesis, port: str) -> AzimuthalProfile:
    """``port_profile`` of the noiseless ``port`` ("v" or "h") without a frame.

    It equals the profile of the rendered frame up to float round-off.
    """
    plan, sums, pair_sums = _mode_moments(synthesis.l, synthesis.grid)
    w = synthesis.intensity_weights(port)
    return plan.profile(w @ sums, (w[_PAIRS[0]] * w[_PAIRS[1]]) @ pair_sums)


@dataclass
class PortMeasurement:
    """Profiles of both output ports and the measures they give.

    ``visibility`` and its 1-sigma ``uncertainty`` come from the V port,
    ``predictability`` from the H port; each is NaN when its port is dark
    or its profile degenerate, and ``petal_count`` is 0 when V is NaN.
    ``v_image`` and ``h_image`` are ``frame(0)`` and ``frame(1)``, each
    rendered on first access.
    """

    v_profile: AzimuthalProfile
    h_profile: AzimuthalProfile
    visibility: float
    uncertainty: float
    predictability: float
    frame: Callable[[int], np.ndarray]
    v_image = property(lambda self: self.frame(0))
    h_image = property(lambda self: self.frame(1))

    @property
    def sum_of_squares(self) -> float:
        return self.visibility**2 + self.predictability**2

    @property
    def petal_count(self) -> int:
        return 0 if math.isnan(self.visibility) else count_petals(self.v_profile)


def _lit_ports(v_power: float, h_power: float) -> tuple[bool, bool]:
    """Whether the V and H ports are lit: a port below ``P_MIN`` times both
    ports' power is dark, so round-off light reads as undefined."""
    floor = P_MIN * (v_power + h_power)
    return v_power >= floor, h_power >= floor


def measure_ports(synthesis: PortSynthesis, noise: NoiseModel, row: int = 0) -> PortMeasurement:
    """Measure V and P on the two ports of ``synthesis`` through the camera ``noise``.

    V is fitted on the V-port profile.  P comes from the H-port profile
    or, for a nonzero flip impurity, from the H port's +l and -l frames,
    as an arm-by-arm acquisition records them.  A port that
    ``_lit_ports`` calls dark on the profile means reads NaN without a
    fit.  Frame ``port`` (0 V, 1 H, 2 H +l, 3 H -l) is rendered with ``noise`` reseeded from ``SeedSequence(noise.seed,
    spawn_key=(row, port))``.  For an ``exact`` noise model the profiles
    come from ``moment_profile``, and the V and H frames are rendered only
    when read.  ``EmptyBin`` depends on the grid alone and propagates.
    """

    def render(fields: list[np.ndarray], port: int) -> np.ndarray:
        seeds = np.random.SeedSequence(noise.seed, spawn_key=(row, port))
        return optics.render_image(fields, replace(noise, seed=seeds))

    port_fields = cache(synthesis.fields)
    frame = cache(lambda port: render(port_fields("h" if port else "v"), port))

    l, grid = synthesis.l, synthesis.grid
    if noise.exact:
        v_profile, h_profile = moment_profile(synthesis, "v"), moment_profile(synthesis, "h")
    else:
        v_profile, h_profile = port_profile(frame(0), grid), port_profile(frame(1), grid)
    v_lit, h_lit = _lit_ports(v_profile.values.mean(), h_profile.values.mean())
    visibility = uncertainty = predictability = math.nan
    if v_lit:
        try:
            visibility, uncertainty = fringe_visibility(v_profile, l)
        except DegenerateProfile:
            pass
    if h_lit:
        try:
            if synthesis.amplitudes["h"][2] != 0:
                # The unflipped impurity light is the H port's only +l content.
                main, impurity = port_fields("h")
                predictability = predictability_from_images(render([impurity], 2), render([main], 3))
            else:
                predictability = predictability_from_profile(h_profile, l)
        except (DegenerateProfile, ZeroIntensity):
            pass
    return PortMeasurement(v_profile, h_profile, visibility, uncertainty, predictability, frame)


def analytic_ports(synthesis: PortSynthesis) -> tuple[float, float]:
    """Noiseless (V, P) that ``measure_ports`` estimates, read off the port
    weights; NaN for a port that ``measure_ports`` counts as dark.

    V is the V port's petal contrast 2|p m| / (|p|^2 + |m|^2 + |e|^2), and
    P the contrast of the H port's +l and -l mode powers.
    """
    w_v, w_h = (synthesis.intensity_weights(port).tolist() for port in "vh")
    v_lit, h_lit = _lit_ports(w_v[0] + w_v[1], w_h[0] + w_h[1])  # unit-power modes
    visibility = predictability = math.nan
    if v_lit:
        visibility = math.hypot(w_v[2], w_v[3]) / (w_v[0] + w_v[1])
    if h_lit:
        predictability = predictability_from_arm_powers(w_h[0], w_h[1])
    return visibility, predictability


def write_csv(path: str | Path, columns: list[str], rows: np.ndarray | list[list[float]]) -> None:
    """CSV of a header row and ``rows``, every value formatted as ``%.17g``."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    body = (row * len(rows)) % tuple(np.ravel(rows).tolist())
    Path(path).write_text(",".join(columns) + "\n" + body)


def profile_to_csv(profile: AzimuthalProfile, path: str | Path) -> None:
    """CSV export with columns angle_deg, mean_intensity, stderr."""
    write_csv(path, ["angle_deg", "mean_intensity", "stderr"],
              np.column_stack((profile.angles_deg, profile.values, profile.stderr)))


def analysis_report_json(
    path: str | Path,
    visibility: float,
    uncertainty: float,
    predictability: float,
    params: dict,
    extra: dict | None = None,
) -> None:
    """JSON analysis report with the documented keys."""
    report = {
        "visibility": visibility,
        "uncertainty": uncertainty,
        "predictability": predictability,
        "method": "fit",
        "params": params,
    }
    if extra:
        report.update(extra)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
