"""Recover visibility and predictability from camera intensity images.

The analysis mirrors the experimental procedure: pixels inside an annulus
around the beam axis are collected into angular windows (default 3
degrees, 120 bins), giving an azimuthal intensity profile.  A petal
pattern of a +l/-l superposition modulates that profile as

    I(phi) = c0 + c1 cos(2 |l| phi + delta)

and the fringe visibility is |c1| / c0.  Averaging over a finite angular
window attenuates the modulation by sinc(|l| * window); both estimators
below correct for that factor, so their output refers to the continuous
pattern rather than to the binned one.

Angular windows are centered on multiples of the window width (the first
bin is centered on 0 degrees), which aligns bin centers with the petal
crests of the default zero-path-phase synthesis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import duality, optics
from .errors import P_MIN, DegenerateProfile, EmptyBin, ZeroIntensity
from .optics import DEFAULT_ANNULUS, FieldImage, GridSpec, PortSynthesis

INTENSITY_EPS = 1e-300  # floor below which a total intensity is "zero"


@dataclass
class AzimuthalProfile:
    """Mean intensity versus azimuthal angle.

    ``angles_deg`` are bin centers tiling [0, 360) in steps of
    ``window_degrees``; ``values`` are per-bin means of the pixel
    intensities, ``stderr`` the standard error of each mean and
    ``counts`` the number of contributing pixels.
    """

    angles_deg: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    window_degrees: float
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def azimuthal_profile(
    image: np.ndarray,
    center: tuple[float, float],
    r_min: float,
    r_max: float,
    window_degrees: float = 3.0,
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
    n_bins = int(round(n_bins))
    if not 0 <= r_min < r_max:
        raise ValueError("need 0 <= r_min < r_max")

    cx, cy = center
    # One row of x offsets and one column of y offsets; only the
    # comparisons and the gathers below span the whole frame.
    dx = np.arange(image.shape[1]) - cx
    dy = np.arange(image.shape[0])[:, None] - cy
    radius = np.hypot(dx, dy)
    mask = (radius >= r_min) & (radius < r_max)
    if not mask.any():
        raise EmptyBin("annulus contains no pixels")

    rows, cols = np.nonzero(mask)
    angles = np.degrees(np.arctan2(dy[rows, 0], dx[cols]))
    bin_index = np.floor(angles / window_degrees + 0.5).astype(int) % n_bins
    samples = image[rows, cols]

    counts = np.bincount(bin_index, minlength=n_bins)
    if (counts == 0).any():
        empty = int(np.argmax(counts == 0))
        raise EmptyBin(
            f"angular window at {empty * window_degrees:.1f} deg has no pixels; "
            "widen the annulus or the window"
        )
    sums = np.bincount(bin_index, weights=samples, minlength=n_bins)
    sq_sums = np.bincount(bin_index, weights=samples**2, minlength=n_bins)
    means = sums / counts
    variances = np.clip(sq_sums / counts - means**2, 0.0, None)
    stderr = np.sqrt(variances / counts)
    return AzimuthalProfile(
        angles_deg=np.arange(n_bins) * window_degrees,
        values=means,
        stderr=stderr,
        window_degrees=window_degrees,
        counts=counts,
    )


def port_profile(
    image: np.ndarray,
    grid: GridSpec,
    annulus: tuple[float, float] = DEFAULT_ANNULUS,
    window_degrees: float = 3.0,
) -> AzimuthalProfile:
    """Azimuthal profile with the annulus given in beam-waist units."""
    r_min, r_max = annulus
    return azimuthal_profile(
        image,
        center=grid.beam_center,
        r_min=grid.waist_to_pixels(r_min),
        r_max=grid.waist_to_pixels(r_max),
        window_degrees=window_degrees,
    )


def _window_attenuation(l: int, window_degrees: float) -> float:
    # Mean of cos(2|l| phi) over a window of this width, relative to its
    # center value: sin(|l| w) / (|l| w).
    half_arg = abs(l) * math.radians(window_degrees)
    return math.sin(half_arg) / half_arg if half_arg != 0 else 1.0


def _harmonic_fit(profile: AzimuthalProfile, l: int):
    """Least-squares c0 + A cos(m phi) + B sin(m phi) with m = 2|l|."""
    phi = np.radians(profile.angles_deg)
    m = 2 * abs(l)
    design = np.column_stack([np.ones_like(phi), np.cos(m * phi), np.sin(m * phi)])
    coeffs, _, _, _ = np.linalg.lstsq(design, profile.values, rcond=None)
    residuals = profile.values - design @ coeffs
    dof = max(len(profile) - 3, 1)
    sigma_sq = float(residuals @ residuals) / dof
    covariance = sigma_sq * np.linalg.inv(design.T @ design)
    return coeffs, covariance


def fringe_visibility(
    profile: AzimuthalProfile,
    l: int,
    method: str = "fit",
) -> tuple[float, float]:
    """Fringe visibility of a petal profile and its 1-sigma uncertainty.

    ``method="fit"`` performs a least-squares fit of
    c0 + c1 cos(2|l| phi + delta) and returns |c1| / c0 (window
    attenuation removed), clamped to [0, 1], with the uncertainty
    propagated from the fit residuals.  ``method="extrema"`` returns
    (max - min) / (max + min) of the profile with the same window
    correction; it is simpler but biased upward by noise and reads low
    when the petal crests fall between bin centers.

    Raises:
        DegenerateProfile: for an all-zero profile or a non-positive
            fitted baseline.
    """
    if abs(l) < 1:
        raise ValueError("petal analysis needs |l| >= 1")
    values = profile.values
    if not np.any(values > 0.0):
        raise DegenerateProfile("profile carries no intensity")
    attenuation = _window_attenuation(l, profile.window_degrees)

    if method == "extrema":
        top = float(values.max())
        bottom = float(values.min())
        if top + bottom <= 0.0:
            raise DegenerateProfile("profile extrema sum to zero")
        raw = (top - bottom) / (top + bottom)
        visibility = min(raw / attenuation, 1.0)
        err_top = float(profile.stderr[int(np.argmax(values))])
        err_bottom = float(profile.stderr[int(np.argmin(values))])
        # Propagate the two bin uncertainties through (max-min)/(max+min).
        denom = (top + bottom) ** 2
        uncertainty = (
            2.0
            * math.hypot(bottom * err_top, top * err_bottom)
            / denom
            / attenuation
        )
        return visibility, uncertainty
    if method != "fit":
        raise ValueError(f"unknown method {method!r}")

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


def predictability_from_images(
    plus_image: np.ndarray | FieldImage,
    minus_image: np.ndarray | FieldImage,
) -> float:
    """Predictability from two mode-attributed intensity images.

    The images hold the intensity attributable to the +l and -l content
    of the port under analysis (e.g. recorded arm by arm); their total
    counts play the role of I+ and I-.
    """
    def total(img) -> float:
        if isinstance(img, FieldImage):
            return img.power()
        return float(np.sum(np.asarray(img, dtype=float)))

    return predictability_from_arm_powers(total(plus_image), total(minus_image))


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


@dataclass
class PortMeasurement:
    """Camera frames of both output ports and the measures they give.

    ``visibility`` and its 1-sigma ``uncertainty`` come from the V port,
    ``predictability`` from the H port; each is NaN when its port is dark
    or its profile degenerate, and ``petal_count`` is 0 when V is NaN.
    """

    v_image: np.ndarray
    h_image: np.ndarray
    v_profile: AzimuthalProfile
    h_profile: AzimuthalProfile
    visibility: float
    uncertainty: float
    predictability: float

    @property
    def sum_of_squares(self) -> float:
        return self.visibility**2 + self.predictability**2

    @property
    def petal_count(self) -> int:
        return 0 if math.isnan(self.visibility) else count_petals(self.v_profile)


def measure_ports(
    synthesis: PortSynthesis,
    photons: float | None,
    readout_sigma: float,
    seed: int,
    row: int = 0,
) -> PortMeasurement:
    """Render both ports of ``synthesis`` and measure V and P on them.

    V is fitted on the V-port profile.  P comes from the H-port profile
    or, for a nonzero flip impurity, from the H port's +l and -l frames,
    as an arm-by-arm acquisition records them.  A port whose profile mean
    is below ``P_MIN`` times the sum of both ports' profile means is dark:
    its measure is NaN without a fit, so round-off light reads as
    undefined, not as a value.  Frame ``port`` (0 V,
    1 H, 2 H +l, 3 H -l) draws its noise from
    ``SeedSequence(seed, spawn_key=(row, port))``.  ``EmptyBin`` depends
    on the grid alone and propagates.
    """

    def render(fields: list[FieldImage], port: int) -> np.ndarray:
        seeds = np.random.SeedSequence(seed, spawn_key=(row, port))
        return optics.render_image(fields, optics.NoiseModel(photons, readout_sigma, seeds))

    l, grid = synthesis.l, synthesis.grid
    v_image = render(synthesis.v_fields, 0)
    v_profile = port_profile(v_image, grid)
    h_image = render(synthesis.h_fields, 1)
    h_profile = port_profile(h_image, grid)
    v_mean, h_mean = v_profile.values.mean(), h_profile.values.mean()
    floor = P_MIN * (v_mean + h_mean)
    visibility = uncertainty = predictability = math.nan
    if v_mean >= floor:
        try:
            visibility, uncertainty = fringe_visibility(v_profile, l)
        except DegenerateProfile:
            pass
    if h_mean >= floor:
        try:
            if synthesis.h_impurity is not None:
                # The unflipped impurity light is the H port's only +l content.
                predictability = predictability_from_images(
                    render([synthesis.h_impurity], 2), render([synthesis.h_main], 3)
                )
            else:
                predictability = predictability_from_profile(h_profile, l)
        except (DegenerateProfile, ZeroIntensity):
            pass
    return PortMeasurement(
        v_image, h_image, v_profile, h_profile, visibility, uncertainty, predictability
    )


def analytic_ports(synthesis: PortSynthesis) -> tuple[float, float]:
    """Closed-form (V, P) that ``measure_ports`` estimates; NaN for a dark port.

    The impurity light adds to the V port in intensity, scaling the
    contrast by sqrt(1 - eps^2); the H-port mode powers give |1 - 2 eps^2|.
    """
    params = synthesis.params
    visibility = duality.conditional_visibility_v(params.theta, params.alpha)
    try:
        predictability = predictability_from_arm_powers(
            synthesis.h_plus_power, synthesis.h_minus_power
        )
    except ZeroIntensity:
        predictability = math.nan
    return visibility * math.sqrt(1.0 - synthesis.flip_impurity**2), predictability


def profile_to_csv(profile: AzimuthalProfile, path: str | Path) -> None:
    """CSV export with columns angle_deg, mean_intensity, stderr."""
    lines = ["angle_deg,mean_intensity,stderr"]
    for angle, value, err in zip(profile.angles_deg, profile.values, profile.stderr):
        lines.append(f"{format(angle, '.17g')},{format(value, '.17g')},{format(err, '.17g')}")
    Path(path).write_text("\n".join(lines) + "\n")


def analysis_report_json(
    path: str | Path,
    visibility: float,
    uncertainty: float,
    predictability: float,
    method: str,
    params: dict,
    extra: dict | None = None,
) -> None:
    """JSON analysis report with the documented keys."""
    report = {
        "visibility": visibility,
        "uncertainty": uncertainty,
        "predictability": predictability,
        "method": method,
        "params": params,
    }
    if extra:
        report.update(extra)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
