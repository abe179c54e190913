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

import math
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import optics
from .errors import P_MIN, DegenerateProfile, EmptyBin, ZeroIntensity
from .optics import GridSpec, NoiseModel, PortSynthesis

INTENSITY_EPS = 1e-300  # floor below which a total intensity is "zero"
PORT_ANNULUS = (0.5, 2.5)  # radii in beam-waist units enclosing the ring
PORT_WINDOW = 3.0  # degrees of each angular window of a port profile


def _hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each pair of elements, evaluated on Python numbers.

    ``math.hypot`` is CPython's own algorithm, which rounds differently from
    the C library's ``hypot`` that ``np.hypot`` calls.  The other scalar steps
    have exact array forms that call the same C function: ``np.float_power(x,
    2.0)`` for ``x**2`` (``pow``; numpy's ``**`` and ``np.square`` multiply)
    and ``np.hypot(z.real, z.imag)`` for ``abs(z)``.
    """
    return np.array(list(map(math.hypot, a.tolist(), b.tolist())))


def _bin_angles(n_bins: int) -> np.ndarray:
    """Centers in degrees of ``n_bins`` equal windows tiling [0, 360) from 0."""
    return np.arange(n_bins) * (360.0 / n_bins)


@dataclass
class AzimuthalProfile:
    """Mean intensity versus azimuthal angle.

    ``values`` are per-bin means of the pixel intensities and ``counts`` the
    number of contributing pixels; ``profile_to_csv`` forms the error of a
    mean from the two and the camera's noise model.  The bins tile [0, 360)
    from 0, so their number fixes ``window_degrees`` and the bin centers
    ``angles_deg``.  A stack of profiles on one set of bins holds ``values``
    as rows x bins; ``row(i)`` is its profile i, and ``row(mask)`` the stack
    of the rows a boolean mask picks.
    """

    values: np.ndarray
    counts: np.ndarray
    window_degrees = property(lambda self: 360.0 / len(self.counts))
    angles_deg = property(lambda self: _bin_angles(len(self.counts)))

    def __len__(self) -> int:
        return len(self.counts)

    def row(self, i: int | np.ndarray) -> AzimuthalProfile:
        return AzimuthalProfile(self.values[i], self.counts)


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

    def profile(self, sums: np.ndarray) -> AzimuthalProfile:
        """Profile from per-window sums of the pixel values."""
        return AzimuthalProfile(sums / self.counts, self.counts)


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
    does, and before any binning when the windows outnumber the pixels.
    """
    windows = 360.0 / window_degrees  # inf for a subnormal window
    cx, cy = center
    # One row of x offsets and one column of y offsets; only the
    # comparisons below span the whole frame.
    dx = np.arange(shape[1]) - cx
    dy = np.arange(shape[0])[:, None] - cy
    radius = np.hypot(dx, dy)
    mask = (radius >= r_min) & (radius < r_max)
    rows, cols = np.nonzero(mask)
    if not windows <= len(rows):
        raise EmptyBin(f"{windows:.3g} windows of {window_degrees:g} deg outnumber the "
                       f"annulus's {len(rows)} pixels; widen the annulus or the window")
    n_bins = int(round(windows))
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
    pixels.  ``image`` must be a real 2-D array, and ``window_degrees`` a
    positive divisor of 360.  Each bin holds the mean intensity
    of the pixels whose center falls inside the annulus and the window; a
    window without any pixels, as when the windows outnumber the annulus
    pixels, raises ``EmptyBin``.
    """
    if np.iscomplexobj(image):
        raise ValueError("expected a real intensity image, got a complex one")
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("expected a 2-D intensity image")
    if not 0 < window_degrees <= 360:
        raise ValueError(f"window of {window_degrees} deg is not positive or exceeds 360 deg")
    n_bins = 360.0 / window_degrees  # inf for a subnormal window; annulus_plan rejects it
    if n_bins < math.inf and abs(n_bins - round(n_bins)) > 1e-9:
        raise ValueError(f"window of {window_degrees} deg does not tile 360 deg")
    if not 0 <= r_min < r_max:
        raise ValueError("need 0 <= r_min < r_max")

    plan = annulus_plan(image.shape, tuple(center), r_min, r_max, float(window_degrees))
    return plan.profile(plan.window_sums(image.take(plan.pixels)))


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
    return math.sin(half_arg) / half_arg


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


def _harmonic_fits(values: np.ndarray, l: int, covariance: bool = True) -> tuple:
    """Least-squares c0 + A cos(m phi) + B sin(m phi), m = 2|l|, of each row of
    ``values`` (rows x bins): the coefficients (rows x 3) and their
    covariances (rows x 3 x 3), or None unless ``covariance``."""
    design, pinv, inv_normal = fit_operator(values.shape[1], abs(l))
    # Stacked matrix-vector products, one BLAS product per row: a row's
    # result does not depend on the other rows.
    coeffs = (pinv @ values[:, :, np.newaxis])[:, :, 0]
    if not covariance:
        return coeffs, None
    residuals = values - (design @ coeffs[:, :, np.newaxis])[:, :, 0]
    dof = max(values.shape[1] - 3, 1)
    sigma_sq = (residuals[:, np.newaxis, :] @ residuals[:, :, np.newaxis])[:, 0, 0] / dof
    return coeffs, sigma_sq[:, np.newaxis, np.newaxis] * inv_normal


def _fringe_rows(values: np.ndarray, l: int, uncertainty: bool = True) -> tuple:
    """``fringe_visibility`` of each row of ``values`` (rows x bins): the
    visibilities, their uncertainties (None unless ``uncertainty``) and, per row,
    why it has none (None when it has one); a row without one reads NaN."""
    if not optics._is_integer(l):
        raise ValueError(f"OAM charge l must be an integer, got {l!r}")
    if abs(l) < 1:
        raise ValueError("petal analysis needs |l| >= 1")
    n_rows, n_bins = values.shape
    visibility, sigma = np.full((2, n_rows), math.nan)
    lit = np.any(values > 0.0, axis=1)
    reasons = [None if row_lit else "profile carries no intensity" for row_lit in lit.tolist()]
    rows = np.flatnonzero(lit)
    try:
        coeffs, covariance = _harmonic_fits(values[rows], l, uncertainty)
    except DegenerateProfile as exc:
        for i in rows.tolist():
            reasons[i] = str(exc)
        return visibility, sigma if uncertainty else None, reasons
    c0, a, b = coeffs.T
    amplitude = _hypot(a, b)
    scale = np.where(amplitude > 0.0, amplitude, 1.0) * c0
    square = np.float_power(c0, 2.0)
    # The gradient divides by scale and c0**2: a baseline that is not positive, or
    # whose products underflow to 0 (1/c0 overflows only where c0**2 does), has none,
    # so its V reads NaN whether or not the uncertainty is formed.
    fitted = (scale > 0.0) & (square > 0.0)
    for i, c in zip(rows[~fitted].tolist(), c0[~fitted].tolist()):
        reasons[i] = (f"fitted baseline {c!r} is not positive" if not c > 0.0
                      else f"fitted baseline {c!r} underflows the uncertainty's gradient")
    rows = rows[fitted]
    c0, a, b, amplitude, scale, square = np.stack((c0, a, b, amplitude, scale, square))[:, fitted]

    attenuation = _window_attenuation(l, 360.0 / n_bins)
    visibility[rows] = np.minimum(amplitude / (attenuation * c0), 1.0)
    if not uncertainty:
        return visibility, None, reasons
    fringe = amplitude > 0.0
    grad = np.where(
        fringe[:, np.newaxis],
        np.column_stack((-amplitude / square, a / scale, b / scale)),
        np.column_stack((np.zeros_like(c0), 1.0 / c0, 1.0 / c0)) / math.sqrt(2.0),
    )
    spread = (grad[:, np.newaxis, :] @ covariance[fitted] @ grad[:, :, np.newaxis])[:, 0, 0]
    sigma[rows] = np.sqrt(spread) / attenuation
    return visibility, sigma, reasons


def _fit(profile: AzimuthalProfile, l: int, uncertainty: bool) -> tuple:
    """``fringe_visibility``, with None for the uncertainty unless ``uncertainty``."""
    if profile.values.ndim == 2:
        visibility, sigma, _ = _fringe_rows(profile.values, l, uncertainty)
        return visibility, sigma
    (visibility,), sigma, (reason,) = _fringe_rows(profile.values[np.newaxis], l, uncertainty)
    if reason is not None:
        raise DegenerateProfile(reason)
    return float(visibility), None if sigma is None else float(sigma[0])


def fringe_visibility(
    profile: AzimuthalProfile, l: int
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Fringe visibility of a petal profile and its 1-sigma uncertainty.

    A least-squares fit of c0 + c1 cos(2|l| phi + delta) gives
    |c1| / c0 (window attenuation removed), clamped to [0, 1], with the
    uncertainty propagated from the fit residuals.  A stack of profiles
    gives one array of each, with NaN for a row that has none.

    Raises:
        DegenerateProfile: for a single profile that is all zero, whose
            harmonic cannot be fitted on its windows (see
            ``fit_operator``), or whose fitted baseline is not positive.
    """
    return _fit(profile, l, uncertainty=True)


def predictability_from_arm_powers(i_plus: float, i_minus: float) -> float:
    """|I+ - I-| / (I+ + I-) for two finite, nonnegative mode-attributable powers;
    a bool is no power."""
    if any(isinstance(p, bool | np.bool_) or not 0.0 <= p < math.inf for p in (i_plus, i_minus)):
        raise ValueError(f"powers must be finite and nonnegative, got {i_plus!r} and {i_minus!r}")
    total = i_plus + i_minus
    if total <= INTENSITY_EPS:
        raise ZeroIntensity("total intensity is zero; ratio undefined")
    return abs(i_plus - i_minus) / total


def predictability_from_images(plus_image: np.ndarray, minus_image: np.ndarray) -> float:
    """Predictability from two mode-attributed intensity images, of the +l
    content and of the -l content of the port under analysis, each recorded
    alone; their total counts play the role of I+ and I-."""
    return predictability_from_arm_powers(float(np.sum(plus_image)), float(np.sum(minus_image)))


def predictability_from_profile(profile: AzimuthalProfile, l: int) -> float | np.ndarray:
    """Predictability of a coherent port inferred from its own profile.

    A coherent field a u(+l) + b u(-l) has fringe visibility
    V = 2|a||b| / (|a|^2 + |b|^2), so its mode powers give
    P = ||a|^2 - |b|^2| / (|a|^2 + |b|^2) = sqrt(1 - V^2), with V from
    ``fringe_visibility``.  A fringeless port gives 1, balanced petals 0.
    A stack of profiles gives an array, NaN where V is.
    """
    visibility, _ = _fit(profile, l, uncertainty=False)
    predictability = _coherent_predictability(np.atleast_1d(visibility))
    return predictability if profile.values.ndim == 2 else float(predictability[0])


def _coherent_predictability(visibility: np.ndarray) -> np.ndarray:
    """sqrt(1 - V^2) of each coherent port's fitted V."""
    return np.sqrt(1.0 - np.float_power(visibility, 2.0))


def count_petals(profile: AzimuthalProfile) -> int:
    """Number of azimuthal intensity lobes above the mid-level of one profile.

    Counts the circular runs of bins whose value exceeds the midpoint of
    the profile extrema; robust against per-bin noise well below the
    fringe amplitude.  A stack of profiles raises ``ValueError``.
    """
    values = profile.values
    if values.ndim != 1:
        raise ValueError(f"count_petals needs one profile, got values of shape {values.shape}")
    above = values > 0.5 * (values.max() + values.min())
    # A run starts at each bin above mid whose circular predecessor is not.
    return int(np.count_nonzero(above & ~np.roll(above, 1)))


@lru_cache(maxsize=8)
def _mode_moments(l: int, grid: GridSpec) -> tuple[AnnulusPlan, np.ndarray]:
    """Plan of ``port_profile``'s annulus and per-window sums over it of the
    mode terms |u+|^2, |u-|^2, Re(u+ conj(u-)) and Im(u+ conj(u-)) (4 rows)."""
    plan = port_plan(grid)
    u_abs = optics._mode_rows(abs(l), grid, plan.pixels)
    # u(-l) = conj u(|l|): both modes have the power |u(|l|)|^2, and u+ conj(u-) is
    # u(|l|)^2 for l > 0 and its conjugate for l < 0.
    power = np.abs(u_abs) ** 2
    cross = optics._signed(u_abs * u_abs, l)
    terms = [power, power, cross.real, cross.imag]
    return plan, np.stack([plan.window_sums(term) for term in terms])


def moment_profile(synthesis: PortSynthesis, port: str) -> AzimuthalProfile:
    """Stacked ``port_profile`` of the noiseless ``port`` ("v" or "h") of every
    row of ``synthesis`` (rows x bins), without a frame.

    The port intensity is a weighted sum of the four mode terms, so each row's
    window sums are its weights times the cached per-window sums of those terms,
    one BLAS vector-matrix product per row as in ``_harmonic_fits``.  Each row
    equals the profile of its rendered frame up to float round-off.
    """
    plan, sums = _mode_moments(synthesis.l, synthesis.grid)
    return plan.profile((synthesis.intensity_weights(port)[:, np.newaxis, :] @ sums)[:, 0])


@dataclass
class PortRows:
    """Both ports' stacked profiles (rows x bins) of charge ``l`` and the measures
    of each row: ``visibility`` and its 1-sigma ``uncertainty`` from the V port and
    ``predictability`` from the H port, each NaN for a dark port or a degenerate
    profile.  ``frame(k, port)`` is frame ``port`` (0 V, 1 H) of row k, rendered
    on first access."""

    v_profile: AzimuthalProfile
    h_profile: AzimuthalProfile
    visibility: np.ndarray
    predictability: np.ndarray
    frame: Callable[[int, int], np.ndarray]
    l: int

    @cached_property
    def uncertainty(self) -> np.ndarray:
        """``fringe_visibility``'s uncertainty of each row whose V is not NaN, and NaN
        for the others; formed on first read, so a run that writes none fits none."""
        uncertainty = np.full(len(self.visibility), math.nan)
        rows = ~np.isnan(self.visibility)
        if rows.any():
            uncertainty[rows] = fringe_visibility(self.v_profile.row(rows), self.l)[1]
        return uncertainty

    @property
    def sum_of_squares(self) -> np.ndarray:
        return np.float_power(self.visibility, 2.0) + np.float_power(self.predictability, 2.0)

    def petal_count(self, k: int) -> int:
        """``count_petals`` of row k's V profile; 0 where its V is NaN."""
        return 0 if math.isnan(self.visibility[k]) else count_petals(self.v_profile.row(k))


def _lit_ports(synthesis: PortSynthesis) -> tuple[np.ndarray, ...]:
    """The V and H port powers of each row and whether each port is lit: a port
    below ``P_MIN`` times both ports' power is dark, so round-off light reads as
    undefined.  The modes have unit power, so a port's power is its first two weights."""
    v_power, h_power = (w[:, 0] + w[:, 1] for w in map(synthesis.intensity_weights, "vh"))
    floor = P_MIN * (v_power + h_power)
    return v_power, h_power, v_power >= floor, h_power >= floor


def measure_rows(synthesis: PortSynthesis, noise: NoiseModel, first_row: int = 0) -> PortRows:
    """Measure V and P on the two ports of each row of ``synthesis`` through
    the camera ``noise``.

    Row k is seeded as row ``first_row + k``: frame ``port`` (0 V, 1 H, 2 H +l,
    3 H -l) is ``render_image`` of ``noise`` with the key (first_row + k, port), drawn
    in row blocks of ``PortSynthesis.field_rows`` with the whole frame's stream order.
    For an ``exact`` noise model the profiles are one stacked product of the
    port weights with the cached mode moments, and a frame is rendered only
    when read; otherwise each row's V and H frames are rendered and binned in
    turn, and only the last row's stay cached.

    V is fitted on the V-port profiles, and its uncertainty is formed only when
    ``PortRows.uncertainty`` is first read, so a sweep forms none.  P comes from the
    H-port profile of a row whose H port has one nonzero component, and otherwise
    from the H port's +l and -l frames, as a mode-by-mode acquisition records them.
    Those two frames are drawn before any V or H frame and kept only as their 1x1
    bucket totals, the counts that ``predictability_from_images`` reads.  A port
    that ``_lit_ports`` calls dark on the port powers reads NaN without a fit, and
    so does a degenerate profile.  ``EmptyBin`` depends on the grid alone and
    propagates, and a ``first_row`` that is not a nonnegative integer raises
    ``ValueError``.
    """
    optics._check_index("first_row", first_row)
    l, grid, n_rows = synthesis.l, synthesis.grid, len(synthesis)
    h = synthesis.amplitudes["h"]

    def render(components: list[list[complex]], k: int, port: int) -> np.ndarray:
        return optics.render_image(lambda rows: synthesis.field_rows(components, rows),
                                   noise, (first_row + k, port))

    # The last row's frames stay, so a one-row measurement renders each once.
    @lru_cache(maxsize=2)
    def frame(k: int, port: int) -> np.ndarray:
        return render(synthesis.amplitudes["vh"[port]][k].tolist(), k, port)

    *_, v_lit, h_lit = _lit_ports(synthesis)
    coherent = h_lit & (np.count_nonzero(h.any(axis=2), axis=1) <= 1)
    visibility, predictability = np.full((2, n_rows), math.nan)
    # Frames 2 and 3 render an impure H port's components cut to their +l and -l parts.
    # P reads only their total counts, so each becomes its 1x1 bucket total as it is
    # drawn, and the row's P is read off the two before any V or H frame is drawn.
    for k in np.flatnonzero(h_lit & ~coherent).tolist():
        plus, minus = (render((h[k] * cut).tolist(), k, 2 + j).sum(keepdims=True)
                       for j, cut in enumerate(np.eye(2)))
        with suppress(ZeroIntensity):
            predictability[k] = predictability_from_images(plus, minus)
    if noise.exact:
        v_profile, h_profile = (moment_profile(synthesis, port) for port in "vh")
    else:
        binned = [[port_profile(frame(k, port), grid) for port in (0, 1)] for k in range(n_rows)]
        v_profile, h_profile = (AzimuthalProfile(np.stack([p.values for p in profiles]),
                                                 profiles[0].counts) for profiles in zip(*binned))

    # Each port's lit rows are fitted as one stack, and a port with none makes no fit.
    # V is read off the fit core without its uncertainty, which PortRows forms when read;
    # P's fit goes through the public function, so a profiler that wraps it sees the call.
    if v_lit.any():
        visibility[v_lit] = _fringe_rows(v_profile.values[v_lit], l, uncertainty=False)[0]
    if coherent.any():
        predictability[coherent] = predictability_from_profile(h_profile.row(coherent), l)
    return PortRows(v_profile, h_profile, visibility, predictability, frame, l)


def analytic_ports(synthesis: PortSynthesis) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless V and P of each row that ``measure_rows`` estimates, read off
    the port weights; NaN for a port that ``measure_rows`` counts as dark.

    V is the V port's petal contrast 2|sum a b*| / sum(|a|^2 + |b|^2) over its
    components (a, b), and P the H port's mode-power contrast |I+ - I-| / (I+ + I-).
    """
    w_v, w_h = (synthesis.intensity_weights(port) for port in "vh")
    v_power, h_power, v_lit, h_lit = _lit_ports(synthesis)
    visibility, predictability = np.full((2, len(synthesis)), math.nan)
    visibility[v_lit] = _hypot(w_v[v_lit, 2], w_v[v_lit, 3]) / v_power[v_lit]
    predictability[h_lit] = np.abs(w_h[h_lit, 0] - w_h[h_lit, 1]) / h_power[h_lit]
    return visibility, predictability


def write_csv(path: str | Path, columns: list[str], rows: np.ndarray | list[list[float]]) -> None:
    """CSV of a header row and ``rows``, every value formatted as ``%.17g``."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    body = (row * len(rows)) % tuple(np.ravel(rows).tolist())
    Path(path).write_text(",".join(columns) + "\n" + body)


def profile_to_csv(profile: AzimuthalProfile, path: str | Path, noise: NoiseModel) -> None:
    """CSV export with columns angle_deg, mean_intensity, poisson_stderr, of a
    profile of frames drawn through the camera ``noise``.

    ``poisson_stderr`` is the standard error of each window mean of Poisson
    counts with readout noise sigma_r, sqrt((mean + sigma_r^2) / count) in
    counts, and 0 for an ``exact`` frame, which has no statistical error.
    """
    error = (np.zeros_like(profile.values) if noise.exact
             else np.sqrt((profile.values + noise.readout_sigma**2) / profile.counts))
    write_csv(path, ["angle_deg", "mean_intensity", "poisson_stderr"],
              np.column_stack((profile.angles_deg, profile.values, error)))


def port_report(rows: PortRows, synthesis: PortSynthesis) -> dict:
    """The measured and analytic keys of ``report.json`` for row 0 of ``rows``,
    measured from ``synthesis``."""
    measured = (rows.visibility, rows.uncertainty, rows.predictability, rows.sum_of_squares)
    visibility, uncertainty, predictability, sum_squares = (float(x[0]) for x in measured)
    v_analytic, p_analytic = (float(value[0]) for value in analytic_ports(synthesis))
    return {"visibility": visibility, "uncertainty": uncertainty,
            "predictability": predictability, "method": "fit",
            "V_measured": visibility, "P_measured": predictability, "sum_squares": sum_squares,
            "V_analytic": v_analytic, "P_analytic": p_analytic,
            "sum_squares_analytic": v_analytic**2 + p_analytic**2,
            "petal_count": rows.petal_count(0)}


def analysis_report_json(path: str | Path, report: dict, params: dict) -> str:
    """``report`` and its ``params`` as ``optics.write_json`` at indent 2; returns the text."""
    return optics.write_json(path, {**report, "params": params}, indent=2)
