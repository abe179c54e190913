"""Scalar-field synthesis of the interferometer outputs and camera images.

Geometry and units
------------------
Fields live on a regular pixel grid.  Lengths are measured in units of
the beam waist w: a ``GridSpec`` with ``extent=4`` spans [-4w, 4w] across
its width.  The default camera is 512x512 with the beam centered between
the four central pixels, which keeps the grid exactly fourfold symmetric
about the beam axis.

Mode model
----------
A single-ring vortex mode of charge l is used for the OAM eigenmodes:

    u_l(r, phi) ~ (r/w)^|l| exp(-r^2/w^2) exp(i l phi)

normalized to unit power on the grid.  Opposite charges share the same
intensity ring, so every visibility/predictability result downstream is
independent of this envelope choice.

Interferometer model
--------------------
The upper arm carries amplitude cos(theta/2) of mode +l with vertical
polarization.  The lower arm carries sin(theta/2) of mode -l (the Dove
prism reverses handedness) with polarization cos(alpha/2) H +
sin(alpha/2) V.  The output polarizing beam splitter routes the H and V
components to two camera images.  An optional relative path phase rotates
the petal pattern without changing any power or visibility.

The Dove prism flip may be given a small impurity: a fraction of the
lower-arm amplitude keeps its original handedness and is treated as
incoherent with the flipped light (its intensity adds to the images, it
does not interfere).  This is the documented calibration knob used to
reproduce measured predictability values below 1; the default is 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import ChargeOutOfRange
from .qubit import StateParams

DEFAULT_OAM = 3
MAX_OAM = 32  # its ring radius sqrt(|l|/2) = 4 waists still fits GridSpec's default extent
DEFAULT_ANNULUS = (0.5, 2.5)  # radii in beam-waist units enclosing the ring
# Largest mean numpy's Generator.poisson accepts (its own bound, ~9.22e18).
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GridSpec:
    """Pixel raster and its mapping to physical beam coordinates.

    ``extent`` is the half-width in beam-waist units.  ``center`` is the
    sub-pixel beam center in pixel coordinates (x, y); the default sits
    midway between the central pixels.  Pixels are square with pitch
    2*extent/width; ``height`` only changes how many rows are rastered.
    """

    width: int = 512
    height: int = 512
    extent: float = 4.0
    center: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.width < 16 or self.height < 16:
            raise ValueError("grid must be at least 16x16 pixels")
        if not (self.extent > 0):
            raise ValueError("extent must be positive")

    @property
    def beam_center(self) -> tuple[float, float]:
        if self.center is not None:
            return self.center
        return ((self.width - 1) / 2.0, (self.height - 1) / 2.0)

    @property
    def pixel_size(self) -> float:
        """Pixel pitch in beam-waist units (square pixels)."""
        return 2.0 * self.extent / self.width

    @property
    def pixel_area(self) -> float:
        return self.pixel_size**2

    def waist_to_pixels(self, radius_w: float) -> float:
        return radius_w / self.pixel_size


@lru_cache(maxsize=8)
def _grid_coords(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) pixel-center coordinates in waist units, cached per grid."""
    cx, cy = grid.beam_center
    x = (np.arange(grid.width) - cx) * grid.pixel_size
    y = (np.arange(grid.height) - cy) * grid.pixel_size
    return np.meshgrid(x, y)


@dataclass
class FieldImage:
    """Complex scalar field of one polarization component on a grid."""

    data: np.ndarray
    grid: GridSpec

    def power(self) -> float:
        """Total power sum |amplitude|^2 * pixel area."""
        return float(np.sum(np.abs(self.data) ** 2) * self.grid.pixel_area)

    def intensity(self) -> np.ndarray:
        return np.abs(self.data) ** 2


@dataclass(frozen=True)
class NoiseModel:
    """Camera model: Poisson shot noise plus Gaussian readout noise.

    ``photon_budget`` is the expected number of detected photons per unit
    of optical power, i.e. a unit-power field integrates to this many
    counts.  ``None`` (or infinity) renders the exact intensity with no
    noise.  ``readout_sigma`` is the standard deviation of the additive
    readout noise in photon counts; negative pixel values are clamped to
    zero.  ``seed`` is anything ``numpy.random.default_rng`` accepts;
    identical seed and inputs give bit-identical images.
    """

    photon_budget: float | None = None
    readout_sigma: float = 0.0
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        if self.photon_budget is not None and not self.photon_budget >= 0:
            raise ValueError("photon_budget must be >= 0")
        if self.readout_sigma < 0:
            raise ValueError("readout_sigma must be >= 0")

    @property
    def noiseless(self) -> bool:
        return self.photon_budget is None or math.isinf(self.photon_budget)


def _check_charge(l: int) -> None:
    if abs(l) > MAX_OAM:
        raise ChargeOutOfRange(
            f"OAM charge {l} is outside the supported range |l| <= optics.MAX_OAM = {MAX_OAM}"
        )


@lru_cache(maxsize=32)
def _mode_data(l: int, grid: GridSpec) -> np.ndarray:
    _check_charge(l)
    X, Y = _grid_coords(grid)
    r = np.hypot(X, Y)
    envelope = r ** abs(l) * np.exp(-(r**2)) if l != 0 else np.exp(-(r**2))
    data = envelope * np.exp(1j * l * np.arctan2(Y, X))
    norm = math.sqrt(np.sum(np.abs(data) ** 2) * grid.pixel_area)
    data = data / norm
    data.setflags(write=False)
    return data


def oam_mode(l: int, grid: GridSpec = GridSpec()) -> FieldImage:
    """Unit-power vortex mode of charge ``l`` (Gaussian for l = 0).

    Raises ``ChargeOutOfRange`` for |l| > ``MAX_OAM``.
    """
    return FieldImage(data=_mode_data(int(l), grid).copy(), grid=grid)


@dataclass
class PortSynthesis:
    """Interferometer outputs with per-handedness bookkeeping.

    ``h_amplitudes``/``v_amplitudes`` hold each port as (p, m, e) on the
    cached modes u+ = u(+l) and u- = u(-l): the coherent field p u+ + m u-
    and the unflipped lower-arm light e u+, which adds to the images in
    intensity, not amplitude.  Their fields ``h_main``/``v_main`` and
    ``h_impurity``/``v_impurity`` (None for a zero impurity) are built on
    first access.  The modes have unit power, so the first two
    ``intensity_weights(port)`` are the powers attributable to the +l and
    -l modes in a port, i.e. what an arm-blocking power measurement would
    record.
    """

    params: StateParams
    l: int
    grid: GridSpec
    flip_impurity: float
    h_amplitudes: tuple[complex, complex, float]
    v_amplitudes: tuple[complex, complex, float]

    def _coherent(self, amplitudes: tuple[complex, complex, float]) -> FieldImage:
        plus, minus, _ = amplitudes
        data = minus * _mode_data(-self.l, self.grid)
        if plus != 0:
            data = plus * _mode_data(self.l, self.grid) + data
        return FieldImage(data, self.grid)

    def _impurity(self, amplitudes: tuple[complex, complex, float]) -> FieldImage | None:
        if self.flip_impurity == 0.0:
            return None
        return FieldImage(amplitudes[2] * _mode_data(self.l, self.grid), self.grid)

    h_main = cached_property(lambda self: self._coherent(self.h_amplitudes))
    v_main = cached_property(lambda self: self._coherent(self.v_amplitudes))
    h_impurity = cached_property(lambda self: self._impurity(self.h_amplitudes))
    v_impurity = cached_property(lambda self: self._impurity(self.v_amplitudes))

    h_fields = property(lambda self: [f for f in (self.h_main, self.h_impurity) if f])
    v_fields = property(lambda self: [f for f in (self.v_main, self.v_impurity) if f])

    def intensity_weights(self, port: str) -> np.ndarray:
        """Noiseless intensity |p u+ + m u-|^2 + |e u+|^2 of ``port`` ("v" or
        "h") as weights on |u+|^2, |u-|^2, Re(u+ conj(u-)), Im(u+ conj(u-))."""
        plus, minus, impurity = getattr(self, f"{port}_amplitudes")
        cross = complex(plus * np.conj(minus))
        return np.array([abs(plus) ** 2 + impurity**2, abs(minus) ** 2,
                         2.0 * cross.real, -2.0 * cross.imag])


def synthesize_ports(
    params: StateParams,
    l: int = DEFAULT_OAM,
    grid: GridSpec = GridSpec(),
    path_phase: float = 0.0,
    flip_impurity: float = 0.0,
) -> PortSynthesis:
    """Full interferometer synthesis including the impurity bookkeeping.

    Raises ``ChargeOutOfRange`` for |l| > ``MAX_OAM``.
    """
    _check_charge(l)  # up front: the modes are built only when a field is read
    if not 0.0 <= flip_impurity < 1.0:
        raise ValueError("flip_impurity must be in [0, 1)")
    a = math.cos(params.theta / 2)  # upper arm, mode +l, polarization V
    lower = math.sin(params.theta / 2)
    b = lower * math.cos(params.alpha / 2)  # lower arm H component
    c = lower * math.sin(params.alpha / 2)  # lower arm V component
    phase = np.exp(1j * path_phase)
    eps = flip_impurity
    flip = math.sqrt(1.0 - eps**2)

    return PortSynthesis(
        params=params,
        l=l,
        grid=grid,
        flip_impurity=eps,
        # H output: lower-arm light only, handedness flipped.
        h_amplitudes=(0.0, b * flip * phase, b * eps),
        # V output: upper arm interferes with the flipped lower-arm light.
        v_amplitudes=(a, c * flip * phase, c * eps),
    )


def simulate_interferometer(
    params: StateParams,
    l: int = DEFAULT_OAM,
    grid: GridSpec = GridSpec(),
    path_phase: float = 0.0,
) -> tuple[FieldImage, FieldImage]:
    """Ideal interferometer: (H-port field, V-port field).

    The two ports carry total power 1; the H port holds the single mode
    -l with power sin^2(theta/2) cos^2(alpha/2), the V port the coherent
    superposition of +l and -l that produces the petal pattern.
    """
    syn = synthesize_ports(params, l=l, grid=grid, path_phase=path_phase)
    return syn.h_main, syn.v_main


def render_image(
    fields: FieldImage | list[FieldImage],
    noise: NoiseModel = NoiseModel(),
) -> np.ndarray:
    """Camera intensity image of one or more mutually incoherent fields.

    Every field adds to the image in intensity; a coherent superposition
    has to be one ``FieldImage`` already, as the port fields of
    ``synthesize_ports`` are.

    Noiseless rendering returns the exact summed |amplitude|^2.  With a
    finite photon budget the intensity is scaled to expected counts
    (budget x power), Poisson-sampled per pixel, readout noise is added,
    and the result is clamped at zero.  A budget that puts more expected
    counts in one pixel than the Poisson sampler accepts raises
    ``ValueError``.
    """
    if isinstance(fields, FieldImage):
        fields = [fields]
    if not fields:
        raise ValueError("render_image needs at least one field")
    grid = fields[0].grid
    for f in fields:
        if f.grid != grid:
            raise ValueError("all fields must share one GridSpec")

    intensity = np.zeros((grid.height, grid.width), dtype=float)
    for f in fields:
        intensity += np.abs(f.data) ** 2

    if noise.noiseless:
        if noise.readout_sigma == 0.0:
            return intensity
        rng = np.random.default_rng(noise.seed)
        noisy = intensity + rng.normal(0.0, noise.readout_sigma, intensity.shape)
        return np.clip(noisy, 0.0, None)

    expected_counts = intensity * grid.pixel_area * noise.photon_budget
    peak = float(expected_counts.max())
    if peak > POISSON_LAM_MAX:
        raise ValueError(
            f"photon budget {noise.photon_budget:g} puts {peak:.3g} expected counts "
            f"in one pixel, above the Poisson sampler's limit of {POISSON_LAM_MAX:.3g}"
        )
    rng = np.random.default_rng(noise.seed)
    counts = rng.poisson(expected_counts).astype(float)
    if noise.readout_sigma > 0.0:
        counts += rng.normal(0.0, noise.readout_sigma, counts.shape)
    return np.clip(counts, 0.0, None)


def calibrated_operating_point(
    v_target: float = 0.93,
    p_target: float = 0.98,
    alpha: float = 0.85 * math.pi,
) -> tuple[StateParams, float]:
    """Preparation angles and flip impurity reproducing measured values.

    This is a calibration choice, not derived physics: the handedness
    impurity eps is set so the H-port mode powers give predictability
    1 - 2 eps^2 = ``p_target``, and theta is solved (at the given alpha,
    taking the faint-H branch) so the V-port fringe visibility
    2 a c sqrt(1 - eps^2) / (a^2 + c^2) equals ``v_target``.
    """
    if not 0.0 < p_target <= 1.0:
        raise ValueError("p_target must be in (0, 1]")
    eps = math.sqrt((1.0 - p_target) / 2.0)
    v_ideal = v_target / math.sqrt(1.0 - eps**2)
    if not 0.0 < v_ideal < 1.0:
        raise ValueError("targets are outside the reachable range")
    s = math.sin(alpha / 2)
    if s <= 0.0:
        raise ValueError("alpha must give a nonzero lower-arm V component")
    # V_ideal = 2 t s / (1 + t^2 s^2) for t = tan(theta/2); smaller root
    # puts most of the light in the V port (faint H output).
    t = (1.0 - math.sqrt(1.0 - v_ideal**2)) / (v_ideal * s)
    theta = 2.0 * math.atan(t)
    return StateParams(theta=theta, alpha=alpha), eps


def write_pfm(path: str | Path, image: np.ndarray) -> None:
    """Grayscale portable float map (PFM, little-endian float32)."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 2:
        raise ValueError("PFM export expects a 2-D image")
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{image.shape[1]} {image.shape[0]}\n".encode())
        fh.write(b"-1.0\n")  # negative scale marks little-endian data
        fh.write(np.flipud(image).astype("<f4").tobytes())  # rows bottom-up


def write_pgm16(path: str | Path, image: np.ndarray, scale: float | None = None) -> float:
    """16-bit binary PGM raster; returns the counts-per-level scale used.

    ``scale`` maps image values to levels (value/scale -> [0, 65535]);
    by default the image maximum maps to 65535.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("PGM export expects a 2-D image")
    peak = float(image.max()) if image.size else 0.0
    if scale is None:
        scale = peak / 65535.0 if peak > 0 else 1.0
    levels = np.clip(np.round(image / scale), 0, 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"{image.shape[1]} {image.shape[0]}\n".encode())
        fh.write(b"65535\n")
        fh.write(levels.tobytes())
    return scale


def write_metadata(
    path: str | Path,
    params: StateParams,
    l: int,
    grid: GridSpec,
    noise: NoiseModel,
    extra: dict | None = None,
) -> None:
    """JSON sidecar describing how the neighbouring images were produced."""
    meta = {
        "theta": params.theta,
        "alpha": params.alpha,
        "oam_charge": l,
        "grid": {
            "width": grid.width,
            "height": grid.height,
            "extent": grid.extent,
            "center": list(grid.beam_center),
        },
        "noise": {
            "photon_budget": noise.photon_budget,
            "readout_sigma": noise.readout_sigma,
            "seed": noise.seed,
        },
    }
    if extra:
        meta.update(extra)
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
