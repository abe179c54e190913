"""Scalar-field synthesis of the interferometer outputs and camera images.

Geometry and units
------------------
Fields live on one square camera, ``GridSpec(size)``: N x N pixels
spanning [-4w, 4w] (``EXTENT``) on both axes in units of the beam waist
w, with the beam centered between the four central pixels, which keeps
the grid exactly fourfold symmetric about the beam axis.  The default
camera is 512x512.  One ``NoiseModel`` holds a run's photon budget,
readout noise and seed; its ``exact`` frames carry no noise at all.

Mode model
----------
A single-ring vortex mode of charge l is used for the OAM eigenmodes:

    u_l(r, phi) ~ (r/w)^|l| exp(-r^2/w^2) exp(i l phi)

normalized to unit power on the grid.  Opposite charges share the same
intensity ring, so every visibility/predictability result downstream is
independent of this envelope choice.  Only u(|l|) is formed, by ``_mode_rows``
in blocks of ``RENDER_BLOCK_ROWS`` rows, on the pixels it is asked for; u(-l) is
read off it as its exact conjugate.  The rendered frames read the cached
whole-grid u(|l|) of ``_mode_data``, while the noiseless moment sums of ``fringes``
ask for the annulus pixels only, so a noiseless sweep holds no whole-grid mode.

Interferometer model
--------------------
Each output port of the polarizing beam splitter is one polarization
branch of the prepared state, i.e. one column of ``qubit``'s amplitude
matrix A[oam, pol]: port "h" is column 0 and port "v" column 1.  A
column's row 0 is the upper arm's amplitude of mode +l and its row 1 the
lower arm's amplitude of mode -l (the Dove prism reverses handedness).
A ``PortSynthesis`` stores each port as mutually incoherent components,
pairs of amplitudes on the modes (+l, -l), of which the column is the
first.  An optional relative path phase on the lower arm rotates the
petal pattern without changing any power or visibility.

The Dove prism flip may be given a small impurity: a fraction of the
lower-arm amplitude keeps its original handedness, +l, and is a second
component (its intensity adds to the images, it does not interfere).
This is the documented calibration knob used to reproduce measured
predictability values below 1; the default 0 adds no component.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import ChargeOutOfRange
from .qubit import StateParams, _check_index, _is_integer

DEFAULT_OAM = 3
EXTENT = 4.0  # half-width of every camera in beam-waist units
MAX_OAM = 32  # its ring radius sqrt(|l|/2) = 4 waists still fits the camera's EXTENT
CALIBRATED_PHOTONS = 1e6  # photon budget of the calibrated_operating_point() images
RENDER_BLOCK_ROWS = 32  # frame rows rendered at a time, so a block's fields stay in cache
# Largest mean numpy's Generator.poisson accepts (its own bound, ~9.22e18).
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GridSpec:
    """Square camera of ``size`` x ``size`` pixels spanning +-``EXTENT`` waists.

    The beam sits midway between the central pixels; pixels are square
    with pitch 2*EXTENT/size.
    """

    size: int = 512

    def __post_init__(self) -> None:
        if not isinstance(self.size, int | np.integer) or self.size < 16:
            raise ValueError(f"grid size {self.size!r} must be an integer, at least 16x16 pixels")

    @property
    def beam_center(self) -> tuple[float, float]:
        """(x, y) of the beam axis in pixel coordinates."""
        return ((self.size - 1) / 2.0,) * 2

    @property
    def pixel_size(self) -> float:
        """Pixel pitch in beam-waist units (square pixels)."""
        return 2.0 * EXTENT / self.size

    @property
    def pixel_area(self) -> float:
        return self.pixel_size**2

    def waist_to_pixels(self, radius_w: float) -> float:
        return radius_w / self.pixel_size


@dataclass(frozen=True)
class NoiseModel:
    """Camera model: Poisson shot noise plus Gaussian readout noise.

    ``photon_budget`` is the expected number of detected photons per unit
    of optical power, i.e. a unit-power field integrates to this many
    counts; ``inf`` (the default) gives ``exact`` frames with no noise.
    ``readout_sigma``, the standard deviation of the additive readout noise,
    is in photon counts below the ``POISSON_LAM_MAX`` ceiling, so a nonzero
    one needs a finite budget; negative pixel values are clamped to zero.
    ``seed`` is a nonnegative integer; ``render_image`` draws each frame from it
    and a frame key, so equal seeds, keys and inputs give bit-identical images.
    ``record`` is the model as JSON writes it: an exact model's budget is null.
    """

    photon_budget: float = math.inf
    readout_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_index("seed", self.seed)
        for name in ("photon_budget", "readout_sigma"):
            if isinstance(getattr(self, name), bool | np.bool_):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not self.photon_budget >= 0:
            raise ValueError("photon_budget must be >= 0")
        if not 0.0 <= self.readout_sigma < POISSON_LAM_MAX:
            raise ValueError(f"readout_sigma must be in [0, {POISSON_LAM_MAX:.3g}) counts")
        if self.readout_sigma > 0.0 and self.photon_budget == math.inf:
            raise ValueError("readout noise is in counts, so it needs a finite photon budget")

    @property
    def exact(self) -> bool:
        """True for an infinite budget, whose frame is the exact intensity."""
        return self.photon_budget == math.inf

    @property
    def record(self) -> dict:
        budget = self.photon_budget if self.photon_budget < math.inf else None
        return {"photon_budget": budget, "readout_sigma": self.readout_sigma, "seed": self.seed}


def _check_charge(l: int) -> None:
    if not _is_integer(l):
        raise ValueError(f"OAM charge must be an integer, got {l!r}")
    if abs(l) > MAX_OAM:
        raise ChargeOutOfRange(
            f"OAM charge {l} is outside the supported range |l| <= optics.MAX_OAM = {MAX_OAM}"
        )


# A measurement reads one u(|l|) for both charges +-l.
@lru_cache(maxsize=2)
def _mode_data(l: int, grid: GridSpec) -> np.ndarray:
    """Read-only whole-grid ``_mode_rows``; ``_signed`` reads u(-l) off it."""
    _check_charge(l)
    data = _mode_rows(l, grid).reshape(grid.size, grid.size)
    data.setflags(write=False)
    return data


def _mode_rows(l: int, grid: GridSpec, pixels: np.ndarray | None = None) -> np.ndarray:
    """Unit-power mode of charge ``l`` >= 0 on the sorted flat indices ``pixels``, or on
    every pixel in C order when ``pixels`` is None, formed ``RENDER_BLOCK_ROWS`` rows at a time.

    Each block's |u|^2 goes into one whole-grid power array, which is summed once
    at the end, so the normaliser has the bits of the whole-grid formula."""
    axis = (np.arange(grid.size) - grid.beam_center[0]) * grid.pixel_size
    x = axis[np.newaxis, :]
    kept = np.empty(grid.size**2 if pixels is None else len(pixels), dtype=complex)
    power = np.empty((grid.size, grid.size))
    for start in range(0, grid.size, RENDER_BLOCK_ROWS):
        rows = slice(start, start + RENDER_BLOCK_ROWS)
        y = axis[rows, np.newaxis]
        r = np.hypot(x, y)
        envelope = np.exp(-(r**2))
        if l != 0:
            envelope *= r ** abs(l)
        data = 1j * l * np.arctan2(y, x)
        np.exp(data, out=data)
        data *= envelope
        block_power = np.abs(data, out=power[rows])
        np.square(block_power, out=block_power)
        first = start * grid.size
        if pixels is None:
            kept[first:first + data.size] = data.ravel()
        else:  # the pixels are sorted, so the block's are one run of them
            run = slice(*np.searchsorted(pixels, [first, first + data.size]))
            kept[run] = data.take(pixels[run] - first)
    kept /= math.sqrt(np.sum(power) * grid.pixel_area)
    return kept


def oam_mode(l: int, grid: GridSpec = GridSpec()) -> np.ndarray:
    """Unit-power vortex mode of charge ``l`` (Gaussian for l = 0) on ``grid``.

    Raises ``ChargeOutOfRange`` for |l| > ``MAX_OAM`` and ``ValueError`` for a non-integer l.
    """
    _check_charge(l)
    return _signed(_mode_data(abs(l), grid), l).copy()


def _signed(u_abs: np.ndarray, l: int) -> np.ndarray:
    """u(l) on the pixels where ``u_abs`` holds u(|l|), by the rule u(-l) = conj u(|l|)."""
    return u_abs.conj() if l < 0 else u_abs


def _weight_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Read-only rows x 4 weights abs(a)**2, abs(b)**2, 2 Re(a conj(b)), -2 Im(a conj(b)) of
    one port's rows x components x 2 amplitudes (a, b), summed over its components."""
    (ar, br), (ai, bi) = np.moveaxis(amplitudes.real, 2, 0), np.moveaxis(amplitudes.imag, 2, 0)
    # a conj(b) in the steps of Python's complex product; numpy's may fuse a multiply-add.
    parts = np.stack((*np.float_power(np.hypot([ar, br], [ai, bi]), 2.0),
                      2.0 * (ar * br - ai * -bi), -2.0 * (ar * -bi + ai * br)), axis=2)
    total, *rest = parts.swapaxes(0, 1)
    for part in rest:
        # A zero weight adds nothing: adding +0.0 turns a -0.0 cross weight into +0.0.
        total = np.where(part != 0, total + part, total)
    total.setflags(write=False)
    return total


@dataclass
class PortSynthesis:
    """Interferometer outputs of one or more rows as mode amplitudes on one camera ``grid``.

    ``amplitudes[port]`` holds port "h" or "v" as a rows x components x 2
    array: the amplitudes (a, b) of mutually incoherent fields a u+ + b u-
    on the modes u+ = u(+l) and u- = u(-l), both read off one cached u(|l|)
    by ``field_rows``.  The modes have unit power, so the first two
    ``intensity_weights(port)`` of a row are the powers attributable to the
    +l and -l modes in a port.  Both ports' weights are formed once, on
    first read, as read-only arrays.
    """

    l: int
    grid: GridSpec
    amplitudes: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.amplitudes["h"])

    def field_rows(self, components: list[list[complex]], rows: slice = slice(None)) -> list:
        """Rows ``rows`` of one field per component (a, b): the sum of its terms a u(+l)
        and b u(-l) of nonzero amplitudes; a dark port's one field is zero."""
        u_abs, charges = _mode_data(abs(self.l), self.grid)[rows], (self.l, -self.l)
        # Each component's terms are summed before the next component's are formed.
        terms = ([a * _signed(u_abs, l) for a, l in zip(c, charges) if a != 0] for c in components)
        return ([sum(t[1:], t[0]) for t in terms if t]
                or [components[0][1] * _signed(u_abs, -self.l)])

    def fields(self, port: str, row: int = 0) -> list[np.ndarray]:
        """Mutually incoherent fields of ``port`` in ``row``, on the whole grid."""
        return self.field_rows(self.amplitudes[port][row].tolist())

    def intensity_weights(self, port: str) -> np.ndarray:
        """Noiseless intensity of ``port`` ("v" or "h") in each row, summed over its
        components (a, b), as read-only rows x 4 weights |a|^2, |b|^2, 2 Re(a b*)
        and -2 Im(a b*) on |u+|^2, |u-|^2, Re(u+ conj(u-)) and Im(u+ conj(u-))."""
        return self._weights[port]

    @cached_property
    def _weights(self) -> dict[str, np.ndarray]:
        return {port: _weight_rows(amplitudes) for port, amplitudes in self.amplitudes.items()}


def synthesize_ports(
    params: StateParams | Sequence[StateParams] | np.ndarray,
    l: int = DEFAULT_OAM,
    grid: GridSpec = GridSpec(),
    path_phase: float = 0.0,
    flip_impurity: float = 0.0,
) -> PortSynthesis:
    """Ports of the prepared state's amplitude-matrix columns (upper, lower), one
    row per ``params``; a single ``StateParams`` gives one row, and a rows x 4 float
    array gives one row per row of amplitudes, as ``qubit.amplitude_rows`` forms
    them (``StateParams.amplitudes``, unit norm, unchecked).  A port's component
    0 is (upper, lower sqrt(1 - eps^2) e^{i path_phase}) and, only for eps =
    ``flip_impurity`` > 0, its component 1 is (lower eps, 0).

    Raises ``ChargeOutOfRange`` for |l| > ``MAX_OAM`` and ``ValueError`` for no
    ``params`` or an array of another shape or dtype, l = 0 (both arms would carry
    the one Gaussian, with no petals) or a non-finite ``path_phase``.
    """
    _check_charge(l)  # up front: the modes are built only when a field is read
    if l == 0:
        raise ValueError("synthesize_ports needs a nonzero OAM charge l")
    if not 0.0 <= flip_impurity < 1.0:
        raise ValueError("flip_impurity must be in [0, 1)")
    if not math.isfinite(path_phase):
        raise ValueError(f"path_phase must be finite, got {path_phase}")
    if not isinstance(params, np.ndarray):
        rows = [params] if isinstance(params, StateParams) else params
        params = np.array([row.amplitudes for row in rows], dtype=float)
    if params.dtype != float or params.ndim != 2 or params.shape[1] != 4 or not len(params):
        raise ValueError("synthesize_ports needs at least one StateParams or rows x 4 "
                         f"float amplitudes, got an array of shape {params.shape}")
    phase = np.exp(1j * path_phase)
    flip = math.sqrt(1.0 - flip_impurity**2)
    # Columns (upper, lower) of each row's A[oam, pol], as the ports h (pol 0) and v (pol 1).
    upper, lower = params.reshape(-1, 2, 2).transpose(1, 2, 0)
    ports = np.zeros((2, len(params), 2 if flip_impurity else 1, 2), dtype=complex)
    ports[:, :, 0, 0] = upper
    # (lower * flip) * phase, with the IEEE steps of Python's complex product.
    flipped = lower * flip
    ports[:, :, 0, 1].real = flipped * phase.real - 0.0 * phase.imag
    ports[:, :, 0, 1].imag = flipped * phase.imag + 0.0 * phase.real
    if flip_impurity:
        ports[:, :, 1, 0] = lower * flip_impurity
    return PortSynthesis(l=l, grid=grid, amplitudes={"h": ports[0], "v": ports[1]})


def render_image(
    fields: np.ndarray | list[np.ndarray] | Callable[[slice], list[np.ndarray]],
    noise: NoiseModel = NoiseModel(),
    key: tuple[int, ...] = (),
) -> np.ndarray:
    """Camera intensity image of one or more mutually incoherent fields.

    Each field is a square complex array on the camera ``GridSpec`` of its
    size.  Every field adds to the image in intensity; a coherent
    superposition has to be one array already, as the port fields of
    ``synthesize_ports`` are.  ``fields`` may also be a callable that returns
    the fields' rows ``rows`` (a slice), so that no field is formed whole.
    Either way, fields that are not one square shape raise ``ValueError``.

    An ``exact`` noise model returns the summed |amplitude|^2.  Otherwise
    one generator seeded from ``SeedSequence(noise.seed, spawn_key=key)`` (for
    the default key, ``default_rng(noise.seed)``'s stream) draws, in this order, the
    shot noise of the finite photon budget (the intensity scaled to expected
    counts, budget x power, and Poisson-sampled per pixel) and the readout
    noise, and the frame is clamped at zero.  A budget that puts more
    expected counts in one pixel than the Poisson sampler accepts raises
    ``ValueError``.  Frames are drawn in blocks of ``RENDER_BLOCK_ROWS`` rows,
    which changes no bit: the draws keep the whole frame's C order.  A ``key``
    that is not a sequence of nonnegative integers raises ``ValueError``.
    """
    if not isinstance(key, Sequence):
        raise ValueError(f"render_image key must be a sequence of integers, got {key!r}")
    for part in key:
        _check_index("each render_image key entry", part)
    if callable(fields):
        return _render_rows(fields, noise, key)
    # A 0-d field is made 1-d, so that it fails the shape check rather than the slicing.
    arrays = [np.atleast_1d(f) for f in ([fields] if isinstance(fields, np.ndarray) else fields)]
    return _render_rows(lambda rows: [f[rows] for f in arrays], noise, key)


def _render_rows(field_rows: Callable, noise: NoiseModel, key: tuple) -> np.ndarray:
    """``render_image`` of the fields whose rows ``rows`` are ``field_rows(rows)``; only
    the frame is allocated whole, and each pass over it goes block by block."""
    # The camera is square: it has as many rows as an empty row slice has columns.
    size = next((f.shape[-1] for f in field_rows(slice(0, 0))), 0)
    frame = np.zeros((size, size))
    blocks = [slice(i, i + RENDER_BLOCK_ROWS) for i in range(0, size, RENDER_BLOCK_ROWS)]
    # Each block, and the empty one past the last row, has one or more fields of its shape.
    for rows in [*blocks, slice(size, None)]:
        block, fields = frame[rows], field_rows(rows)
        if not fields or any(f.shape != block.shape for f in fields):
            raise ValueError("render_image needs one or more square fields of one shape")
        for f in fields:
            power = np.abs(f)
            block += np.square(power, out=power)
    if noise.exact:
        return frame

    frame *= GridSpec(size).pixel_area
    frame *= noise.photon_budget  # the expected counts
    peak = float(frame.max())
    if peak > POISSON_LAM_MAX:
        raise ValueError(
            f"photon budget {noise.photon_budget:g} puts {peak:.3g} expected counts "
            f"in one pixel, above the Poisson sampler's limit of {POISSON_LAM_MAX:.3g}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=key))
    for rows in blocks:
        frame[rows] = rng.poisson(frame[rows])
    if noise.readout_sigma > 0.0:
        for rows in blocks:
            frame[rows] += rng.normal(0.0, noise.readout_sigma, frame[rows].shape)
    return np.clip(frame, 0.0, None, out=frame)


def calibrated_operating_point() -> tuple[StateParams, float]:
    """Preparation angles and flip impurity reproducing measured values.

    This is a calibration choice, not derived physics: the handedness
    impurity eps is set so the H-port mode powers give predictability
    1 - 2 eps^2 = 0.98, and theta is solved (at alpha = 0.85 pi, taking
    the faint-H branch) so the fringe visibility
    2 |p m| / (|p|^2 + |m|^2 + |e|^2) of the V port's amplitudes equals
    0.93.  The calibrated point is imaged with ``CALIBRATED_PHOTONS``.
    """
    v_target, p_target, alpha = 0.93, 0.98, 0.85 * math.pi
    eps = math.sqrt((1.0 - p_target) / 2.0)
    v_ideal = v_target / math.sqrt(1.0 - eps**2)
    s = StateParams(math.pi, alpha).amplitudes[3]  # |-l, V> of the lower arm alone
    # V_ideal = 2 t s / (1 + t^2 s^2) for t = tan(theta/2); smaller root
    # puts most of the light in the V port (faint H output).
    t = (1.0 - math.sqrt(1.0 - v_ideal**2)) / (v_ideal * s)
    theta = 2.0 * math.atan(t)
    return StateParams(theta=theta, alpha=alpha), eps


def write_pfm(path: str | Path, image: np.ndarray) -> None:
    """Grayscale portable float map (PFM, little-endian float32)."""
    image = np.asarray(image)
    if image.ndim != 2 or np.iscomplexobj(image):
        raise ValueError("PFM export expects a 2-D image of real values")
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{image.shape[1]} {image.shape[0]}\n".encode())
        fh.write(b"-1.0\n")  # negative scale marks little-endian data
        fh.write(np.ascontiguousarray(np.flipud(image), dtype="<f4"))  # rows bottom-up


def write_pgm16(path: str | Path, image: np.ndarray) -> float:
    """16-bit binary PGM raster with the image maximum at level 65535.

    The levels are quantised ``RENDER_BLOCK_ROWS`` rows at a time straight
    into the big-endian raster, so no whole-frame float copy is made.
    Returns the counts-per-level scale used (1 for an all-zero image, and
    for a peak so small that its scale underflows, which quantises to 0).
    An image whose maximum is NaN or infinite raises ``ValueError``.
    """
    image = np.asarray(image)
    if image.ndim != 2 or np.iscomplexobj(image):
        raise ValueError("PGM export expects a 2-D image of real values")
    image = image.astype(float, copy=False)
    peak = float(image.max()) if image.size else 0.0
    if not math.isfinite(peak):
        raise ValueError(f"PGM export needs a finite image maximum, got {peak}")
    scale = peak / 65535.0 if peak / 65535.0 > 0 else 1.0  # also where the scale underflows
    levels = np.empty(image.shape, dtype=">u2")
    for start in range(0, len(image), RENDER_BLOCK_ROWS):
        rows = slice(start, start + RENDER_BLOCK_ROWS)
        block = image[rows] / scale
        np.round(block, out=block)
        levels[rows] = np.clip(block, 0, 65535, out=block)
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"{image.shape[1]} {image.shape[0]}\n".encode())
        fh.write(b"65535\n")
        fh.write(levels)
    return scale


def write_json(path: str | Path, payload: dict, indent: int | None = None) -> str:
    """Write ``payload`` to ``path`` as ``json.dumps(payload, indent=indent, sort_keys=True)``
    and a newline, and return that text: the one writer of the toolkit's JSON files."""
    text = json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    Path(path).write_text(text)
    return text


def write_metadata(path: str | Path, record: dict, grid: GridSpec, noise: NoiseModel) -> None:
    """JSON sidecar describing how the neighbouring images were produced: the run's
    ``record`` (for ``render``, its angles, charge, impurity and path phase), the camera
    ``grid`` as its width, height, extent and beam center, and the ``noise`` model's record."""
    camera = {"width": grid.size, "height": grid.size, "extent": EXTENT,
              "center": list(grid.beam_center)}
    write_json(path, {**record, "grid": camera, "noise": noise.record}, indent=2)
