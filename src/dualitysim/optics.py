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
independent of this envelope choice.  Only u(+l) is built on the full
grid; u(-l) is stored as its exact conjugate, and the noiseless moment
sums of ``fringes`` read u(+l) on the port annulus's pixels only.

Interferometer model
--------------------
Each output port of the polarizing beam splitter is one polarization
branch of the prepared state, i.e. one column of ``qubit``'s amplitude
matrix A[oam, pol]: port "h" is column 0 and port "v" column 1.  A
column's row 0 is the upper arm's amplitude of mode +l and its row 1 the
lower arm's amplitude of mode -l (the Dove prism reverses handedness).
A ``PortSynthesis`` stores each port as these amplitudes alone.  An
optional relative path phase on the lower arm rotates the petal pattern
without changing any power or visibility.

The Dove prism flip may be given a small impurity: a fraction of the
lower-arm amplitude keeps its original handedness and is treated as
incoherent with the flipped light (its intensity adds to the images, it
does not interfere).  This is the documented calibration knob used to
reproduce measured predictability values below 1; the default is 0.
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
from .qubit import StateParams, state_amplitudes

DEFAULT_OAM = 3
EXTENT = 4.0  # half-width of every camera in beam-waist units
MAX_OAM = 32  # its ring radius sqrt(|l|/2) = 4 waists still fits the camera's EXTENT
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
        if self.size < 16:
            raise ValueError("grid must be at least 16x16 pixels")

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
    counts; ``inf`` (the default) draws no shot noise.  ``readout_sigma``
    is the standard deviation of the additive readout noise in photon
    counts, below the ``POISSON_LAM_MAX`` ceiling on counts per pixel;
    negative pixel values are clamped to zero.  ``seed`` is
    anything ``numpy.random.default_rng`` accepts; identical seed and
    inputs give bit-identical images.  ``record`` is the model as JSON
    writes it, with a ``null`` budget for no shot noise.
    """

    photon_budget: float = math.inf
    readout_sigma: float = 0.0
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        if not self.photon_budget >= 0:
            raise ValueError("photon_budget must be >= 0")
        if not 0.0 <= self.readout_sigma < POISSON_LAM_MAX:
            raise ValueError(f"readout_sigma must be in [0, {POISSON_LAM_MAX:.3g}) counts")

    @property
    def exact(self) -> bool:
        """True when a frame is the exact intensity: no shot or readout noise."""
        return self.photon_budget == math.inf and self.readout_sigma == 0.0

    @property
    def record(self) -> dict:
        budget = self.photon_budget if self.photon_budget < math.inf else None
        return {"photon_budget": budget, "readout_sigma": self.readout_sigma, "seed": self.seed}


def _check_charge(l: int) -> None:
    if abs(l) > MAX_OAM:
        raise ChargeOutOfRange(
            f"OAM charge {l} is outside the supported range |l| <= optics.MAX_OAM = {MAX_OAM}"
        )


@lru_cache(maxsize=32)
def _mode_data(l: int, grid: GridSpec) -> np.ndarray:
    """Read-only unit-power mode of charge ``l``; u(-l) is the conjugate of u(+l)."""
    _check_charge(l)
    if l < 0:
        data = _mode_data(-l, grid).conj()
        data.setflags(write=False)
        return data
    axis = (np.arange(grid.size) - grid.beam_center[0]) * grid.pixel_size
    x, y = axis[np.newaxis, :], axis[:, np.newaxis]
    r = np.hypot(x, y)
    envelope = np.exp(-(r**2))
    if l != 0:
        envelope *= r ** abs(l)
    data = 1j * l * np.arctan2(y, x)
    np.exp(data, out=data)
    data *= envelope
    power = np.abs(data)
    np.square(power, out=power)
    data /= math.sqrt(np.sum(power) * grid.pixel_area)
    data.setflags(write=False)
    return data


def oam_mode(l: int, grid: GridSpec = GridSpec()) -> np.ndarray:
    """Unit-power vortex mode of charge ``l`` (Gaussian for l = 0) on ``grid``.

    Raises ``ChargeOutOfRange`` for |l| > ``MAX_OAM``.
    """
    return _mode_data(int(l), grid).copy()


def _per_float(fn: Callable, *arrays: np.ndarray) -> np.ndarray:
    """Array of ``fn`` of each element, evaluated on Python numbers.

    ``abs`` of a complex, ``math.hypot`` and ``x**2`` (libm pow) can round
    differently from ``np.abs``, ``np.hypot`` and ``x * x``, and numpy's
    complex array product may fuse a multiply and an add, which keeps the
    sign of an underflowed term; so the stacked steps keep the rounding of
    the scalar formulas this way.
    """
    return np.array(list(map(fn, *(a.tolist() for a in arrays))))


def _port_weights(plus: complex, minus: complex, impurity: complex) -> tuple[float, ...]:
    cross = plus * minus.conjugate()
    return abs(plus) ** 2 + abs(impurity) ** 2, abs(minus) ** 2, 2.0 * cross.real, -2.0 * cross.imag


@dataclass
class PortSynthesis:
    """Interferometer outputs of one or more rows as mode amplitudes on one camera ``grid``.

    ``amplitudes[port]`` holds port "h" or "v" as a rows x 3 array of
    (p, m, e) on the cached modes u+ = u(+l) and u- = u(-l): the coherent
    field p u+ + m u- and the unflipped lower-arm light e u+, which adds
    to the images in intensity, not amplitude.  ``fields(port, row)``
    builds one row's fields.  The modes have unit power, so the first two
    ``intensity_weights(port)`` of a row are the powers attributable to
    the +l and -l modes in a port, i.e. what an arm-blocking power
    measurement would record.  Both ports' weights are formed once, on
    first read, as read-only arrays.
    """

    l: int
    grid: GridSpec
    amplitudes: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.amplitudes["h"])

    def fields(self, port: str, row: int = 0) -> list[np.ndarray]:
        """Mutually incoherent fields of ``port`` in ``row``: the coherent
        p u+ + m u-, then, when e is nonzero, e u+."""
        plus, minus, impurity = self.amplitudes[port][row].tolist()
        main = minus * _mode_data(-self.l, self.grid)
        if plus != 0:
            main = plus * _mode_data(self.l, self.grid) + main
        if impurity == 0:
            return [main]
        return [main, impurity * _mode_data(self.l, self.grid)]

    def intensity_weights(self, port: str) -> np.ndarray:
        """Noiseless intensity |p u+ + m u-|^2 + |e u+|^2 of ``port`` ("v" or
        "h") in each row, as read-only rows x 4 weights on |u+|^2, |u-|^2,
        Re(u+ conj(u-)) and Im(u+ conj(u-))."""
        return self._weights[port]

    @cached_property
    def _weights(self) -> dict[str, np.ndarray]:
        weights = {port: _per_float(_port_weights, *amplitudes.T)
                   for port, amplitudes in self.amplitudes.items()}
        for array in weights.values():
            array.setflags(write=False)
        return weights


def synthesize_ports(
    params: StateParams | Sequence[StateParams],
    l: int = DEFAULT_OAM,
    grid: GridSpec = GridSpec(),
    path_phase: float = 0.0,
    flip_impurity: float = 0.0,
) -> PortSynthesis:
    """Ports (upper, lower sqrt(1 - eps^2) e^{i path_phase}, lower eps), eps =
    ``flip_impurity``, of the prepared state's amplitude-matrix columns (upper, lower),
    one row per ``params``; a single ``StateParams`` gives one row.

    Raises ``ChargeOutOfRange`` for |l| > ``MAX_OAM`` and ``ValueError``
    for no ``params``, l = 0 (both arms would carry the one Gaussian, with
    no petals) or a non-finite ``path_phase``.
    """
    _check_charge(l)  # up front: the modes are built only when a field is read
    if l == 0:
        raise ValueError("synthesize_ports needs a nonzero OAM charge l")
    if not 0.0 <= flip_impurity < 1.0:
        raise ValueError("flip_impurity must be in [0, 1)")
    if not math.isfinite(path_phase):
        raise ValueError(f"path_phase must be finite, got {path_phase}")
    rows = [params] if isinstance(params, StateParams) else list(params)
    if not rows:
        raise ValueError("synthesize_ports needs at least one StateParams")
    phase = np.exp(1j * path_phase)
    flip = math.sqrt(1.0 - flip_impurity**2)
    states = list(map(state_amplitudes, rows))
    # Column pol of A[oam, pol] is (upper, lower) = (psi[pol], psi[2 + pol]).
    return PortSynthesis(
        l=l,
        grid=grid,
        amplitudes={
            port: np.array([(psi[pol], (psi[2 + pol] * flip) * phase, psi[2 + pol] * flip_impurity)
                            for psi in states])
            for pol, port in enumerate("hv")
        },
    )


def render_image(
    fields: np.ndarray | list[np.ndarray],
    noise: NoiseModel = NoiseModel(),
) -> np.ndarray:
    """Camera intensity image of one or more mutually incoherent fields.

    Each field is a square complex array on the camera ``GridSpec`` of its
    size; fields of different shapes raise ``ValueError``.  Every field
    adds to the image in intensity; a coherent superposition has to be one
    array already, as the port fields of ``synthesize_ports`` are.

    An ``exact`` noise model returns the summed |amplitude|^2.  Otherwise
    one generator seeded from ``noise.seed`` draws, in this order, the
    shot noise of a finite photon budget (the intensity scaled to expected
    counts, budget x power, and Poisson-sampled per pixel) and the readout
    noise, and the frame is clamped at zero.  A budget that puts more
    expected counts in one pixel than the Poisson sampler accepts raises
    ``ValueError``.
    """
    if isinstance(fields, np.ndarray):
        fields = [fields]
    shape = fields[0].shape if fields else ()
    if len(shape) != 2 or shape[0] != shape[1] or any(f.shape != shape for f in fields):
        raise ValueError("render_image needs one or more square fields of one shape")

    intensity = np.zeros(shape, dtype=float)
    for f in fields:
        intensity += np.abs(f) ** 2
    if noise.exact:
        return intensity

    rng = np.random.default_rng(noise.seed)
    if noise.photon_budget < math.inf:
        expected_counts = intensity * GridSpec(shape[0]).pixel_area * noise.photon_budget
        peak = float(expected_counts.max())
        if peak > POISSON_LAM_MAX:
            raise ValueError(
                f"photon budget {noise.photon_budget:g} puts {peak:.3g} expected counts "
                f"in one pixel, above the Poisson sampler's limit of {POISSON_LAM_MAX:.3g}"
            )
        intensity = rng.poisson(expected_counts).astype(float)
    if noise.readout_sigma > 0.0:
        intensity += rng.normal(0.0, noise.readout_sigma, intensity.shape)
    return np.clip(intensity, 0.0, None)


def calibrated_operating_point(
    v_target: float = 0.93,
    p_target: float = 0.98,
    alpha: float = 0.85 * math.pi,
) -> tuple[StateParams, float]:
    """Preparation angles and flip impurity reproducing measured values.

    This is a calibration choice, not derived physics: the handedness
    impurity eps is set so the H-port mode powers give predictability
    1 - 2 eps^2 = ``p_target``, and theta is solved (at the given alpha,
    taking the faint-H branch) so the fringe visibility
    2 |p m| / (|p|^2 + |m|^2 + |e|^2) of the V port's amplitudes equals
    ``v_target``.
    """
    if not 0.0 < p_target <= 1.0:
        raise ValueError("p_target must be in (0, 1]")
    eps = math.sqrt((1.0 - p_target) / 2.0)
    v_ideal = v_target / math.sqrt(1.0 - eps**2)
    if not 0.0 < v_ideal < 1.0:
        raise ValueError("targets are outside the reachable range")
    s = state_amplitudes(StateParams(math.pi, alpha))[3]  # |-l, V> of the lower arm alone
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


def write_pgm16(path: str | Path, image: np.ndarray) -> float:
    """16-bit binary PGM raster with the image maximum at level 65535.

    Returns the counts-per-level scale used (1 for an all-zero image).
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("PGM export expects a 2-D image")
    peak = float(image.max()) if image.size else 0.0
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
            "width": grid.size,
            "height": grid.size,
            "extent": EXTENT,
            "center": list(grid.beam_center),
        },
        "noise": noise.record,
    }
    if extra:
        meta.update(extra)
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
