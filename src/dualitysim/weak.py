"""Pointer-based scan of a transverse wavefunction via a wave-plate sliver.

A 1-D wavefunction psi(x) on N uniformly spaced grid points starts in the
vertical polarization.  A small half-wave-plate sliver at a single grid
point x0 rotates the local polarization by the coupling angle phi; the
beam is then postselected on zero transverse momentum and the surviving
polarization qubit |s> is read out.  The complex amplitude ratio

    w(x0) = psi(x0) / psi0,    psi0 = (1/sqrt(N)) sum_x psi(x)

is encoded in the pointer as |s> ~ |V> + (phi/2) w(x0) |H> and recovered
from exact polarization expectation values as (1/phi) <s| sx - i sy |s>,
accurate to O(phi^2).  Scanning x0 reconstructs the full wavefunction up
to the common factor psi0.

Discrete conventions
--------------------
The grid inner product is the plain sum (sum |psi|^2 = 1) and psi0 is the
zero-frequency component of the unitary DFT.  The postselection readout
takes the vertical channel through that zero-frequency amplitude and the
rotated (horizontal) channel through its total amplitude; this pairing is
what makes the pointer carry psi(x0)/psi0 itself rather than an
N-dependent multiple of it, and is applied consistently everywhere in
this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import P_MIN, InvalidCoupling, ZeroProbabilityPostselection
from .qubit import _check_index, normalized

WEAKNESS_WARN_THRESHOLD = 0.1
"""Warn when the pointer deflection |(phi/2) psi(x0)/psi0| exceeds this."""

ROUNDOFF_EPS = 8
"""A max error within this many eps of max|psi/psi0| is round-off: about eight rounded
operations lie between psi and a scan's error, and profiles scanned at phi <= 1e-8 err
by at most 2.5 eps of it."""


def grid_positions(n: int) -> np.ndarray:
    """Symmetric grid coordinates used by the built-in profiles."""
    return np.arange(n, dtype=float) - (n - 1) / 2.0


def gaussian_wavefunction(n: int, sigma: float) -> np.ndarray:
    """Unit-norm Gaussian exp(-(x / (2 sigma))^2) on ``grid_positions(n)``; an
    exponent that overflows to inf (a tiny sigma) gives the sample 0."""
    _check_index("n", n)
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and positive")
    with np.errstate(over="ignore"):
        exponent = (grid_positions(n) / (2.0 * sigma)) ** 2
    return normalized(np.exp(-exponent).astype(complex))


def uniform_wavefunction(n: int) -> np.ndarray:
    """Flat unit-norm profile 1/sqrt(N)."""
    _check_index("n", n)
    return normalized(np.ones(n, dtype=complex))


def _profile(psi: np.ndarray) -> np.ndarray:
    """``psi`` as a complex vector; ``ValueError`` unless it is 1-D, nonempty and finite."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or not len(psi) or not np.isfinite(psi).all():
        raise ValueError("psi must be a nonempty 1-D profile of finite samples")
    return psi


def zero_frequency_amplitude(psi: np.ndarray) -> complex:
    """Zero-frequency component of the unitary DFT: sum(psi)/sqrt(N)."""
    psi = _profile(psi)
    return complex(psi.sum() / math.sqrt(len(psi)))


def _zero_momentum(psi: np.ndarray) -> complex:
    """``zero_frequency_amplitude``, or ``ZeroProbabilityPostselection`` below ``P_MIN``."""
    amplitude = zero_frequency_amplitude(psi)
    if abs(amplitude) < P_MIN:
        raise ZeroProbabilityPostselection(
            f"zero-momentum amplitude {abs(amplitude):.3e} below {P_MIN:.1e}"
        )
    return amplitude


@dataclass(frozen=True)
class SliverCoupling:
    """Wave-plate sliver location, rotation angle and coupling model.

    ``mode="linearized"`` applies the first-order map that adds
    (phi/2) psi(x0) to the horizontal channel without touching the
    vertical one (the joint state is then not normalized);
    ``mode="exact"`` applies the true unitary rotation at x0.
    """

    x0: int
    phi: float
    mode: str = "linearized"

    def __post_init__(self) -> None:
        _check_index("x0", self.x0)
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if self.mode not in ("linearized", "exact"):
            raise ValueError(f"unknown coupling mode {self.mode!r}")


@dataclass
class JointState:
    """Polarization-resolved transverse amplitudes (H and V channels)."""

    h: np.ndarray
    v: np.ndarray


def apply_sliver(psi: np.ndarray, coupling: SliverCoupling) -> JointState:
    """Couple the polarization to the presence of the beam at one point.

    The input beam is vertically polarized with transverse profile
    ``psi``.  See ``SliverCoupling`` for the two coupling models.
    """
    psi = _profile(psi)
    if not coupling.x0 < len(psi):
        raise ValueError(f"sliver position {coupling.x0} outside the grid")
    h = np.zeros_like(psi)
    v = psi.copy()
    half = 0.5 * coupling.phi
    if coupling.mode == "linearized":
        h[coupling.x0] = half * psi[coupling.x0]
    else:
        h[coupling.x0] = math.sin(half) * psi[coupling.x0]
        v[coupling.x0] = math.cos(half) * psi[coupling.x0]
    return JointState(h=h, v=v)


def postselect_zero_momentum(joint: JointState) -> tuple[np.ndarray, float]:
    """Project on the uniform transverse mode; return (pointer, probability).

    The vertical channel is read out through its zero-frequency (p = 0)
    amplitude and the rotated channel through its total amplitude (see
    the module docstring for why the normalizations differ).  The pointer
    is the normalized polarization pair (s_H, s_V); the probability is
    the squared magnitude of the surviving amplitude pair.

    Raises:
        ZeroProbabilityPostselection: when the transmitted beam has no
            zero-momentum component (e.g. an odd-parity profile).
    """
    s_v = _zero_momentum(joint.v)
    s_h = complex(joint.h.sum())
    pointer = np.array([s_h, s_v], dtype=complex)
    probability = float(np.sum(np.abs(pointer) ** 2))
    return pointer / np.linalg.norm(pointer), probability


def pointer_sigma_expectations(pointer: np.ndarray) -> tuple[float, float]:
    """Exact (<sigma_x>, <sigma_y>) of a normalized polarization qubit."""
    pointer = np.asarray(pointer, dtype=complex)
    s_h, s_v = pointer
    cross = np.conj(s_v) * s_h
    return float(2.0 * cross.real), float(-2.0 * cross.imag)


def reconstruct_weak_value(pointer: np.ndarray, phi: float) -> complex:
    """Complex weak value (1/phi)(<sigma_x> - i <sigma_y>) of the pointer.

    For a pointer produced by ``postselect_zero_momentum`` this equals
    psi(x0)/psi0 up to O(phi^2).  Its magnitude times phi is the
    polarization visibility of the pointer state.

    Raises:
        InvalidCoupling: when phi is zero (nothing was coupled).
    """
    if phi == 0.0:
        raise InvalidCoupling("phi = 0 encodes no weak value")
    pointer = np.asarray(pointer, dtype=complex)
    s_h, s_v = pointer
    deflection = abs(s_h) / abs(s_v) if abs(s_v) > 0 else math.inf
    if deflection > WEAKNESS_WARN_THRESHOLD:
        warnings.warn(
            f"pointer deflection {deflection:.3f} exceeds "
            f"{WEAKNESS_WARN_THRESHOLD}; the weak-coupling expansion "
            "is no longer accurate",
            stacklevel=2,
        )
    sx, sy = pointer_sigma_expectations(pointer)
    return complex(sx, -sy) / phi


def true_ratio(psi: np.ndarray) -> np.ndarray:
    """Reference profile psi(x)/psi0 the reconstruction converges to.

    Raises ``ZeroProbabilityPostselection`` when |psi0| is below ``P_MIN``,
    as for an odd-parity profile.
    """
    psi = _profile(psi)
    return psi / _zero_momentum(psi)


def reconstruct_profile(psi: np.ndarray, phi: float, mode: str = "linearized") -> np.ndarray:
    """Scan the sliver over every grid point and reconstruct psi/psi0.

    One O(N) pass of the closed form of ``apply_sliver`` ->
    ``postselect_zero_momentum`` -> ``reconstruct_weak_value`` at every x0,
    which it matches to round-off.  It raises their errors at the same x0
    and warns at most once per scan, naming the largest pointer deflection.
    A nonzero phi whose readout scale (|s_H|^2 + |s_V|^2) phi is not a normal
    float at some x0 raises ``InvalidCoupling`` before that warning.
    """
    psi = _profile(psi)
    SliverCoupling(x0=0, phi=phi, mode=mode)  # the coupling's own checks
    exact = mode == "exact"
    v_shift = math.cos(0.5 * phi) - 1.0 if exact else 0.0  # change of psi(x0) in V
    # A readout that overflows (or is 0 x inf at phi = 0) is rejected below by its scale.
    with np.errstate(over="ignore", invalid="ignore"):
        s_h = (math.sin(0.5 * phi) if exact else 0.5 * phi) * psi
        s_v = (psi.sum() + v_shift * psi) / math.sqrt(len(psi))
        scale = (np.abs(s_h) ** 2 + np.abs(s_v) ** 2) * phi
        # The per-point sum differs from s_V by at most N eps sum|psi| / sqrt(N), so
        # within that margin of P_MIN the per-point path decides if and how x0 fails.
        margin = P_MIN + math.sqrt(len(psi)) * np.finfo(float).eps * float(np.abs(psi).sum())
    for x0 in np.flatnonzero(np.abs(s_v) < margin):
        postselect_zero_momentum(apply_sliver(psi, SliverCoupling(int(x0), phi, mode)))
    # numpy divides the complex readout by this real scale through 1/scale, which
    # overflows below the smallest normal float; phi = 0 is the readout's own error.
    magnitude, limits = np.abs(scale), np.finfo(float)
    if phi != 0.0 and not np.all((magnitude >= limits.tiny) & (magnitude <= limits.max)):
        raise InvalidCoupling(f"phi = {phi!r} puts the readout scale (|s_H|^2 + |s_V|^2) phi "
                              f"outside the normal floats [{limits.tiny:.3g}, {limits.max:.3g}]")
    # Reading out the most deflected pointer checks phi and warns once per scan.
    worst = int(np.argmax(np.abs(s_h) / np.abs(s_v)))
    reconstruct_weak_value(np.array([s_h[worst], s_v[worst]]), phi)
    return 2.0 * np.conj(s_v) * s_h / scale


def convergence_order(phis: np.ndarray, errors: np.ndarray, floor: float = 0.0) -> float | None:
    """Least-squares slope of log(error) against log|phi|; None with fewer than
    two distinct |phi| or an error at or below the round-off ``floor`` (by
    default an error of exactly 0).  A phi that is zero or not finite, and an
    error that is negative or not finite, raise ``ValueError``."""
    phis = np.abs(np.asarray(phis, dtype=float))
    errors = np.asarray(errors, dtype=float)
    if not np.all((phis > 0) & (phis < math.inf)):
        raise ValueError("phis must be finite and nonzero to measure an order")
    if not np.all((errors >= 0) & (errors < math.inf)):
        raise ValueError("errors must be finite and nonnegative to measure an order")
    if len(set(phis.tolist())) < 2 or np.any(errors <= floor):
        return None
    slope, _ = np.polyfit(np.log(phis), np.log(errors), 1)
    return float(slope)


class Scan(NamedTuple):
    """Per phi, the reconstruction of psi/psi0, its absolute error against ``true_ratio``
    and that error's maximum; ``order`` fits the maxima above the ``ROUNDOFF_EPS`` floor."""

    reconstructions: list[np.ndarray]
    errors: list[np.ndarray]
    max_errors: list[float]
    order: float | None


def scan(psi: np.ndarray, phis: list[float], mode: str = "linearized") -> Scan:
    """``reconstruct_profile`` of ``psi`` at each phi, checked against ``true_ratio``."""
    truth = true_ratio(psi)
    reconstructions = [reconstruct_profile(psi, phi, mode=mode) for phi in phis]
    errors = [np.abs(recon - truth) for recon in reconstructions]
    max_errors = [float(error.max()) for error in errors]
    floor = ROUNDOFF_EPS * np.finfo(float).eps * float(np.abs(truth).max())
    return Scan(reconstructions, errors, max_errors,
                convergence_order(np.array(phis), np.array(max_errors), floor))
