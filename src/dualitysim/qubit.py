"""Exact state algebra for the OAM x polarization two-qubit system.

The system qubit lives in the orbital-angular-momentum pair {|l>, |-l>},
the environment qubit in the polarization pair {|H>, |V>}.  Every routine
in the package uses one fixed product-basis ordering:

    index 0: |l, H>     index 1: |l, V>
    index 2: |-l, H>    index 3: |-l, V>

i.e. OAM is the slow (first) tensor factor and polarization the fast one.

The prepared state is pure, so every routine takes its complex 4-vector
psi and works on the 2x2 amplitude matrix A[oam, pol] = psi.reshape(2, 2):
the reduced OAM state is A A^dagger and the branch left by a polarization
projector P is A P^T A^dagger.  One private scalar core (``_reduced``,
``_branches``, ``_postselected``) forms these 2x2 products on the four
amplitudes as Python numbers, since numpy's fixed cost per call on
2-element arrays outweighs the arithmetic.  It returns (d0, c, d1): the
diagonal and the entry [1, 0].  The public functions check the 4-vector
(``amplitude_entries``) and build the 2x2 ndarray from the core's result;
``duality``'s reports feed it ``StateParams.amplitudes``, unit norm by
construction and computed once per state, and build none.  ``normalized``,
the unit-norm step of ``projector_from_ket`` and of ``weak``'s profiles,
lives here so that this bottom layer imports no other.  The independent
cross-check is the brute-force oracle of the test suite, which builds the
full 4x4 density matrix term by term and shares no code with this module.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import P_MIN, ZeroProbabilityPostselection

TRACE_ATOL = 1e-12  # on a state's squared norm; a projector's trace, Hermitian defect, determinant


NORM_FLOOR = math.ldexp(1.0, -511)
"""Smallest norm whose square, the sum of squares, is a normal float."""


def _is_integer(value: object) -> bool:
    """A Python or numpy integer; a bool, which numpy reads as a mask, is none."""
    return isinstance(value, int | np.integer) and not isinstance(value, bool)


def _check_index(name: str, value: object) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a nonnegative integer (no bool)."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def normalized(psi: np.ndarray, what: str = "wavefunction") -> np.ndarray:
    """Copy of the vector ``psi`` normalized to unit discrete norm.

    A vector whose sum of squares overflows or underflows is first scaled
    by the power of two that brings its largest real or imaginary part
    into [0.5, 1), which is exact and so leaves the result unchanged.

    Raises ``ValueError``, naming ``psi`` as ``what``, for a non-finite entry
    or the zero vector.
    """
    psi = np.asarray(psi, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(psi)
    if not NORM_FLOOR <= norm < math.inf:  # also NaN and inf entries
        if not np.isfinite(psi).all():
            raise ValueError(f"{what} has non-finite samples")
        largest = float(np.max(np.abs([psi.real, psi.imag]), initial=0.0))
        if largest == 0.0:
            raise ValueError(f"cannot normalize the zero {what}")
        exponent = -math.frexp(largest)[1]
        scaled = np.empty_like(psi)
        scaled.real = np.ldexp(psi.real, exponent)
        scaled.imag = np.ldexp(psi.imag, exponent)
        psi, norm = scaled, np.linalg.norm(scaled)
    return psi / norm


def _amplitude_row(theta: float, alpha: float) -> tuple[float, float, float, float]:
    """A[oam, pol] of the state prepared at ``theta`` and ``alpha``, at entry 2 oam + pol:
    (0, cos(theta/2), sin(theta/2) cos(alpha/2), sin(theta/2) sin(alpha/2)) as Python
    floats, through ``math``'s functions.  ``ValueError`` names an angle that is not a
    Python or numpy real scalar (a bool, a complex or an array is none) or not finite."""
    if not (type(theta) is float and type(alpha) is float):  # floats skip the ABC check
        for name, value in (("theta", theta), ("alpha", alpha)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(theta) and math.isfinite(alpha)):
        raise ValueError("theta and alpha must be finite")
    half_t, half_a = 0.5 * theta, 0.5 * alpha
    sin_t = math.sin(half_t)
    return 0.0, math.cos(half_t), sin_t * math.cos(half_a), sin_t * math.sin(half_a)


def amplitude_rows(thetas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Rows x 4 array of ``StateParams(theta, alpha).amplitudes``, bit for bit, for each
    pair of the equal-length 1-D angle arrays; raises as ``StateParams`` does."""
    thetas, alphas = np.asarray(thetas).tolist(), np.asarray(alphas).tolist()
    if not (isinstance(thetas, list) and isinstance(alphas, list) and len(thetas) == len(alphas)):
        raise ValueError("thetas and alphas must be 1-D arrays of one length")
    rows = itertools.chain.from_iterable(map(_amplitude_row, thetas, alphas))
    return np.fromiter(rows, float, 4 * len(thetas)).reshape(-1, 4)


@dataclass(frozen=True)
class StateParams:
    """Preparation angles of the two half-wave plates, in radians.

    ``theta`` sets the splitting between the interferometer arms (the
    plate before the interferometer), ``alpha`` the polarization rotation
    inside the lower arm.  Any finite Python or numpy real scalars are
    accepted (a bool, a complex or an array raises ``ValueError``); all
    downstream formulas are 2*pi-periodic in both angles.

    ``amplitudes`` is ``state_vector(self)`` as four Python floats, A[oam, pol] at
    entry 2 oam + pol; set at construction, it is outside ``repr``, ``==`` and ``hash``.
    """

    theta: float
    alpha: float
    amplitudes: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _amplitude_row(self.theta, self.alpha))


def state_vector(params: StateParams) -> np.ndarray:
    """Amplitude 4-vector of the prepared pure state.

    Returns cos(theta/2)|l,V> + sin(theta/2) |-l> (cos(alpha/2)|H> +
    sin(alpha/2)|V>); unit norm by construction for any real angles.
    """
    return np.array(params.amplitudes, dtype=complex)


def amplitude_entries(state: np.ndarray) -> list[complex]:
    """Entries A[0, 0], A[0, 1], A[1, 0], A[1, 1] of the amplitude matrix of a pure
    4-vector, as Python complexes (the vector itself, in order); ``ValueError`` for
    another shape or a squared norm off 1 by more than ``TRACE_ATOL`` (NaN, inf too)."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"expected a pure-state 4-vector, got shape {psi.shape}")
    a, b, c, d = entries = psi.tolist()
    norm = math.hypot(abs(a), abs(b), abs(c), abs(d))
    if not abs(norm * norm - 1.0) <= TRACE_ATOL:  # a float product overflows to inf
        raise ValueError(f"state has squared norm {norm * norm}, not 1 within {TRACE_ATOL:g}")
    return entries


def _abs_sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _reduced(a00, a01, a10, a11) -> tuple[float, complex, float]:
    """(d0, c, d1) of A A^dagger: its diagonal and its entry [1, 0]."""
    return (
        _abs_sq(a00) + _abs_sq(a01),
        a10 * a00.conjugate() + a11 * a01.conjugate(),
        _abs_sq(a10) + _abs_sq(a11),
    )


def _branches(a00, a01, a10, a11) -> tuple[tuple[float, complex, float], ...]:
    """(d0, c, d1) of the branches u u^dagger, u = A[:, k], left by |H><H| and |V><V|."""
    return (
        (_abs_sq(a00), a10 * a00.conjugate(), _abs_sq(a10)),
        (_abs_sq(a01), a11 * a01.conjugate(), _abs_sq(a11)),
    )


def _postselected(a00, a01, a10, a11, projector) -> tuple[float, complex, float, float]:
    """(d0, c, d1, p) of the branch that ``postselect_env`` returns, with all its checks."""
    proj = np.asarray(projector, dtype=complex)
    if proj.shape != (2, 2):
        raise ValueError(f"expected a 2x2 polarization projector, got shape {proj.shape}")
    (p00, p01), (p10, p11) = proj.tolist()
    w0, w1 = p00.real, p11.real
    if not abs(w0 + w1 - 1.0) <= TRACE_ATOL:
        raise ValueError(f"projector trace {w0 + w1} is not 1; need a rank-1 projector")
    skew = abs(p01 - p10.conjugate()) + abs(p00.imag) + abs(p11.imag)
    det = abs(p00 * p11 - p01 * p10)
    if not (skew <= TRACE_ATOL and det <= TRACE_ATOL):  # NaN and inf fail here too
        raise ValueError(f"projector has Hermitian defect {skew:.3g} and determinant "
                         f"{det:.3g}, not 0 within {TRACE_ATOL:g}; need a rank-1 projector")
    weight, c0, c1 = (w0, p00, p10) if w0 >= w1 else (w1, p01, p11)
    c0, c1 = c0.conjugate(), c1.conjugate()
    b0 = a00 * c0 + a01 * c1  # A conj(P[:, j]) = k_j b
    b1 = a10 * c0 + a11 * c1
    d0, d1 = _abs_sq(b0), _abs_sq(b1)
    norm_sq = d0 + d1
    probability = norm_sq / weight
    if probability < P_MIN:
        raise ZeroProbabilityPostselection(
            f"postselection probability {probability:.3e} below {P_MIN:.1e}"
        )
    return d0 / norm_sq, b1 * b0.conjugate() / norm_sq, d1 / norm_sq, probability


def _hermitian(d0: float, c: complex, d1: float) -> np.ndarray:
    """The 2x2 matrix [[d0, c*], [c, d1]]."""
    return np.array([[d0, c.conjugate()], [c, d1]], dtype=complex)


def partial_trace_env(state: np.ndarray) -> np.ndarray:
    """Reduced 2x2 OAM state A A^dagger after tracing out polarization.

    Raises ``ValueError`` as ``amplitude_entries`` does.
    """
    return _hermitian(*_reduced(*amplitude_entries(state)))


def projector_h() -> np.ndarray:
    """|H><H| on the polarization qubit."""
    return np.array([[1, 0], [0, 0]], dtype=complex)


def projector_v() -> np.ndarray:
    """|V><V| on the polarization qubit."""
    return np.array([[0, 0], [0, 1]], dtype=complex)


def projector_from_ket(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector onto an arbitrary pure polarization state, normalized by
    ``normalized``: a zero or non-finite ket raises ``ValueError``."""
    ket = np.asarray(ket, dtype=complex)
    if ket.shape != (2,):
        raise ValueError(f"polarization ket must be a 2-vector, got {ket.shape}")
    ket = normalized(ket, "polarization ket")
    return np.outer(ket, ket.conj())


def projector_bloch(polar: float, azimuth: float) -> np.ndarray:
    """Projector onto cos(polar/2)|H> + exp(i*azimuth) sin(polar/2)|V>."""
    if not (math.isfinite(polar) and math.isfinite(azimuth)):
        raise ValueError("polar and azimuth must be finite")
    ket = np.array(
        [math.cos(0.5 * polar), np.exp(1j * azimuth) * math.sin(0.5 * polar)],
        dtype=complex,
    )
    return projector_from_ket(ket)


def postselect_env(state: np.ndarray, projector: np.ndarray) -> tuple[np.ndarray, float]:
    """Conditional OAM state after projecting the polarization qubit.

    For a rank-1 projector P = k k^dagger, as every projector built here
    is, the branch A P^T A^dagger (= Tr_pol[(1 (x) P) |psi><psi|]) is
    b b^dagger with b = A conj(k), read off P's brightest column as
    A conj(P[:, j]) = k_j b.  Returns b b^dagger / |b|^2, pure to
    round-off even for a faint branch, and p = |b|^2.

    Raises:
        ValueError: as ``amplitude_entries`` does, or if the projector is
            not 2x2, or not rank 1: its trace off 1, its Hermitian defect
            or its determinant off 0 by more than ``TRACE_ATOL`` (NaN and
            inf entries fail these checks too).
        ZeroProbabilityPostselection: if p < P_MIN, in which case the
            conditional state is undefined.
    """
    d0, c, d1, probability = _postselected(*amplitude_entries(state), projector)
    return _hermitian(d0, c, d1), probability
