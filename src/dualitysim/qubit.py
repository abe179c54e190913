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
projector P is A P^T A^dagger.  These 2x2 products run on the four
amplitudes as Python complexes (``amplitude_entries``), since numpy's
fixed cost per call on 2-element arrays outweighs the arithmetic; an
ndarray is built only for the 2x2 density matrix that is returned.  The
independent cross-check is the brute-force oracle of the test suite,
which builds the full 4x4 density matrix term by term and shares no code
with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import P_MIN, ZeroProbabilityPostselection

TRACE_ATOL = 1e-12  # on a projector's trace and on a state's squared norm


@dataclass(frozen=True)
class StateParams:
    """Preparation angles of the two half-wave plates, in radians.

    ``theta`` sets the splitting between the interferometer arms (the
    plate before the interferometer), ``alpha`` the polarization rotation
    inside the lower arm.  Any finite real values are accepted; all
    downstream formulas are 2*pi-periodic in both angles.
    """

    theta: float
    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.alpha)):
            raise ValueError("theta and alpha must be finite")


def state_amplitudes(params: StateParams) -> tuple[float, float, float, float]:
    """The four real amplitudes of ``state_vector(params)`` as Python floats,
    in the product-basis order, so A[oam, pol] is entry 2 oam + pol."""
    half_t = 0.5 * params.theta
    half_a = 0.5 * params.alpha
    return (
        0.0,
        math.cos(half_t),
        math.sin(half_t) * math.cos(half_a),
        math.sin(half_t) * math.sin(half_a),
    )


def state_vector(params: StateParams) -> np.ndarray:
    """Amplitude 4-vector of the prepared pure state.

    Returns cos(theta/2)|l,V> + sin(theta/2) |-l> (cos(alpha/2)|H> +
    sin(alpha/2)|V>); unit norm by construction for any real angles.
    """
    return np.array(state_amplitudes(params), dtype=complex)


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


def _hermitian(d0: float, c: complex, d1: float) -> np.ndarray:
    """The 2x2 matrix [[d0, c*], [c, d1]]."""
    return np.array([[d0, c.conjugate()], [c, d1]], dtype=complex)


def partial_trace_env(state: np.ndarray) -> np.ndarray:
    """Reduced 2x2 OAM state A A^dagger after tracing out polarization.

    Raises ``ValueError`` as ``amplitude_entries`` does.
    """
    a00, a01, a10, a11 = amplitude_entries(state)
    d0 = _abs_sq(a00) + _abs_sq(a01)
    d1 = _abs_sq(a10) + _abs_sq(a11)
    return _hermitian(d0, a10 * a00.conjugate() + a11 * a01.conjugate(), d1)


def basis_branches(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized OAM branches left by |H><H| and |V><V|.

    The branch of outcome k is u u^dagger for the column u = A[:, k], so
    its trace is the outcome's probability and a dark branch is zero.
    """
    a00, a01, a10, a11 = amplitude_entries(state)
    return (
        _hermitian(_abs_sq(a00), a10 * a00.conjugate(), _abs_sq(a10)),
        _hermitian(_abs_sq(a01), a11 * a01.conjugate(), _abs_sq(a11)),
    )


def projector_h() -> np.ndarray:
    """|H><H| on the polarization qubit."""
    return np.array([[1, 0], [0, 0]], dtype=complex)


def projector_v() -> np.ndarray:
    """|V><V| on the polarization qubit."""
    return np.array([[0, 0], [0, 1]], dtype=complex)


def projector_from_ket(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector onto an arbitrary pure polarization state."""
    ket = np.asarray(ket, dtype=complex)
    if ket.shape != (2,):
        raise ValueError(f"polarization ket must be a 2-vector, got {ket.shape}")
    norm = np.linalg.norm(ket)
    if norm == 0.0:
        raise ValueError("cannot project onto the zero vector")
    ket = ket / norm
    return np.outer(ket, ket.conj())


def projector_bloch(polar: float, azimuth: float) -> np.ndarray:
    """Projector onto cos(polar/2)|H> + exp(i*azimuth) sin(polar/2)|V>."""
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
        ValueError: as ``amplitude_entries`` does, if the projector is
            not 2x2 or its trace is not 1, or if the branch norm is not
            finite (a non-finite or overflowing projector entry).
        ZeroProbabilityPostselection: if p < P_MIN, in which case the
            conditional state is undefined.
    """
    a00, a01, a10, a11 = amplitude_entries(state)
    proj = np.asarray(projector, dtype=complex)
    if proj.shape != (2, 2):
        raise ValueError(f"expected a 2x2 polarization projector, got shape {proj.shape}")
    (p00, p01), (p10, p11) = proj.tolist()
    w0 = p00.real
    w1 = p11.real
    if not abs(w0 + w1 - 1.0) <= TRACE_ATOL:
        raise ValueError(f"projector trace {w0 + w1} is not 1; need a rank-1 projector")
    weight, c0, c1 = (w0, p00, p10) if w0 >= w1 else (w1, p01, p11)
    c0 = c0.conjugate()
    c1 = c1.conjugate()
    b0 = a00 * c0 + a01 * c1  # A conj(P[:, j]) = k_j b
    b1 = a10 * c0 + a11 * c1
    d0 = _abs_sq(b0)
    d1 = _abs_sq(b1)
    norm_sq = d0 + d1
    if not math.isfinite(norm_sq):  # float products overflow to inf, not raising
        raise ValueError(f"postselected branch has squared norm {norm_sq}; entries must be finite")
    probability = norm_sq / weight
    if probability < P_MIN:
        raise ZeroProbabilityPostselection(
            f"postselection probability {probability:.3e} below {P_MIN:.1e}"
        )
    return _hermitian(d0 / norm_sq, b1 * b0.conjugate() / norm_sq, d1 / norm_sq), probability
