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
projector P is A P^T A^dagger.  Only the reduced and conditional OAM
states are 2x2 density matrices.  The independent cross-check is the
brute-force oracle of the test suite, which builds the full 4x4 density
matrix term by term and shares no code with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import P_MIN, ZeroProbabilityPostselection

TRACE_ATOL = 1e-12


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


def amplitude_matrix(state: np.ndarray) -> np.ndarray:
    """Amplitude matrix A[oam, pol] of a pure 4-vector."""
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"expected a pure-state 4-vector, got shape {psi.shape}")
    return psi.reshape(2, 2)


def partial_trace_env(state: np.ndarray) -> np.ndarray:
    """Reduced 2x2 OAM state A A^dagger after tracing out polarization."""
    amps = amplitude_matrix(state)
    return amps @ amps.conj().T


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
        ValueError: if the projector is not 2x2 or its trace is not 1.
        ZeroProbabilityPostselection: if p < P_MIN, in which case the
            conditional state is undefined.
    """
    amps = amplitude_matrix(state)
    proj = np.asarray(projector, dtype=complex)
    if proj.shape != (2, 2):
        raise ValueError(f"expected a 2x2 polarization projector, got shape {proj.shape}")
    w0 = proj[0, 0].real
    w1 = proj[1, 1].real
    if not abs(w0 + w1 - 1.0) <= TRACE_ATOL:
        raise ValueError(f"projector trace {float(w0 + w1)} is not 1; need a rank-1 projector")
    j, weight = (0, w0) if w0 >= w1 else (1, w1)
    branch = amps @ proj[:, j].conj()
    norm_sq = float(np.vdot(branch, branch).real)
    probability = norm_sq / float(weight)
    if probability < P_MIN:
        raise ZeroProbabilityPostselection(
            f"postselection probability {probability:.3e} below {P_MIN:.1e}"
        )
    return branch[:, None] * branch.conj() / norm_sq, probability
