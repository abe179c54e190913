"""Visibility/predictability measures, conditional and averaged variants.

For a single OAM qubit with density matrix rho (basis |l>, |-l>):

    visibility      V = |Tr[(sigma_x + i sigma_y) rho]| = 2 |rho_10|
    predictability  P = |Re Tr[sigma_z rho]| = |Re(rho_00 - rho_11)|

``visibility`` and ``predictability`` read these entries of an array; the
reports read the same entries, (d0, c, d1), off ``qubit``'s scalar core,
bit for bit alike.  For any finite 2x2 rho the Pauli products only add
exact zeros and scale by exact factors of 2, so the entry reads equal the
traces bit for bit, Hermitian or not.

Both lie in [0, 1] and satisfy V^2 + P^2 <= 1 for any physical state.
Conditional variants apply the same measures to the OAM state obtained
after postselecting the polarization qubit; because different
postselections yield different conditional states, mixing the visibility
of one with the predictability of another can push the sum of squares
anywhere up to 2.  Weighting each conditional measure by its
postselection probability restores the single-qubit bound.

Closed forms (in the preparation angles theta, alpha):

    V              = |sin(alpha/2) sin(theta)|
    P              = |cos(theta)|
    V given |V><V| = |sin(theta) sin(alpha/2)|
                     / (cos^2(theta/2) + sin^2(theta/2) sin^2(alpha/2))
    P given |H><H| = 1
    V averaged     = |sin(theta) sin(alpha/2)|
    P averaged     = sin^2(theta/2) cos^2(alpha/2)
                     + |cos^2(theta/2) - sin^2(theta/2) sin^2(alpha/2)|

All closed forms are validated against the amplitude-matrix routines of
``qubit`` and against the brute-force oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import P_MIN, ZeroProbabilityPostselection
from .qubit import StateParams, _branches, _postselected, _reduced, state_amplitudes
from .qubit import postselect_env, state_vector  # noqa: F401  (names perfbench's tracer wraps)


@dataclass(frozen=True)
class DualityReport:
    """Visibility/predictability pair for one measurement configuration.

    ``probability`` is the postselection probability that produced the
    state (1 for the unconditional and averaged cases, where the whole
    ensemble is used).  ``label`` names the configuration.
    """

    visibility: float
    predictability: float
    probability: float
    label: str

    @property
    def sum_of_squares(self) -> float:
        return self.visibility**2 + self.predictability**2


def _qubit_state(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 qubit state, got shape {rho.shape}")
    return rho


def visibility(rho: np.ndarray) -> float:
    """Fringe contrast of a qubit state: 2|rho[1, 0]|, the coherence."""
    return float(abs(2 * _qubit_state(rho)[1, 0]))


def predictability(rho: np.ndarray) -> float:
    """Which-alternative information: |Re(rho[0, 0] - rho[1, 1])| = |<sigma_z>|."""
    rho = _qubit_state(rho)
    return float(abs((rho[0, 0] - rho[1, 1]).real))


def unconditional_duality(params: StateParams) -> DualityReport:
    """Measures of the reduced OAM state, environment ignored."""
    d0, c, d1 = _reduced(*state_amplitudes(params))
    return DualityReport(abs(2 * c), abs(d0 - d1), 1.0, "unconditional")


def conditional_duality(
    params: StateParams,
    projector: np.ndarray,
    label: str = "projector",
) -> DualityReport:
    """Measures of the OAM state conditioned on one polarization outcome;
    raises as ``postselect_env`` does, with the same messages."""
    d0, c, d1, probability = _postselected(*state_amplitudes(params), projector)
    return DualityReport(abs(2 * c), abs(d0 - d1), probability, label)


def postselection_probabilities(theta, alpha):
    """(p_H, p_V) for the {|H><H|, |V><V|} decomposition; broadcasts."""
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    p_h = np.sin(theta / 2) ** 2 * np.cos(alpha / 2) ** 2
    p_v = np.cos(theta / 2) ** 2 + np.sin(theta / 2) ** 2 * np.sin(alpha / 2) ** 2
    return p_h, p_v


def conditional_visibility_v(theta, alpha):
    """Closed-form visibility after postselecting |V><V|; broadcasts.

    Undefined entries (vanishing postselection probability) come back as
    NaN rather than raising, so grid sweeps stay total.
    """
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    _, p_v = postselection_probabilities(theta, alpha)
    num = np.abs(np.sin(theta) * np.sin(alpha / 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(p_v >= P_MIN, num / np.where(p_v > 0, p_v, 1.0), np.nan)
    if out.ndim == 0:
        return float(out)
    return out


def closed_form_conditional(params: StateParams) -> tuple[float, float]:
    """(V given |V><V|, P given |H><H|) in closed form.

    The scalar form of ``conditional_visibility_v``.  P given |H><H| is
    identically 1: the horizontal output contains a single OAM mode
    whenever it contains anything at all.

    Raises:
        ZeroProbabilityPostselection: when the vertical postselection
            probability (the denominator of the visibility) is below
            ``P_MIN``.
    """
    _, p_v = postselection_probabilities(params.theta, params.alpha)
    if p_v < P_MIN:
        raise ZeroProbabilityPostselection(
            f"vertical postselection probability {p_v:.3e} below {P_MIN:.1e}"
        )
    return conditional_visibility_v(params.theta, params.alpha), 1.0


def closed_form_averaged(theta, alpha):
    """(V averaged, P averaged) over the {H, V} decomposition; broadcasts."""
    theta = np.asarray(theta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    v_bar = np.abs(np.sin(theta) * np.sin(alpha / 2))
    p_bar = np.sin(theta / 2) ** 2 * np.cos(alpha / 2) ** 2 + np.abs(
        np.cos(theta / 2) ** 2 - np.sin(theta / 2) ** 2 * np.sin(alpha / 2) ** 2
    )
    if v_bar.ndim == 0:
        return float(v_bar), float(p_bar)
    return v_bar, p_bar


def averaged_duality(params: StateParams) -> DualityReport:
    """Probability-weighted measures over the complete {H, V} postselection.

    The branch left by |k><k| is the column A[:, k] of the amplitude
    matrix; its unnormalized state has trace p_k, so its measures are
    already the probability-weighted ones.  A dark branch contributes
    zero, and the averages are total functions of the preparation angles.
    """
    (h0, hc, h1), (v0, vc, v1) = _branches(*state_amplitudes(params))
    return DualityReport(abs(2 * hc) + abs(2 * vc), abs(h0 - h1) + abs(v0 - v1), 1.0, "averaged")


def conditional_sum_of_squares(theta, alpha):
    """V(given V)^2 + P(given H)^2 in closed form; broadcasts, NaN-safe."""
    v = conditional_visibility_v(theta, alpha)
    return v**2 + 1.0


def averaged_sum_of_squares(theta, alpha):
    """V averaged^2 + P averaged^2 in closed form; broadcasts."""
    v_bar, p_bar = closed_form_averaged(theta, alpha)
    return v_bar**2 + p_bar**2
