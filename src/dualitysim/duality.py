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

from typing import NamedTuple

import numpy as np

from .errors import P_MIN, ZeroProbabilityPostselection
from .qubit import StateParams, _branches, _postselected, _reduced
from .qubit import postselect_env, state_vector  # noqa: F401  (names perfbench's tracer wraps)


class DualityReport(NamedTuple):
    """Visibility/predictability pair for one measurement configuration.

    ``probability`` is the postselection probability that produced the
    state (1 for the unconditional and averaged cases, where the whole
    ensemble is used).  ``label`` names the configuration.  A report is
    immutable, hashable and also a tuple of its four fields, in this order.
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
    d0, c, d1 = _reduced(*params.amplitudes)
    return DualityReport(abs(2 * c), abs(d0 - d1), 1.0, "unconditional")


def conditional_duality(
    params: StateParams,
    projector: np.ndarray,
    label: str = "projector",
) -> DualityReport:
    """Measures of the OAM state conditioned on one polarization outcome;
    raises as ``postselect_env`` does, with the same messages."""
    d0, c, d1, probability = _postselected(*params.amplitudes, projector)
    return DualityReport(abs(2 * c), abs(d0 - d1), probability, label)


def _half_angle_terms(theta, alpha):
    """(p_H, p_V, |sin(theta) sin(alpha/2)|, P averaged), the terms of every {H, V}
    closed form; broadcasts."""
    theta, alpha = np.asarray(theta, dtype=float), np.asarray(alpha, dtype=float)
    sin_sq = np.sin(theta / 2) ** 2
    p_h = sin_sq * np.cos(alpha / 2) ** 2
    sin_half_alpha, cos_sq = np.sin(alpha / 2), np.cos(theta / 2) ** 2
    lower_v = sin_sq * sin_half_alpha**2
    v_bar, p_bar = np.abs(np.sin(theta) * sin_half_alpha), p_h + np.abs(cos_sq - lower_v)
    return p_h, cos_sq + lower_v, v_bar, p_bar


def postselection_probabilities(theta, alpha):
    """(p_H, p_V) for the {|H><H|, |V><V|} decomposition; broadcasts."""
    p_h, p_v, _, _ = _half_angle_terms(theta, alpha)
    return p_h, p_v


def conditional_visibility_v(theta, alpha):
    """Closed-form visibility after postselecting |V><V|; broadcasts.

    Undefined entries (vanishing postselection probability) come back as
    NaN rather than raising, so grid sweeps stay total.
    """
    _, p_v, num, _ = _half_angle_terms(theta, alpha)
    out = _visibility_given_v(p_v, num)
    if out.ndim == 0:
        return float(out)
    return out


def _visibility_given_v(p_v: np.ndarray, num: np.ndarray) -> np.ndarray:
    """``_half_angle_terms``' |sin(theta) sin(alpha/2)| / p_V; NaN where p_V < ``P_MIN``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p_v >= P_MIN, num / np.where(p_v > 0, p_v, 1.0), np.nan)


def closed_form_conditional(params: StateParams) -> tuple[float, float]:
    """(V given |V><V|, P given |H><H|) in closed form.

    The scalar form of ``conditional_visibility_v``.  P given |H><H| is
    identically 1: the horizontal output contains a single OAM mode
    whenever it contains anything at all.  It stays 1 where p_H is below
    ``P_MIN`` too, so that V^2 + P^2 keeps its maximum 2 at alpha = pi, where
    the H port is dark.  Only there is the maximum on a dark H port: in
    general it sits where V = 1, at theta = 2 atan(1 / |sin(alpha/2)|) or its
    mirror 2 pi - theta, where the V port keeps the fraction
    p_V* = 2u / (1 + u) of the light, u = sin^2(alpha/2) (0.0335 at
    alpha = pi/12, with p_H = 0.9665).  That small kept fraction is the
    fair-sampling point of the apparent violation.

    Raises:
        ZeroProbabilityPostselection: when the vertical postselection
            probability (the denominator of the visibility) is below
            ``P_MIN``.
    """
    visibility = conditional_visibility_v(params.theta, params.alpha)
    if np.isnan(visibility):
        p_v = postselection_probabilities(params.theta, params.alpha)[1]
        message = f"vertical postselection probability {p_v:.3e} below {P_MIN:.1e}"
        raise ZeroProbabilityPostselection(message)
    return visibility, 1.0


def closed_form_averaged(theta, alpha):
    """(V averaged, P averaged) over the {H, V} decomposition; broadcasts."""
    _, _, v_bar, p_bar = _half_angle_terms(theta, alpha)
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
    (h0, hc, h1), (v0, vc, v1) = _branches(*params.amplitudes)
    return DualityReport(abs(2 * hc) + abs(2 * vc), abs(h0 - h1) + abs(v0 - v1), 1.0, "averaged")


SWEEP_COLUMNS = ["theta", "alpha", "V_cond_V", "P_cond_H", "sum_cond_squares",
                 "V_avg", "P_avg", "sum_avg_squares", "p_H", "p_V"]


def sweep_columns(thetas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The closed-form sweep table: one row per (theta, alpha) pair of the two
    1-D arrays, one column per name of ``SWEEP_COLUMNS``: ``conditional_visibility_v``,
    ``closed_form_averaged`` and ``postselection_probabilities`` from one set of terms."""
    p_h, p_v, v_avg, p_avg = _half_angle_terms(thetas, alphas)
    v_cond, p_cond = _visibility_given_v(p_v, v_avg), np.ones(len(thetas))
    return np.column_stack((thetas, alphas, v_cond, p_cond, v_cond**2 + p_cond**2, v_avg, p_avg,
                            v_avg**2 + p_avg**2, p_h, p_v))
