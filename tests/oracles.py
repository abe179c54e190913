"""Independent brute-force reference implementations used by the tests.

Everything here is written with explicit loops and elementary
constructions, deliberately sharing no code path with the package, so
that agreement between the two is meaningful.  The one exception is
``loop_reconstruct_profile``, the per-point reference of the sliver scan.
"""

import numpy as np

from dualitysim.weak import (
    SliverCoupling,
    apply_sliver,
    postselect_zero_momentum,
    reconstruct_weak_value,
)

KET_TOP = np.array([1.0, 0.0], dtype=complex)  # |l> or |H>
KET_BOT = np.array([0.0, 1.0], dtype=complex)  # |-l> or |V>


def kron2(a, b):
    """Explicit 2x2 tensor product of two vectors (4-vector out)."""
    out = np.zeros(4, dtype=complex)
    for i in range(2):
        for j in range(2):
            out[2 * i + j] = a[i] * b[j]
    return out


def kron_op(a, b):
    """Explicit tensor product of two 2x2 operators (4x4 out)."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    out[2 * i + k, 2 * j + m] = a[i, j] * b[k, m]
    return out


def brute_state(theta, alpha):
    """Prepared state assembled term by term from explicit products."""
    return (
        np.cos(theta / 2) * kron2(KET_TOP, KET_BOT)
        + np.sin(theta / 2) * np.cos(alpha / 2) * kron2(KET_BOT, KET_TOP)
        + np.sin(theta / 2) * np.sin(alpha / 2) * kron2(KET_BOT, KET_BOT)
    )


def brute_density(psi):
    rho = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            rho[i, j] = psi[i] * np.conj(psi[j])
    return rho


def brute_partial_trace(rho4):
    """Trace out the second (fast) tensor factor by explicit summation."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i, j] += rho4[2 * i + k, 2 * j + k]
    return out


def brute_partial_trace_first(rho4):
    """Trace out the first (slow) tensor factor."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i, j] += rho4[2 * k + i, 2 * k + j]
    return out


def swap_factors(psi):
    """Reorder a 4-vector from (A x B) ordering to (B x A) ordering."""
    out = np.zeros(4, dtype=complex)
    for i in range(2):
        for j in range(2):
            out[2 * j + i] = psi[2 * i + j]
    return out


def brute_postselect(rho4, proj):
    """Conditional reduced state and probability via the full sandwich."""
    op = kron_op(np.eye(2, dtype=complex), proj)
    sandwiched = op @ rho4
    reduced = brute_partial_trace(sandwiched)
    p = float(np.trace(reduced).real)
    if p <= 0.0:
        return None, p
    return reduced / p, p


def brute_visibility(rho2):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    total = 0.0 + 0.0j
    m = sx + 1j * sy
    for i in range(2):
        for j in range(2):
            total += m[i, j] * rho2[j, i]
    return abs(total)


def brute_predictability(rho2):
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    total = 0.0 + 0.0j
    for i in range(2):
        for j in range(2):
            total += sz[i, j] * rho2[j, i]
    return abs(total.real)


def bin_average_cos(m, center_rad, window_rad):
    """Exact mean of cos(m phi) over one angular window."""
    lo = center_rad - window_rad / 2
    hi = center_rad + window_rad / 2
    return (np.sin(m * hi) - np.sin(m * lo)) / (m * (hi - lo))


def meshgrid_mode(l, grid):
    """Unit-power vortex mode of charge ``l`` built from scratch on a full
    meshgrid, whatever the sign of ``l``, in the package's operation order."""
    axis = (np.arange(grid.size) - grid.beam_center[0]) * grid.pixel_size
    x, y = np.meshgrid(axis, axis)
    r = np.hypot(x, y)
    envelope = r ** abs(l) * np.exp(-(r**2)) if l != 0 else np.exp(-(r**2))
    data = envelope * np.exp(1j * l * np.arctan2(y, x))
    return data / np.sqrt(np.sum(np.abs(data) ** 2) * grid.pixel_area)


IDENTITY = np.eye(2, dtype=complex)
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIGVAL_FLOOR = -1e-10


def validate_pure_state(psi, atol=1e-12):
    """Raise ValueError unless the amplitudes of ``psi`` have unit norm."""
    norm = np.sqrt(np.sum(np.abs(np.asarray(psi, dtype=complex)) ** 2))
    if abs(norm - 1.0) > atol:
        raise ValueError(f"pure state norm {norm!r} deviates from 1 beyond {atol}")


def validate_wavefunction(psi):
    """Raise ValueError unless ``psi`` is a unit-norm 1-D array of >= 2 points."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or len(psi) < 2:
        raise ValueError("wavefunction must be a 1-D array of at least 2 points")
    validate_pure_state(psi)


def validate_mixed_state(rho):
    """Check hermiticity, unit trace and positive semidefiniteness."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_ATOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(rho.trace() - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace {rho.trace()!r} deviates from 1")
    eigvals = np.linalg.eigvalsh(rho)
    if eigvals.min() < PSD_EIGVAL_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {eigvals.min()!r}")


def validate_projector(proj, atol=1e-12):
    """Raise ValueError unless ``proj`` is a Hermitian idempotent 2x2 matrix."""
    proj = np.asarray(proj, dtype=complex)
    if proj.shape != (2, 2):
        raise ValueError(f"projector must be 2x2, got shape {proj.shape}")
    if np.max(np.abs(proj - proj.conj().T)) > atol:
        raise ValueError("projector is not Hermitian within tolerance")
    if np.max(np.abs(proj @ proj - proj)) > atol:
        raise ValueError("projector is not idempotent within tolerance")


def mask_azimuthal_profile(image, center, r_min, r_max, window_degrees):
    """(values, stderr, counts) by the full-frame mask of the original code.

    Every call measures the whole frame: radius and mask over all pixels,
    then angles, window ids and sums of the masked pixels.
    """
    n_bins = int(round(360.0 / window_degrees))
    cx, cy = center
    dx = np.arange(image.shape[1]) - cx
    dy = np.arange(image.shape[0])[:, None] - cy
    radius = np.hypot(dx, dy)
    mask = (radius >= r_min) & (radius < r_max)
    rows, cols = np.nonzero(mask)
    angles = np.degrees(np.arctan2(dy[rows, 0], dx[cols]))
    bin_index = np.floor(angles / window_degrees + 0.5).astype(int) % n_bins
    samples = image[rows, cols]
    counts = np.bincount(bin_index, minlength=n_bins)
    sums = np.bincount(bin_index, weights=samples, minlength=n_bins)
    sq_sums = np.bincount(bin_index, weights=samples**2, minlength=n_bins)
    means = sums / counts
    variances = np.clip(sq_sums / counts - means**2, 0.0, None)
    return means, np.sqrt(variances / counts), counts


def loop_reconstruct_profile(psi, phi, mode="linearized"):
    """The sliver scan as one per-point pipeline run at every x0: O(N^2).

    Unlike the rest of this module it is built from the package's own
    per-point functions, ``apply_sliver`` -> ``postselect_zero_momentum``
    -> ``reconstruct_weak_value``, which the closed-form scan must match.
    """
    psi = np.asarray(psi, dtype=complex)
    out = np.empty(len(psi), dtype=complex)
    for x0 in range(len(psi)):
        joint = apply_sliver(psi, SliverCoupling(x0=x0, phi=phi, mode=mode))
        pointer, _ = postselect_zero_momentum(joint)
        out[x0] = reconstruct_weak_value(pointer, phi)
    return out


def lstsq_harmonic_fit(profile, l):
    """(coeffs, covariance) of c0 + A cos(2|l| phi) + B sin(2|l| phi) from
    one SVD least-squares solve of the profile per call."""
    phi = np.radians(profile.angles_deg)
    m = 2 * abs(l)
    design = np.column_stack([np.ones_like(phi), np.cos(m * phi), np.sin(m * phi)])
    coeffs, _, _, _ = np.linalg.lstsq(design, profile.values, rcond=None)
    residuals = profile.values - design @ coeffs
    dof = max(len(profile) - 3, 1)
    sigma_sq = float(residuals @ residuals) / dof
    return coeffs, sigma_sq * np.linalg.inv(design.T @ design)
