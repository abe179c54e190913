"""Conditional wave-particle duality simulator and analysis toolkit.

A qubit (two orbital-angular-momentum modes) coupled to a qubit
environment (polarization): exact state algebra, visibility and
predictability measures with their conditional and probability-averaged
variants, scalar-field synthesis of the interferometer output images,
experiment-style fringe analysis, and the pointer-based weak-value scan.
"""

from .duality import (
    DualityReport,
    averaged_duality,
    closed_form_averaged,
    closed_form_conditional,
    conditional_duality,
    predictability,
    unconditional_duality,
    visibility,
)
from .errors import (
    ChargeOutOfRange,
    DegenerateProfile,
    DualitySimError,
    EmptyBin,
    InvalidCoupling,
    P_MIN,
    ZeroIntensity,
    ZeroProbabilityPostselection,
)
from .fringes import (
    AzimuthalProfile,
    azimuthal_profile,
    count_petals,
    fringe_visibility,
    predictability_from_arm_powers,
    predictability_from_images,
    predictability_from_profile,
)
from .optics import (
    DEFAULT_OAM,
    FieldImage,
    GridSpec,
    NoiseModel,
    calibrated_operating_point,
    oam_mode,
    render_image,
    synthesize_ports,
)
from .qubit import (
    StateParams,
    partial_trace_env,
    postselect_env,
    projector_bloch,
    projector_from_ket,
    projector_h,
    projector_v,
    state_vector,
)
from .weak import (
    SliverCoupling,
    apply_sliver,
    gaussian_wavefunction,
    postselect_zero_momentum,
    reconstruct_profile,
    reconstruct_weak_value,
    true_ratio,
    uniform_wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "AzimuthalProfile",
    "ChargeOutOfRange",
    "DEFAULT_OAM",
    "DegenerateProfile",
    "DualityReport",
    "DualitySimError",
    "EmptyBin",
    "FieldImage",
    "GridSpec",
    "InvalidCoupling",
    "NoiseModel",
    "P_MIN",
    "SliverCoupling",
    "StateParams",
    "ZeroIntensity",
    "ZeroProbabilityPostselection",
    "apply_sliver",
    "averaged_duality",
    "azimuthal_profile",
    "calibrated_operating_point",
    "closed_form_averaged",
    "closed_form_conditional",
    "conditional_duality",
    "count_petals",
    "fringe_visibility",
    "gaussian_wavefunction",
    "oam_mode",
    "partial_trace_env",
    "postselect_env",
    "postselect_zero_momentum",
    "predictability",
    "predictability_from_arm_powers",
    "predictability_from_images",
    "predictability_from_profile",
    "projector_bloch",
    "projector_from_ket",
    "projector_h",
    "projector_v",
    "reconstruct_profile",
    "reconstruct_weak_value",
    "render_image",
    "state_vector",
    "synthesize_ports",
    "true_ratio",
    "unconditional_duality",
    "uniform_wavefunction",
    "visibility",
]
