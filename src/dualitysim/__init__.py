"""Conditional wave-particle duality simulator and analysis toolkit.

A qubit (two orbital-angular-momentum modes) coupled to a qubit
environment (polarization): exact state algebra, visibility and
predictability measures with their conditional and probability-averaged
variants, scalar-field synthesis of the interferometer output images,
experiment-style fringe analysis, and the pointer-based weak-value scan.
"""

from types import ModuleType as _ModuleType

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
    GridSpec,
    NoiseModel,
    calibrated_operating_point,
    oam_mode,
    render_image,
    synthesize_ports,
)
from .qubit import (
    StateParams,
    amplitude_rows,
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

# The imports above are the one list of public names: every global they bind
# that is neither private nor a submodule is exported.
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))
