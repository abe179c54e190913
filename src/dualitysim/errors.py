"""Shared exception types and numeric thresholds."""

P_MIN = 1e-12
"""Smallest postselection probability (or amplitude) treated as physical."""


class DualitySimError(Exception):
    """Base class for all errors raised by this package."""


class ZeroProbabilityPostselection(DualitySimError):
    """Postselection probability fell below the validity threshold.

    The conditional state is undefined; there is nothing to normalize.
    """


class EmptyBin(DualitySimError):
    """An angular window of an azimuthal profile contains no pixels."""


class DegenerateProfile(DualitySimError):
    """Azimuthal profile has no usable signal (zero or negative baseline)."""


class ZeroIntensity(DualitySimError):
    """Total intensity is too small to form an intensity ratio."""


class InvalidCoupling(DualitySimError):
    """Sliver coupling angle is invalid for the requested operation."""
