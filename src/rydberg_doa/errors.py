"""Exception types raised by the toolkit.

All domain errors derive from :class:`RydbergDoaError` so callers (and the
CLI) can distinguish physics/estimation failures from programming errors.
"""


class RydbergDoaError(Exception):
    """Base class for all domain errors."""


class DegenerateDetuning(RydbergDoaError):
    """A detuning combination makes a susceptibility denominator vanish."""


class SingularPoint(RydbergDoaError):
    """The intensity response is evaluated exactly at its singular point."""


class NonPositiveFluorescence(RydbergDoaError):
    """Fluorescence samples must be strictly positive to take a log."""


class WindowOutOfCell(RydbergDoaError):
    """A virtual window extends outside the sampled cell."""


class ZeroSignalPower(RydbergDoaError):
    """SNR-relative noise is undefined for a constant measurement vector."""


class InsufficientSamples(RydbergDoaError):
    """Too few channel samples for the requested prediction order."""


class RootfindingFailure(RydbergDoaError):
    """Polynomial root residuals stayed above tolerance."""


class InsufficientSignalRoots(RydbergDoaError):
    """Fewer near-unit-circle root pairs than requested targets."""


class SingularNuisanceBlock(RydbergDoaError):
    """Nuisance block of the Fisher matrix cannot be inverted."""


class EndFireSingularity(RydbergDoaError):
    """Angle-domain bound diverges for targets at +/-90 degrees."""


class ConfigParseError(RydbergDoaError):
    """Run configuration is malformed (unknown/missing/ill-typed keys)."""


class SchemaError(RydbergDoaError):
    """An input file does not match its documented schema."""


class LoDominanceWarning(UserWarning):
    """Linearized model used outside the LO-dominant regime."""
