"""Exception types raised by the toolkit.

All domain errors derive from :class:`RydbergDoaError` so callers (and the
CLI) can distinguish physics/estimation failures from programming errors;
build_at turns a record's error into a config error naming its key.
"""

import numpy as np


class RydbergDoaError(Exception):
    """Base class for all domain errors."""


class DegenerateDetuning(RydbergDoaError):
    """A detuning combination makes a susceptibility denominator vanish."""


class SingularPoint(RydbergDoaError):
    """The intensity response is evaluated exactly at its singular point."""


class NonPositiveFluorescence(RydbergDoaError):
    """Fluorescence samples must be strictly positive to take a log."""


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


def build_at(path: str, make, *args, **kwargs):
    """make(*args, **kwargs) with its ValueError or domain error a config
    error naming path; config errors in the arguments stay unwrapped."""
    try:
        return make(*args, **kwargs)
    except (ValueError, RydbergDoaError) as exc:
        raise ConfigParseError(f"'{path}': {exc}") from exc


def read_only_copy(array, dtype=None) -> np.ndarray:
    """A read-only copy of array (cast to dtype if given), never a view."""
    copy = np.array(array, dtype=dtype)
    copy.flags.writeable = False
    return copy
