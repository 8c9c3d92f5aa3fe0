"""Exception types shared across the package, and its one number gate."""

import math


def require_finite_positive(name: str, value) -> None:
    if not (value > 0 and math.isfinite(value)):  # NaN fails too
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


class ValueFieldError(Exception):
    """Base class for all errors raised by this package."""


class NotInBaseSet(ValueFieldError):
    """A number is not an element of the structure's base set."""


class MixedScales(ValueFieldError):
    """Arithmetic attempted between structures with different scale factors."""


class OutOfDomain(ValueFieldError):
    """A spacetime point lies outside the field's domain."""


class OutOfRange(ValueFieldError):
    """A time argument lies outside the profile's range."""


class NonFiniteIntegrand(ValueFieldError):
    """The integrand (or the field weight) is not finite at a quadrature node."""


class LeftDomain(ValueFieldError):
    """A trajectory exited the field's domain during integration."""


class StepUnstable(ValueFieldError):
    """An integration step failed its stability or conservation check."""


class NotNormalized(ValueFieldError):
    """A wave function is not normalized under the plain grid measure."""


class InvalidEnergy(ValueFieldError):
    """A particle energy below the rest energy was supplied."""


class InvalidBoundaries(ValueFieldError):
    """Era boundaries are unordered or outside the admissible range."""


class ConfigInvalid(ValueFieldError):
    """A scenario configuration failed validation."""
