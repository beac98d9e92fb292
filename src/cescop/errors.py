"""Exception types shared across the package."""


class CescopError(Exception):
    """Base class for all package errors."""


class SpecInvalid(CescopError):
    """A malformed input: a space descriptor (kind, arity, weight-class
    gate), a glue lemma id or a glue exponent that is missing, not a
    number or out of range, a dyadic-cover or almost-geometric direction,
    a discrete lemma id, sequence pair of different lengths or negative
    sequence, an oracle candidate kind or its number of params, or an
    exponent, coefficient, interval, quadrature config, weight, table or
    evaluation point out of range."""


class DegenerateOperator(CescopError):
    """A weight transform is identically zero or infinite on the window."""


class DivergentRepresentation(CescopError):
    """The representation integral of a fundamental function diverges."""


class ZeroMass(CescopError):
    """Dyadic cover requested for a function with zero total integral."""


class NoWitness(CescopError):
    """No almost-geometric witness could be found for a sequence."""


class EmptyFamily(CescopError):
    """Brute-force search invoked with no usable candidates."""


class UnsupportedRegime(CescopError):
    """No closed-form characterization covers the given exponents."""


class ConfigError(CescopError):
    """CLI configuration failed schema validation."""


class NumericOverflow(CescopError):
    """A finite result is too large to represent as a float."""
