"""Exception types shared across the package."""


class WeylseqError(ValueError):
    """Base class for all library errors."""


class DimensionError(WeylseqError):
    """Matrix or vector shapes do not match what the operation requires."""


class HermiticityError(WeylseqError):
    """A matrix that must be Hermitian is not, beyond tolerance; `index` is
    its position in the stack that was checked."""


class GroupError(WeylseqError):
    """Invalid group specification or element outside the group."""


class InvalidMeasureError(WeylseqError):
    """Operator-valued measure violates positivity or normalization."""


class InvalidInstrumentError(WeylseqError):
    """A map is not completely positive or increases trace, or an
    instrument's total map is not trace preserving."""


class NotCovariantError(WeylseqError):
    """Instrument or observable fails the covariance requirement."""
