"""Exception types shared across the package.

Division by zero is reported with the built-in ZeroDivisionError; everything
else domain-specific gets a named class here so callers can catch precisely.
"""


class ZeroConstantTerm(ValueError):
    """Series inversion requires a nonzero constant coefficient."""


class RadicandMismatch(ValueError):
    """Arithmetic between two irrational surds over different radicands."""


class ColumnMismatch(ValueError):
    """Matrix column count disagrees with the stated ambient dimension."""


class SlopeOrderViolation(ValueError):
    """An operation requiring strictly increasing slopes got equal or reversed ones."""


class NotSimple(ValueError):
    """Rank and degree share a common factor; the pair is outside the model."""


class NotMutable(RuntimeError):
    """The requested mutation would produce rank <= 0.

    `member` names the triad component ("a", "b" or "c") whose mutation failed,
    when the failure happened inside a triad step.
    """

    def __init__(self, message: str, member: str | None = None):
        super().__init__(message)
        self.member = member


class InvalidSeed(ValueError):
    """Seed slopes must be strictly increasing rationals."""


class TableTooShort(ValueError):
    """Periodicity checks need at least five table rows."""


class UnsupportedD(ValueError):
    """A parameter d outside what the requested formula covers.

    The closed forms, limits and verify's d range need odd d >= 5, the
    equigenerated model needs an integer d >= 3, and the Hilbert cross check
    covers d = 3 and odd d >= 5.
    """


class NotEquigeneratedSeed(ValueError):
    """The ratio bound applies only to (0, d/2, d) tables with d >= 5."""


class DimensionCapExceeded(RuntimeError):
    """A tensor-power ambient dimension or a dense dual block exceeded the cap."""
