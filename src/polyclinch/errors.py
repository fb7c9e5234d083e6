"""Exception hierarchy shared across the package."""


class ClinchError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ClinchError, ValueError):
    """An argument is outside the domain an operation accepts."""


class SizeError(ClinchError):
    """A brute-force enumeration cap was exceeded, or a dimension is unsupported."""


class PreconditionError(DomainError):
    """A documented precondition failed; carries a machine-checkable witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DivergenceError(ClinchError):
    """An auction exceeded its step budget without demands reaching zero.

    Carries the state it stopped in: ``step``, the number of steps run;
    ``prices``, the clock prices it stopped at; ``demands``, the demands
    after the last step's clinch.
    """

    def __init__(self, message, step=None, prices=None, demands=None):
        super().__init__(message)
        self.step = step
        self.prices = prices
        self.demands = demands


class ParseError(DomainError):
    """An instance file failed validation; carries an error code and field path."""

    def __init__(self, code, field, message):
        super().__init__(message)
        self.code = code
        self.field = field
