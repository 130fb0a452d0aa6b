"""Exception types shared across the solver."""


class DomainViolation(RuntimeError):
    """A functional value or state left the admissible region of its definition."""


class InvalidInitialData(DomainViolation):
    """Initial history segment is not strictly inside the admissible domain."""


class HypothesisViolation(RuntimeError):
    """A structural hypothesis (contraction budget, smallness condition) fails."""


class NumericalBlowup(RuntimeError):
    """Non-finite values appeared during iteration."""


class OracleUnavailable(RuntimeError):
    """The reference solver could not produce a trustworthy fine-grid solution."""


class InsufficientSamples(RuntimeError):
    """Every sampled pair was degenerate; no Lipschitz ratio could be formed."""


class SchemaError(ValueError):
    """Configuration text violates the documented schema."""
