"""Exception types shared across the package."""


class MixedPagesError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeError(MixedPagesError):
    """An edge endpoint is outside 0..n-1."""


class DuplicateEdgeError(MixedPagesError):
    """A parallel edge was given without the multi flag."""


class BadEdgeIdError(MixedPagesError):
    """An edge index does not exist in the graph."""


class CoverageMismatchError(MixedPagesError):
    """A page assignment does not cover exactly the graph's edges."""


class NotSeparatedError(MixedPagesError):
    """The layout has no cut with all left endpoints before all right ones."""


class NotMatchingError(MixedPagesError):
    """The graph has a vertex of degree at least two."""


class ParseError(MixedPagesError):
    """Malformed text input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadParamsError(MixedPagesError):
    """Construction parameters outside the family's valid range."""


class SizeLimitError(MixedPagesError):
    """An exact search exceeded its configured budget."""


class InternalError(MixedPagesError):
    """A result failed the package's own consistency check: a defect here,
    not in the input."""


class BudgetExceededError(MixedPagesError):
    """A solver run hit its node budget before finishing."""

    def __init__(self, message: str = "search budget exceeded", nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


class InsufficientInputError(MixedPagesError):
    """The subdivision procedure ran out of points to recurse on."""


class InvalidPageError(MixedPagesError):
    """An edge set handed to a page-local routine is not a valid page."""


class InvalidInputError(MixedPagesError):
    """Inconsistent or out-of-range arguments, such as a layout that does not
    fit its graph or a worker count below one."""


class DepthExceededError(MixedPagesError):
    """Quotient iteration did not stabilize; carries the extracted witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
