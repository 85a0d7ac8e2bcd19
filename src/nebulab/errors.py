"""Exception types shared across the library."""


class NebulabError(Exception):
    """Base class for library errors."""


class ParseError(NebulabError, ValueError):
    """Malformed input: a file or argument that breaks a documented precondition."""


class BudgetError(NebulabError):
    """An exact solver was asked to exceed its search budget."""


class NoDataError(NebulabError):
    """A computation drew too little data to produce its estimate."""


class InvariantError(NebulabError):
    """An internal invariant that should hold by construction was violated."""


class CoverageTieError(NebulabError):
    """Raised when a coverage tie makes the pair-fallback size bounds unachievable.

    Happens only for triples where both cumulative coverages cross the half
    threshold at the same step and no witness vertex triple exists; the
    guaranteed construction then cannot meet both half-size bounds.
    """


class LambdaTooLargeError(NebulabError):
    """Product extraction found no clique of compatible rows; the message says
    whether the density slack lies below the Turan threshold that guarantees one."""

    def __init__(self, lam, threshold):
        below = threshold is not None and lam < threshold
        super().__init__(
            f"no clique found: lambda {lam} is {'' if below else 'not '}below"
            f" the guarantee threshold {threshold}"
        )
        self.lam = lam
        self.threshold = threshold
