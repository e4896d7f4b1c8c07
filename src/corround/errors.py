"""Errors shared across modules."""


class CapExceeded(ValueError):
    """A construction would exceed its configured tractability cap."""


class SolverFailure(RuntimeError):
    """An LP did not come back optimal, or its solution is not a certified optimum."""
