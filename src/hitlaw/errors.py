"""Exception types shared across the package.

Invalid arguments raise the built-in ``ValueError``; the classes here cover
failure modes that callers are expected to catch and handle (an orbit past
its precision, unsupported model shapes).  A run's ``operation_budget`` is
not one of them: ``hitlaw.experiments`` prices each item of a run before
computing it and truncates an item priced over the budget, so no library
function raises for cost.
"""


class PrecisionBudgetError(RuntimeError):
    """A fixed-point orbit was asked to run past its precision budget.

    Raised instead of silently rounding: an under-provisioned expanding-map
    orbit is not a simulation of the map.
    """


class UnsupportedConfigError(ValueError):
    """The model configuration does not match the shape an operation needs."""
