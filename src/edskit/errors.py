"""Exception types shared across the toolkit."""


class EdskitError(Exception):
    """Base class for all toolkit errors."""


class BadReduction(EdskitError):
    """The prime divides the curve discriminant."""


class PrimeTooLarge(EdskitError):
    """A number that must be fully factored was not within the budget.

    Raised for the discriminant, D_1 and the annihilator of a reduced point.
    """


class TrivialReduction(EdskitError):
    """The point reduces to the identity, so its order is undefined here."""


class TorsionPoint(EdskitError):
    """A multiple of the point hit infinity; the point is torsion."""


class NonSquareDenominator(EdskitError):
    """Reduced x-coordinate denominator is not a perfect square.

    Signals a violation of the integral-model assumption, not a bug in
    the caller.
    """


class TableMiss(EdskitError):
    """A required sequence index is outside the stored table range."""


class HypothesisViolated(EdskitError):
    """A theorem checker's hypotheses do not hold for the given input."""


class BudgetExceeded(EdskitError):
    """A search space or projected resource use exceeds the configured budget."""


class SoundnessError(EdskitError):
    """An internal consistency check failed; a result would be unsound.

    Raised instead of ``assert`` so the check survives ``python -O``.
    """
