"""Exception hierarchy shared by all modules.

Exit-code classes used by the CLI:
  parse and usage errors -> 2, precondition violations and inconsistent
  data -> 3, ambiguity -> 4, verification mismatches -> 5.
"""


class RoofcalcError(Exception):
    """Base class for every error raised by this package."""


class ParseError(RoofcalcError, ValueError):
    """Bundle-expression syntax error, annotated with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UsageError(RoofcalcError, ValueError):
    """A command-line value names no suite or file the tool can use."""


class RankError(RoofcalcError, ValueError):
    """Invalid or incompatible rank / block length."""


class DominanceError(RoofcalcError, ValueError):
    """A weight that must be non-increasing is not."""


class AmbientMismatchError(RoofcalcError, ValueError):
    """Two operands live on different Grassmannians."""


class NotGloballyGeneratedError(RoofcalcError, ValueError):
    """Bar moving applied to a weight whose total sequence is not ordered."""


class PlethysmRequiredError(RoofcalcError, ValueError):
    """Sym/wedge power requested of a non-atomic bundle expression."""


class AmbiguityError(RoofcalcError, ValueError):
    """An operation needed exact Hodge numbers but only intervals are known."""


class InjectivityViolationError(RoofcalcError, ValueError):
    """Middle-row subtraction went negative; restriction map cannot inject."""


class ExcludedCaseError(RoofcalcError, ValueError):
    """Parameters fall in the low-dimensional case the b2 derivation excludes."""


class MalformedContractionError(RoofcalcError, ValueError):
    """Kept nodes of a diagram contraction do not sit in a single component."""


class WorkLimitError(RoofcalcError, ValueError):
    """An input whose estimated work exceeds a fixed limit of the package."""


class InconsistentDataError(RoofcalcError, ArithmeticError):
    """Dimension data that admit no solution at one stage of a computation.

    The chase and the Hodge fixpoint apply theorems about a nonempty smooth
    zero locus of a general section; an empty zero locus or a special
    section can contradict them.  `stage` names where the contradiction
    showed.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


class MismatchError(RoofcalcError):
    """A verification check failed against its reference values."""
