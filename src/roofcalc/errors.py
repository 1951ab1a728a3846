"""Exception hierarchy shared by all modules, and the CLI's exit-code table.

Each class carries the exit code `roofcalc.cli.main` returns for it and the
label that opens its one stderr line: 2 parse and usage errors, 3
precondition violations (the default, inconsistent data included), 4
ambiguity, 5 verification mismatches.
"""


class RoofcalcError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 3
    label = "precondition violated"

    def cli_line(self) -> str:
        """The single stderr line the CLI prints for this error."""
        return f"{self.label}: {self}"


class ParseError(RoofcalcError, ValueError):
    """Bundle-expression syntax error, annotated with a byte offset."""

    exit_code = 2
    label = "parse error"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UsageError(RoofcalcError, ValueError):
    """A command-line value names no suite or file the tool can use."""

    exit_code = 2
    label = "usage error"


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

    exit_code = 4
    label = "ambiguous result"


class InjectivityViolationError(RoofcalcError, ValueError):
    """Middle-row subtraction went negative; restriction map cannot inject."""

    exit_code = 5
    label = "verification mismatch"


class ExcludedCaseError(RoofcalcError, ValueError):
    """Parameters fall in the low-dimensional case the b2 derivation excludes."""


class MalformedContractionError(RoofcalcError, ValueError):
    """Kept nodes of a diagram contraction do not sit in a single component."""


class WorkLimitError(RoofcalcError, ValueError):
    """An input whose estimated work exceeds a fixed limit of the package."""


class EmptyZeroLocusError(RoofcalcError, ValueError):
    """The zero locus of a general section is empty: its degree is 0."""


class InconsistentDataError(RoofcalcError, ArithmeticError):
    """Dimension data that admit no solution at one stage of a computation.

    The chase (its conormal columns and the Hodge symmetry fixpoint, which
    share one constraint engine) and the Lefschetz middle row apply
    theorems about a smooth zero locus of a general section.  Emptiness is
    decided before any of them (by degree for F not ample; ample F is never
    empty, by Fulton-Lazarsfeld), so what can contradict them is a special
    section.  `stage` names where the contradiction showed.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage

    def cli_line(self) -> str:
        return f"{self.label} in the {self.stage}: {self}; the section may not be general"
