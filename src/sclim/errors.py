"""Exception types shared across the kernel.

Every error raised by the kernel derives from `KernelError`, so callers
(notably the CLI) can distinguish bad input from a genuine bug.  The
subclasses are deliberately fine-grained: each one names the exact
mathematical obstruction it reports.
"""


class KernelError(Exception):
    """Base class for all kernel-level failures."""


class ZeroDenominator(KernelError):
    """A rational function was built or inverted with denominator zero."""


class PoleAtPoint(KernelError):
    """A scalar was evaluated at a point where its denominator vanishes."""


class PoleAtSample(PoleAtPoint):
    """A coefficient has a pole at one of the requested sample nodes."""


class PoleAtOne(PoleAtPoint):
    """A coefficient has a pole at 1, so the element has no fiber there."""


class DuplicateNode(KernelError):
    """Interpolation nodes must be pairwise distinct."""


class MixedPresentations(KernelError):
    """Two elements of different algebras were combined."""


class NotCommutativeAtOne(KernelError):
    """A commutator coefficient survives at the parameter value 1, so the
    fiber there is not commutative and no bracket can be extracted."""


class InsufficientSamples(KernelError):
    """Fewer sample nodes than the coefficient band requires."""


class InconsistentFamily(KernelError):
    """A family of fiber elements is not the evaluation of any element
    within the requested coefficient band."""


class BudgetExceeded(KernelError, RuntimeError):
    """A computation ran past one of the kernel's fixed caps (rounds or
    rewrite steps), or met itself again; the message names the cap."""


class ParseError(KernelError):
    """An expression or presentation file failed to parse."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
