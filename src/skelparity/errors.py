"""Exception types shared across the package.

Exit-code mapping used by the CLI: InputError -> 2, CapExceeded -> 3, and
4 for a run that cannot complete: InternalConsistencyError, a
``synthesis.SynthesisStageError`` outside ``synthesize`` (which reports it
as a failed property), ``RecursionError`` and ``MemoryError``.  Property
failures are ordinary results (reports with a witness), not exceptions.
"""

from contextlib import contextmanager


class InputError(ValueError):
    """Malformed or inadmissible input (bad alphabet, bad parameters, ...)."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed its resource cap.  ``stage`` names the
    pipeline stage whose enumeration hit it (see :func:`cap_stage`)."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap
        self.stage = None


@contextmanager
def cap_stage(stage: str):
    """Name ``stage`` on a :class:`CapExceeded` raised inside, unless an
    inner stage has named it already."""
    try:
        yield
    except CapExceeded as exc:
        if exc.stage is None:
            exc.stage = stage
        raise


class InfiniteIndexError(InputError):
    """The right congruence of the condition has infinitely many classes."""


class TransientTransitionError(InputError):
    """Priority assignment hit transitions that lie on no cycle."""

    def __init__(self, message: str, transitions):
        super().__init__(message)
        self.transitions = transitions


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class InternalConsistencyError(RuntimeError):
    """A structural law the pipeline relies on was violated at run time."""
