"""Exception types shared across the package."""

from __future__ import annotations


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GatherIndexError(IndexError):
    """A gather index falls outside the source row range."""

    def __init__(self, index: int, row_count: int):
        super().__init__(f"gather index {index} outside valid range [0, {row_count})")
        self.index = index
        self.row_count = row_count


class CapabilityError(ValueError):
    """The requested operation is not part of the supported op set."""


class ContractError(RuntimeError):
    """An API precondition was violated (reused tape, non-scalar loss, ...)."""


class StateCorruptionError(RuntimeError):
    """Persistent state (e.g. a running variance) holds an impossible value."""


class NumericError(ArithmeticError):
    """A non-finite value reached a block input, or an operation produced
    non-finite values from finite inputs."""


class FormatError(ValueError):
    """A serialized tensor file is malformed. Carries the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class AccountingError(RuntimeError):
    """A parameter or cost ledger disagrees with its closed form."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss. Carries the step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step
