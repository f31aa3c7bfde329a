"""Exception types shared across the package.

Every error the package raises on purpose is an SglError, and each also
keeps its built-in base (ValueError, or RuntimeError for ErgodicityError).
The CLI exits 1 on an SglError; any other exception is a defect, exit 2.
"""


class SglError(Exception):
    """An input or request the package refuses."""


class GameFormatError(SglError, ValueError):
    """A game definition violates a structural invariant."""


class DimensionError(SglError, ValueError):
    """Shapes of a game, policy, or tensor do not line up."""


class ErgodicityError(SglError, RuntimeError):
    """The induced state chain failed an ergodicity check.

    The message names the check that failed (eigenvalue multiplicity,
    singular solve, fixed-point residual). An error about one chain or
    profile of a stacked call carries its position there as slice_index,
    and only there: its message reads as that chain's or profile's own.
    """


class DomainError(SglError, ValueError):
    """An argument lies outside the operation's domain."""


class ContractError(SglError, ValueError):
    """A call violated an interface contract (e.g. multi-player deviation)."""


class ScheduleError(SglError, ValueError):
    """A step-size or query-radius schedule is unusable as requested."""


class ConfigError(SglError, ValueError):
    """A generator or sweep configuration is invalid."""
