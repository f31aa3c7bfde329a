"""Exception types shared across the package."""


class GameFormatError(ValueError):
    """A game definition violates a structural invariant."""


class DimensionError(ValueError):
    """Shapes of a game, policy, or tensor do not line up."""


class ErgodicityError(RuntimeError):
    """The induced state chain failed an ergodicity check.

    The message names the check that failed (eigenvalue multiplicity,
    singular solve, fixed-point residual). An error about one
    chain of a stacked call carries its position there as slice_index.
    """


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class ContractError(ValueError):
    """A call violated an interface contract (e.g. multi-player deviation)."""


class ScheduleError(ValueError):
    """A step-size or query-radius schedule is unusable as requested."""


class ConfigError(ValueError):
    """A generator or sweep configuration is invalid."""
