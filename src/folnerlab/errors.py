"""Shared exception types; the CLI maps them to exit codes."""


class GuardViolation(RuntimeError):
    """A size or search guard was exceeded (CLI exit code 3)."""


class HorizonExhausted(GuardViolation):
    """A bounded search ran out before meeting its target."""


class InvariantViolation(RuntimeError):
    """A declared invariant failed at runtime (CLI exit code 2)."""


class WordParseError(ValueError):
    """A generator word contained an unknown token."""


class LipschitzViolation(ValueError):
    """A dual witness exceeded its declared Lipschitz bound on the support."""


class ConfigError(ValueError):
    """An experiment config failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
