"""Configuration errors and the value rules every layer checks against.

A config field declares its rule once, with ``ruled(default, rule)``;
``check_fields`` enforces the rules of a whole dataclass, and the config
parser reads the same declaration.
"""

import math
import numbers
from dataclasses import field, fields
from typing import Callable, NamedTuple


class ConfigurationError(ValueError):
    """A physical or run parameter is outside its valid range."""


class ConfigFileError(ConfigurationError):
    """Config text could not be parsed; carries the offending line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class Rule(NamedTuple):
    """The valid range of one value: its text for messages and a predicate."""

    text: str
    ok: Callable

    def check(self, name: str, value):
        """``value`` if it meets the rule, else a ConfigurationError naming it."""
        if not self.ok(value):
            raise ConfigurationError(f"{name} must be {self.text}, got {value}")
        return value


def one_of(*choices: str) -> Rule:
    return Rule(f"one of {choices}", lambda v: v in choices)


# NaN fails every rule: each predicate is false for it.
FINITE = Rule("finite", math.isfinite)
NONNEG = Rule(">= 0 and finite", lambda v: 0 <= v < math.inf)
POSITIVE = Rule("positive and finite", lambda v: 0 < v < math.inf)
UNIT_INTERVAL = Rule("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
# numpy integers pass; a bool is an Integral but no seed.
SEED = Rule("an integer >= 0", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0)


def ruled(default, rule: Rule):
    """A dataclass field with ``default`` whose values must meet ``rule``."""
    return field(default=default, metadata={"rule": rule})


def check_fields(obj) -> None:
    """Raise ConfigurationError for the first ruled field of the dataclass
    ``obj`` whose value breaks its rule."""
    for f in fields(obj):
        if "rule" in f.metadata:
            f.metadata["rule"].check(f.name, getattr(obj, f.name))
