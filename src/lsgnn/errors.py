"""Exception types, and the rules of accepted values, shared across the package."""

import math
import operator
from typing import Any, Callable, NamedTuple


class LsgnnError(Exception):
    """Base class for all package-specific errors."""


class InputError(LsgnnError):
    """Bad user input: config values, flags, paths, array shapes or node ids
    passed in code, or a dataset that does not fit a checkpoint."""


class FormatError(LsgnnError):
    """A file is malformed: a dataset's edges.txt, features.csv or
    labels.txt, or a binary artifact that is corrupt or was written by an
    incompatible version."""


class DigestMismatchError(FormatError):
    """A stored artifact does not match the feature matrix it is being paired with."""


class NonFiniteOutputError(LsgnnError):
    """A model's outputs are not finite: its parameters overflow on these inputs."""


class TrainingDivergedError(LsgnnError):
    """Loss became non-finite during optimization, or, `after_update`, the
    epoch's update left a model whose outputs are not finite.  A loss at
    epoch 0 comes before any update, so its message names `inputs` and not
    the learning rate."""

    def __init__(self, epoch: int, lr: float, inputs: str = "the inputs", after_update: bool = False):
        self.epoch = epoch
        self.lr = lr
        if after_update:
            message = (f"the update at epoch {epoch} (lr={lr:g}) left non-finite outputs; "
                       f"try a smaller learning rate")
        elif epoch == 0:
            message = (f"loss was non-finite at epoch 0, before any update (lr={lr:g} is not at "
                       f"fault); check {inputs}")
        else:
            message = f"loss became non-finite at epoch {epoch} (lr={lr:g}); try a smaller learning rate"
        super().__init__(message)


class GenerationError(LsgnnError):
    """A synthetic graph could not be realized under the requested constraints."""


# --- accepted values ----------------------------------------------------------

_ENDS = {"[": operator.le, "(": operator.lt, "]": operator.le, ")": operator.lt}


class Rule(NamedTuple):
    """The values a setting accepts: `test(value)` holds for each of them, and
    `text` says which.  The rules the builders below make refuse NaN."""

    test: Callable[[Any], bool]
    text: str

    def check(self, name: str, value) -> None:
        """Refuse a value as InputError("<name> <text>, got <value>")."""
        if not self.test(value):
            raise InputError(f"{name} {self.text}, got {repr(value) if isinstance(value, str) else value}")

    @staticmethod
    def at_least(low: int) -> "Rule":
        return Rule(lambda v: v >= low, f"must be >= {low}")

    @staticmethod
    def within(low: float, high: float, ends: str = "[]") -> "Rule":
        """From `low` to `high`, each end closed or open as `ends` says; an
        infinite `high`, open, reads "must be finite and >= low" (or "> low")."""
        above, below = _ENDS[ends[0]], _ENDS[ends[1]]
        text = (f"must be finite and {'>=' if ends[0] == '[' else '>'} {low:g}" if high == math.inf
                else f"must lie in {ends[0]}{low:g}, {high:g}{ends[1]}")
        return Rule(lambda v: above(low, v) and below(v, high), text)

    @staticmethod
    def one_of(choices: tuple) -> "Rule":
        return Rule(lambda v: v in choices, f"must be one of {choices}")


def _check_rules(config) -> None:
    """Check a config's fields against its class's `RULES`, in table order."""
    for name, rule in config.RULES.items():
        rule.check(name, getattr(config, name))
