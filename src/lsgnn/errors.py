"""Exception types shared across the package."""


class LsgnnError(Exception):
    """Base class for all package-specific errors."""


class InputError(LsgnnError):
    """Malformed user input: bad edge lists, node ids, shapes, or config values."""


class FormatError(LsgnnError):
    """A binary artifact is corrupt or was written by an incompatible version,
    or a dataset's features.csv or labels.txt is malformed."""


class DigestMismatchError(FormatError):
    """A stored artifact does not match the feature matrix it is being paired with."""


class TrainingDivergedError(LsgnnError):
    """Loss became non-finite during optimization."""

    def __init__(self, epoch: int, lr: float):
        self.epoch = epoch
        self.lr = lr
        super().__init__(
            f"loss became non-finite at epoch {epoch} (lr={lr:g}); "
            f"try a smaller learning rate"
        )


class GenerationError(LsgnnError):
    """A synthetic graph could not be realized under the requested constraints."""
