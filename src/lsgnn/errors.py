"""Exception types shared across the package."""


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
