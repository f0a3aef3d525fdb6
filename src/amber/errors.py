"""Exceptions shared across the package."""


class DataValidationError(ValueError):
    """Raised when an input file (dataset, config, checkpoint, report) fails validation.

    `line` is the 1-based line number in the offending file when the
    failure is attributable to a specific line.
    """

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if line is not None:
            prefix += f"line {line}: "
        super().__init__(prefix + message)


class NumericalAbortError(RuntimeError):
    """Raised when training hits a non-finite loss or gradient."""

    def __init__(self, message, epoch=None, batch=None):
        self.epoch = epoch
        self.batch = batch
        where = ""
        if epoch is not None:
            where = f" (epoch {epoch}" + (f", batch {batch}" if batch is not None else "") + ")"
        super().__init__(message + where)


class WorkerDiedError(RuntimeError):
    """Raised when a `cross_validate` worker process dies mid-run."""
