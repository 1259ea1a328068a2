"""Exceptions shared across the package."""


class ConstructionError(RuntimeError):
    """An expected combinatorial property failed on concrete data.

    Raised instead of silently patching the construction; ``witness`` carries
    the offending object (a sequence pair, a measured classification, ...) so
    the failure can be inspected and reported.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
