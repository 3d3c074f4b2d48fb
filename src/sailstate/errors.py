"""Exception types shared across the pipeline."""

from __future__ import annotations


class SailstateError(Exception):
    """Base class for all errors raised by this package."""


class SourceError(SailstateError):
    """Error tied to a location in a source file."""

    def __init__(self, message: str, path: str = "<unknown>", line: int = 0, col: int = 0):
        self.path = path
        self.line = line
        self.col = col
        super().__init__(f"{path}:{line}:{col}: {message}")


class UnterminatedComment(SourceError):
    pass


class UnterminatedStringLiteral(SourceError):
    pass


class MalformedDeclaration(SourceError):
    pass


class DuplicateDefinition(SourceError):
    pass


class CrossFileDuplicate(SailstateError):
    pass


class IoError(SailstateError):
    """A corpus or fixture file could not be read or written."""


def read_text(path, what: str) -> str:
    """The UTF-8 text of `path`; a file that cannot be read is an IoError
    that names it as `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


class BackendConfigError(SailstateError):
    pass


class UnknownCsrAddress(SailstateError):
    pass


class MissingEntryFunction(SailstateError):
    """A backend entry function is not defined in the corpus.

    Raised whenever the baseline footprint is computed, which is the default
    for every subcommand that analyses a corpus.
    """


class UnknownState(SailstateError):
    pass


class UnknownMode(SailstateError):
    pass


class MalformedSExpression(SailstateError):
    def __init__(self, message: str, path: str = "<trace>", line: int = 0):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class MissingManifestEntry(SailstateError):
    pass


class TraceManifestError(SailstateError):
    pass


class MalformedLine(SailstateError):
    pass


class UnknownAction(SailstateError):
    pass


class PairMismatch(SailstateError):
    pass
