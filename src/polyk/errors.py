"""Shared exception types and the CLI exit-code contract."""

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL_ERROR = 2
EXIT_NOT_ISOMORPHIC = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal killed


class PolykError(Exception):
    """Base class for every error raised by this package."""


class InputError(PolykError):
    """Bad user input: unreadable file, parse failure, invalid polytope data."""


class InternalInvariantError(PolykError):
    """An exact-arithmetic invariant failed mid-pipeline.

    This never indicates bad input; it means some upstream geometry or sign
    computation is corrupt, so the run must abort loudly (CLI exit code 2).
    """
