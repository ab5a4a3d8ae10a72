from __future__ import annotations


class CompileError(Exception):
    """Base for user-facing compilation failures (CLI exit code 1)."""


class ParseError(CompileError):
    """A program that does not parse or check, at `line:col` if the error
    has a position (a conflict between composed programs has none)."""

    def __init__(self, msg: str, line=None, col=None):
        super().__init__(msg if line is None else f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class EvalError(Exception):
    """Runtime error in the reference evaluator (a missing field, ...)."""


class RaceError(CompileError):
    """A leaf acquired parallel updates (or update/read) on one variable."""

    def __init__(self, var: str):
        super().__init__(f"conflicting parallel access to state variable '{var}'")
        self.var = var


class UnsupportedCompositionError(CompileError):
    def __init__(self, var: str, why: str):
        super().__init__(f"cannot compose pending update to '{var}': {why}")
        self.var = var


class InfeasibleError(Exception):
    """No placement/routing satisfies the constraints (CLI exit code 2)."""


class InputError(ValueError):
    """A malformed topology or placement file (CLI exit code 3)."""
