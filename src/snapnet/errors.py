from __future__ import annotations


class CompileError(Exception):
    """Base for user-facing compilation failures (CLI exit code 1)."""


class ParseError(CompileError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class EvalError(Exception):
    """Runtime error in the reference evaluator (bad arity, overflow, ...)."""


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
