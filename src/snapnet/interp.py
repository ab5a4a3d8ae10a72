"""Reference evaluator for the policy language.

This is the oracle every other stage is tested against: a direct
transcription of the denotational equations (store x packet-set x log,
with conflict detection via log consistency).  Clarity over speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .errors import EvalError
from .values import (
    canon_key, check_int_range, format_value, test_match, values_equal,
)


class Undefined:
    """Result of a state-update conflict; a first-class value, not an error."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "Undefined"


UNDEFINED = Undefined()


# ---------------------------------------------------------------- packets

def pkt_key(pkt: dict) -> tuple:
    return tuple(sorted((f, canon_key(v)) for f, v in pkt.items()))


# ---------------------------------------------------------------- store

class Store:
    """Sparse total map: variable -> (index tuple -> value).

    Cells holding the declared default are never stored, so per-variable
    dict equality coincides with total-function equality.
    """

    __slots__ = ("decls", "cells")

    def __init__(self, decls: dict, cells: dict | None = None):
        self.decls = decls
        self.cells = cells if cells is not None else {v: {} for v in decls}

    @staticmethod
    def initial(prog: lang.Program) -> "Store":
        return Store(prog.states)

    def _key(self, idx: tuple) -> tuple:
        return tuple(canon_key(v) for v in idx)

    def get(self, var: str, idx: tuple):
        decl = self.decls[var]
        if len(idx) != decl.arity:
            raise EvalError(f"state {var}: index arity {len(idx)} != {decl.arity}")
        cell = self.cells[var].get(self._key(idx))
        return cell[1] if cell is not None else decl.default

    def set(self, var: str, idx: tuple, value) -> "Store":
        decl = self.decls[var]
        if len(idx) != decl.arity:
            raise EvalError(f"state {var}: index arity {len(idx)} != {decl.arity}")
        new_var = dict(self.cells[var])
        k = self._key(idx)
        if values_equal(value, decl.default):
            new_var.pop(k, None)
        else:
            new_var[k] = (idx, value)
        cells = dict(self.cells)
        cells[var] = new_var
        return Store(self.decls, cells)

    def var_map(self, var: str) -> dict:
        return self.cells[var]

    def __eq__(self, other):
        return isinstance(other, Store) and self.cells == other.cells

    def __hash__(self):
        return hash(tuple(sorted(
            (v, tuple(sorted(m.keys()))) for v, m in self.cells.items())))

    def __repr__(self):
        parts = []
        for var in sorted(self.cells):
            for k in sorted(self.cells[var]):
                idx, val = self.cells[var][k]
                idxs = "".join(f"[{format_value(i)}]" for i in idx)
                parts.append(f"{var}{idxs}={format_value(val)}")
        return "Store{" + ", ".join(parts) + "}"


# ---------------------------------------------------------------- results

@dataclass
class EvalResult:
    store: Store
    packets: dict          # pkt_key -> packet
    log: tuple             # sequence of ("R"|"W", var)

    def packet_list(self) -> list:
        return [self.packets[k] for k in sorted(self.packets)]


def consistent(l1: tuple, l2: tuple) -> bool:
    w1 = {v for k, v in l1 if k == "W"}
    r1 = {v for k, v in l1 if k == "R"}
    w2 = {v for k, v in l2 if k == "W"}
    r2 = {v for k, v in l2 if k == "R"}
    return not (w1 & (r2 | w2)) and not (w2 & r1)


def merge(m: Store, m1: Store, m2: Store) -> Store:
    """Per variable: m1's mapping where it changed relative to m, else m2's."""
    out = {}
    for var in m.cells:
        if m1.var_map(var) != m.var_map(var):
            out[var] = m1.var_map(var)
        else:
            out[var] = m2.var_map(var)
    return Store(m.decls, out)


def merge_many(m: Store, stores: list) -> Store:
    if not stores:
        return m
    acc = stores[-1]
    for s in reversed(stores[:-1]):
        acc = merge(m, s, acc)
    return acc


# ---------------------------------------------------------------- eval

def eval_expr(e, pkt: dict):
    if isinstance(e, lang.Lit):
        return e.value
    if isinstance(e, lang.FieldRef):
        if e.name not in pkt:
            raise EvalError(f"unknown field {e.name!r}")
        return pkt[e.name]
    if isinstance(e, lang.TupleExpr):
        return tuple(eval_expr(x, pkt) for x in e.items)
    raise EvalError(f"not an expression: {e!r}")


def eval_index(e, pkt: dict) -> tuple:
    v = eval_expr(e, pkt)
    return v if isinstance(e, lang.TupleExpr) else (v,)


def _one(pkt: dict) -> dict:
    return {pkt_key(pkt): pkt}


def _incr_value(old, delta: int):
    if isinstance(old, bool) or not isinstance(old, int):
        raise EvalError(f"++/-- on non-integer cell value {old!r}")
    return check_int_range(old + delta)


def eval(p, m: Store, pkt: dict):
    """The semantics equations; returns EvalResult or UNDEFINED."""
    if isinstance(p, lang.Id):
        return EvalResult(m, _one(pkt), ())
    if isinstance(p, lang.Drop):
        return EvalResult(m, {}, ())
    if isinstance(p, lang.Test):
        if p.field not in pkt:
            raise EvalError(f"unknown field {p.field!r}")
        ok = test_match(pkt[p.field], p.value)
        return EvalResult(m, _one(pkt) if ok else {}, ())
    if isinstance(p, lang.StateTest):
        cell = m.get(p.var, eval_index(p.index, pkt))
        ok = values_equal(cell, eval_expr(p.rhs, pkt))
        return EvalResult(m, _one(pkt) if ok else {}, (("R", p.var),))
    if isinstance(p, lang.Mod):
        if p.field not in pkt:
            raise EvalError(f"unknown field {p.field!r}")
        new = dict(pkt)
        new[p.field] = p.value
        return EvalResult(m, _one(new), ())
    if isinstance(p, lang.StateSet):
        m2 = m.set(p.var, eval_index(p.index, pkt), eval_expr(p.rhs, pkt))
        return EvalResult(m2, _one(pkt), (("W", p.var),))
    if isinstance(p, (lang.Incr, lang.Decr)):
        idx = eval_index(p.index, pkt)
        delta = 1 if isinstance(p, lang.Incr) else -1
        m2 = m.set(p.var, idx, _incr_value(m.get(p.var, idx), delta))
        return EvalResult(m2, _one(pkt), (("W", p.var),))
    if isinstance(p, lang.Neg):
        r = eval(p.p, m, pkt)
        if r is UNDEFINED:
            return UNDEFINED
        mine = _one(pkt)
        out = {k: v for k, v in mine.items() if k not in r.packets}
        return EvalResult(m, out, r.log)
    if isinstance(p, lang.Or):
        r1 = eval(p.p, m, pkt)
        r2 = eval(p.q, m, pkt)
        if r1 is UNDEFINED or r2 is UNDEFINED:
            return UNDEFINED
        return EvalResult(m, {**r1.packets, **r2.packets}, r1.log + r2.log)
    if isinstance(p, lang.And):
        r1 = eval(p.p, m, pkt)
        r2 = eval(p.q, m, pkt)
        if r1 is UNDEFINED or r2 is UNDEFINED:
            return UNDEFINED
        out = {k: v for k, v in r1.packets.items() if k in r2.packets}
        return EvalResult(m, out, r1.log + r2.log)
    if isinstance(p, lang.Par):
        r1 = eval(p.p, m, pkt)
        r2 = eval(p.q, m, pkt)
        if r1 is UNDEFINED or r2 is UNDEFINED:
            return UNDEFINED
        if not consistent(r1.log, r2.log):
            return UNDEFINED
        return EvalResult(merge(m, r1.store, r2.store),
                          {**r1.packets, **r2.packets}, r1.log + r2.log)
    if isinstance(p, lang.Seq):
        r1 = eval(p.p, m, pkt)
        if r1 is UNDEFINED:
            return UNDEFINED
        runs = []
        for k in sorted(r1.packets):
            r = eval(p.q, r1.store, r1.packets[k])
            if r is UNDEFINED:
                return UNDEFINED
            runs.append(r)
        for i in range(len(runs)):
            for j in range(i + 1, len(runs)):
                if not consistent(runs[i].log, runs[j].log):
                    return UNDEFINED
        if not runs:
            return EvalResult(r1.store, {}, r1.log)
        packets = {}
        log = r1.log
        for r in runs:
            packets.update(r.packets)
            log = log + r.log
        return EvalResult(merge_many(r1.store, [r.store for r in runs]),
                          packets, log)
    if isinstance(p, lang.If):
        rc = eval(p.cond, m, pkt)
        if rc is UNDEFINED:
            return UNDEFINED
        branch = p.then if rc.packets else p.els
        rb = eval(branch, m, pkt)
        if rb is UNDEFINED:
            return UNDEFINED
        return EvalResult(rb.store, rb.packets, rc.log + rb.log)
    if isinstance(p, lang.Atomic):
        return eval(p.p, m, pkt)
    raise EvalError(f"not a policy: {p!r}")


def eval_program(prog: lang.Program, m: Store, pkt: dict):
    """The program's policy (its assumption, then its body) on one
    packet."""
    return eval(prog.policy, m, pkt)
