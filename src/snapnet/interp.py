"""Reference evaluator for the policy language.

This is the oracle every other stage is tested against: the denotational
equations (store x packet-set x log, with conflict detection via log
consistency), one function per equation, dispatched on the policy node's
type.  A result's packets are keyed by `pkt_key`; each packet's key is
computed once and handed down with the packet.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _incr_value(old, delta: int):
    if isinstance(old, bool) or not isinstance(old, int):
        raise EvalError(f"++/-- on non-integer cell value {old!r}")
    return check_int_range(old + delta)


# One function per equation.  Each takes the packet's key (`pkt_key(pkt)`)
# along with the packet, so a key is computed once per packet: at `eval`
# for the input, and at `_mod` for the one packet it makes.

def _id(p, m, pkt, key):
    return EvalResult(m, {key: pkt}, ())


def _drop(p, m, pkt, key):
    return EvalResult(m, {}, ())


def _test(p, m, pkt, key):
    if p.field not in pkt:
        raise EvalError(f"unknown field {p.field!r}")
    ok = test_match(pkt[p.field], p.value)
    return EvalResult(m, {key: pkt} if ok else {}, ())


def _state_test(p, m, pkt, key):
    cell = m.get(p.var, eval_index(p.index, pkt))
    ok = values_equal(cell, eval_expr(p.rhs, pkt))
    return EvalResult(m, {key: pkt} if ok else {}, (("R", p.var),))


def _mod(p, m, pkt, key):
    if p.field not in pkt:
        raise EvalError(f"unknown field {p.field!r}")
    new = dict(pkt)
    new[p.field] = p.value
    # Field names are unique, so the key's entries sort by field alone and
    # replacing the field's entry in place keeps the key sorted.
    i = bisect_left(key, (p.field,))
    new_key = key[:i] + ((p.field, canon_key(p.value)),) + key[i + 1:]
    return EvalResult(m, {new_key: new}, ())


def _state_set(p, m, pkt, key):
    m2 = m.set(p.var, eval_index(p.index, pkt), eval_expr(p.rhs, pkt))
    return EvalResult(m2, {key: pkt}, (("W", p.var),))


def _incr_decr(p, m, pkt, key):
    idx = eval_index(p.index, pkt)
    delta = 1 if type(p) is lang.Incr else -1
    m2 = m.set(p.var, idx, _incr_value(m.get(p.var, idx), delta))
    return EvalResult(m2, {key: pkt}, (("W", p.var),))


def _neg(p, m, pkt, key):
    r = _eval(p.p, m, pkt, key)
    if r is UNDEFINED:
        return UNDEFINED
    return EvalResult(m, {} if key in r.packets else {key: pkt}, r.log)


def _or(p, m, pkt, key):
    r1 = _eval(p.p, m, pkt, key)
    r2 = _eval(p.q, m, pkt, key)
    if r1 is UNDEFINED or r2 is UNDEFINED:
        return UNDEFINED
    return EvalResult(m, {**r1.packets, **r2.packets}, r1.log + r2.log)


def _and(p, m, pkt, key):
    r1 = _eval(p.p, m, pkt, key)
    r2 = _eval(p.q, m, pkt, key)
    if r1 is UNDEFINED or r2 is UNDEFINED:
        return UNDEFINED
    out = {k: v for k, v in r1.packets.items() if k in r2.packets}
    return EvalResult(m, out, r1.log + r2.log)


def _par(p, m, pkt, key):
    r1 = _eval(p.p, m, pkt, key)
    r2 = _eval(p.q, m, pkt, key)
    if r1 is UNDEFINED or r2 is UNDEFINED:
        return UNDEFINED
    if not consistent(r1.log, r2.log):
        return UNDEFINED
    return EvalResult(merge(m, r1.store, r2.store),
                      {**r1.packets, **r2.packets}, r1.log + r2.log)


def _seq(p, m, pkt, key):
    r1 = _eval(p.p, m, pkt, key)
    if r1 is UNDEFINED:
        return UNDEFINED
    runs = []
    for k in sorted(r1.packets):
        r = _eval(p.q, r1.store, r1.packets[k], k)
        if r is UNDEFINED:
            return UNDEFINED
        runs.append(r)
    if not runs:
        return EvalResult(r1.store, {}, r1.log)
    if len(runs) == 1:    # merge_many of one store is that store
        r = runs[0]
        return EvalResult(r.store, r.packets, r1.log + r.log)
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            if not consistent(runs[i].log, runs[j].log):
                return UNDEFINED
    packets = {}
    log = r1.log
    for r in runs:
        packets.update(r.packets)
        log = log + r.log
    return EvalResult(merge_many(r1.store, [r.store for r in runs]),
                      packets, log)


def _if(p, m, pkt, key):
    rc = _eval(p.cond, m, pkt, key)
    if rc is UNDEFINED:
        return UNDEFINED
    rb = _eval(p.then if rc.packets else p.els, m, pkt, key)
    if rb is UNDEFINED:
        return UNDEFINED
    return EvalResult(rb.store, rb.packets, rc.log + rb.log)


def _atomic(p, m, pkt, key):
    return _eval(p.p, m, pkt, key)


_RULES = {
    lang.Id: _id, lang.Drop: _drop, lang.Test: _test,
    lang.StateTest: _state_test, lang.Mod: _mod, lang.StateSet: _state_set,
    lang.Incr: _incr_decr, lang.Decr: _incr_decr, lang.Neg: _neg,
    lang.Or: _or, lang.And: _and, lang.Par: _par, lang.Seq: _seq,
    lang.If: _if, lang.Atomic: _atomic,
}


def _eval(p, m: Store, pkt: dict, key: tuple):
    rule = _RULES.get(type(p))
    if rule is None:
        raise EvalError(f"not a policy: {p!r}")
    return rule(p, m, pkt, key)


def eval(p, m: Store, pkt: dict):
    """The semantics equations; returns EvalResult or UNDEFINED."""
    return _eval(p, m, pkt, pkt_key(pkt))


def eval_program(prog: lang.Program, m: Store, pkt: dict):
    """The program's policy (its assumption, then its body) on one
    packet."""
    return eval(prog.policy, m, pkt)
