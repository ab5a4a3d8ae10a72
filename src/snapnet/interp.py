"""Reference evaluator for the policy language.

This is the oracle every other stage is tested against: the denotational
equations (store x packet-set x log, with conflict detection via log
consistency).  A policy is compiled once into a tree of closures, one
closure per node, each the equation of its node's type (Feeley and
Lapalme, "Using Closures for Code Generation", 1987): the node's literal
keys, prefix tests, index and right-hand-side evaluators and log entries
are fixed when its closure is built, and it calls its children's
closures.  A program holds its compiled policy (`eval_program`), built on
its first evaluation.  A result's packets are keyed by `pkt_key`; each
packet's key is computed once and handed down with the packet.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import lang
from .errors import EvalError
from .values import (
    IPv4Address, IPv4Network, canon_key, check_int_range, format_value,
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
        """The store with cell var[idx] set to value; this store itself
        when the cell already holds a value of the same canonical key."""
        decl = self.decls[var]
        if len(idx) != decl.arity:
            raise EvalError(f"state {var}: index arity {len(idx)} != {decl.arity}")
        k = self._key(idx)
        cell = self.cells[var].get(k)
        want = canon_key(value)
        if want == canon_key(cell[1] if cell is not None else decl.default):
            return self
        new_var = dict(self.cells[var])
        if want == canon_key(decl.default):
            del new_var[k]
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

def _incr_value(old, delta: int):
    if isinstance(old, bool) or not isinstance(old, int):
        raise EvalError(f"++/-- on non-integer cell value {old!r}")
    return check_int_range(old + delta)


def _compile(p):
    """The closure `run(m, pkt, key)` for policy node p, built once: the
    equation of p's node type with p's literals, tests and log entries
    fixed and its children compiled.  `key` is `pkt_key(pkt)`, computed
    once per packet: by `eval` for the input, and by a modification for
    the one packet it makes.  `run` returns UNDEFINED or the tuple
    (store, packets, log) of an `EvalResult`."""
    t = type(p)
    if t is lang.Id:
        def run(m, pkt, key):
            return m, {key: pkt}, ()
    elif t is lang.Drop:
        def run(m, pkt, key):
            return m, {}, ()
    elif t is lang.Test:
        field, match = p.field, _matcher(p.value)

        def run(m, pkt, key):
            if field not in pkt:
                raise EvalError(f"unknown field {field!r}")
            return m, {key: pkt} if match(pkt[field]) else {}, ()
    elif t is lang.StateTest:
        var, index, rhs = p.var, _index(p.index), _expr_key(p.rhs)
        log = (("R", var),)

        def run(m, pkt, key):
            ok = canon_key(m.get(var, index(pkt))) == rhs(pkt)
            return m, {key: pkt} if ok else {}, log
    elif t is lang.Mod:
        field, value = p.field, p.value
        entry = ((field, canon_key(value)),)

        def run(m, pkt, key):
            if field not in pkt:
                raise EvalError(f"unknown field {field!r}")
            new = dict(pkt)
            new[field] = value
            # Field names are unique, so the key's entries sort by field
            # alone and replacing the field's entry in place keeps the key
            # sorted.
            i = bisect_left(key, (field,))
            return m, {key[:i] + entry + key[i + 1:]: new}, ()
    elif t is lang.StateSet:
        var, index, rhs = p.var, _index(p.index), _expr(p.rhs)
        log = (("W", var),)

        def run(m, pkt, key):
            return m.set(var, index(pkt), rhs(pkt)), {key: pkt}, log
    elif t is lang.Incr or t is lang.Decr:
        var, index = p.var, _index(p.index)
        delta = 1 if t is lang.Incr else -1
        log = (("W", var),)

        def run(m, pkt, key):
            idx = index(pkt)
            m2 = m.set(var, idx, _incr_value(m.get(var, idx), delta))
            return m2, {key: pkt}, log
    elif t is lang.Neg:
        inner = _compile(p.p)

        def run(m, pkt, key):
            r = inner(m, pkt, key)
            if r is UNDEFINED:
                return r
            return m, {} if key in r[1] else {key: pkt}, r[2]
    elif t is lang.Or:
        left, right = _compile(p.p), _compile(p.q)

        def run(m, pkt, key):
            r1 = left(m, pkt, key)
            r2 = right(m, pkt, key)
            if r1 is UNDEFINED or r2 is UNDEFINED:
                return UNDEFINED
            return m, {**r1[1], **r2[1]}, r1[2] + r2[2]
    elif t is lang.And:
        left, right = _compile(p.p), _compile(p.q)

        def run(m, pkt, key):
            r1 = left(m, pkt, key)
            r2 = right(m, pkt, key)
            if r1 is UNDEFINED or r2 is UNDEFINED:
                return UNDEFINED
            both = r2[1]
            return (m, {k: v for k, v in r1[1].items() if k in both},
                    r1[2] + r2[2])
    elif t is lang.Par:
        left, right = _compile(p.p), _compile(p.q)

        def run(m, pkt, key):
            r1 = left(m, pkt, key)
            r2 = right(m, pkt, key)
            if r1 is UNDEFINED or r2 is UNDEFINED:
                return UNDEFINED
            if not consistent(r1[2], r2[2]):
                return UNDEFINED
            return (merge(m, r1[0], r2[0]), {**r1[1], **r2[1]},
                    r1[2] + r2[2])
    elif t is lang.Seq:
        first, then = _compile(p.p), _compile(p.q)

        def run(m, pkt, key):
            r1 = first(m, pkt, key)
            if r1 is UNDEFINED:
                return r1
            m1, packets1, log1 = r1
            if len(packets1) < 2:
                if not packets1:
                    return r1
                # merge_many of one store is that store
                ((k, q),) = packets1.items()
                r = then(m1, q, k)
                if r is UNDEFINED:
                    return r
                return r[0], r[1], log1 + r[2]
            runs = []
            for k in sorted(packets1):
                r = then(m1, packets1[k], k)
                if r is UNDEFINED:
                    return r
                runs.append(r)
            for i in range(len(runs)):
                for j in range(i + 1, len(runs)):
                    if not consistent(runs[i][2], runs[j][2]):
                        return UNDEFINED
            packets = {}
            log = log1
            for r in runs:
                packets.update(r[1])
                log = log + r[2]
            return merge_many(m1, [r[0] for r in runs]), packets, log
    elif t is lang.If:
        cond, then, els = _compile(p.cond), _compile(p.then), _compile(p.els)

        def run(m, pkt, key):
            rc = cond(m, pkt, key)
            if rc is UNDEFINED:
                return rc
            rb = (then if rc[1] else els)(m, pkt, key)
            if rb is UNDEFINED:
                return rb
            return rb[0], rb[1], rc[2] + rb[2]
    elif t is lang.Atomic:
        run = _compile(p.p)
    else:
        def run(m, pkt, key):
            raise EvalError(f"not a policy: {p!r}")
    return run


def _matcher(value):
    """The field test `f = value` as a predicate on f's value: containment
    when value is a prefix (`values.test_match`), else equal keys."""
    t = type(value)
    if t is IPv4Network:
        mask, base = int(value.netmask), int(value.network_address)
        return lambda v: isinstance(v, IPv4Address) and int(v) & mask == base
    if t is int or t is IPv4Address:
        # equal keys: the same type and the same int or address
        return lambda v: type(v) is t and v == value
    want = canon_key(value)
    return lambda v: canon_key(v) == want


def _expr(e):
    """The value of expression e on a packet, as a closure built once: a
    literal's value, a field's value, or a tuple of its items' values."""
    t = type(e)
    if t is lang.Lit:
        value = e.value
        return lambda pkt: value
    if t is lang.FieldRef:
        name = e.name

        def field(pkt):
            if name not in pkt:
                raise EvalError(f"unknown field {name!r}")
            return pkt[name]
        return field
    if t is lang.TupleExpr:
        items = tuple(map(_expr, e.items))
        return lambda pkt: tuple(item(pkt) for item in items)

    def bad(pkt):
        raise EvalError(f"not an expression: {e!r}")
    return bad


def _expr_key(e):
    """`canon_key` of `_expr(e)`'s value, as a closure built once."""
    if type(e) is lang.Lit:
        want = canon_key(e.value)
        return lambda pkt: want
    value = _expr(e)
    return lambda pkt: canon_key(value(pkt))


def _index(e):
    """The index tuple expression e gives on a packet, as a closure built
    once: a tuple expression's value, else the 1-tuple of e's value."""
    value = _expr(e)
    if type(e) is lang.TupleExpr:
        return value
    return lambda pkt: (value(pkt),)


def _result(r):
    return r if r is UNDEFINED else EvalResult(*r)


def eval(p, m: Store, pkt: dict):
    """The semantics equations; returns EvalResult or UNDEFINED.  Compiles
    p on every call: `eval_program` compiles a program once."""
    return _result(_compile(p)(m, pkt, pkt_key(pkt)))


def eval_program(prog: lang.Program, m: Store, pkt: dict):
    """The program's policy (its assumption, then its body) on one
    packet.  The program holds its compiled policy, built on its first
    evaluation, so the closures live and die with it."""
    run = prog.__dict__.get("_run")
    if run is None:
        run = _compile(prog.policy)
        object.__setattr__(prog, "_run", run)   # a frozen dataclass
    return _result(run(m, pkt, pkt_key(pkt)))
