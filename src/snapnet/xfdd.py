"""Extended forwarding decision diagrams.

Branch nodes test one of three test kinds (field=value, field=field,
state-cell=expr) in a global total order (`test_key`); leaves hold
sets of action sequences.  Construction goes through a hash-consing
arena; composition operators carry a Context of path facts so
contradicting and redundant tests never survive in the result.  One
place decides a test that becomes a node (`Builder._ctx2`): it asks
whether the facts imply the test or its negation, and adds a fact only
for a test they leave open.

As in a BDD package, union and intersection are one pair walk
(`Builder._apply`) that differ only in how they combine two leaves; the
leaf passes (merging outputs, stripping annotations, assembling
fan-out) are one leaf map (`Builder._map_leaves`); and sequencing and
if-then-else are one walk (`Builder._walk`) that decides each test of
their first operand with one split (`Builder._split`, `Builder._ite`)
and runs at each of its leaves the second operand or, as the evaluator
does, the branch the predicate picks.  Below the split's top, the walk
restricts under the path facts only a half that missed a fact it added.

Like a BDD package's computed table, the Builder keeps the result of
each leaf function that reads no path context (merging by effect, the
fan-out map, composing one run with a leaf and sorting by `elem_key`),
keyed only by node ids, element sets and runs, which the arena interns.
None is keyed by a Context: such a table made the build slower through
cyclic-GC work.

Conflict detection mirrors the evaluator's log discipline exactly:
parallel composition checks its two operands' read/write sets against
each other, and sequential composition checks the per-output-packet runs
of the second operand pairwise.  Reads that were statically resolved
against pending updates still count as reads (they are reads in the
corresponding run's log).

A test, an action atom and an expression each have one JSON form, a
case of `TEST`, `ATOM` or `EXPR` that names its class and whose keys
are that class's fields; one writer and one reader (`to_json`,
`from_json`) walk the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .deps import OrderSpec, expr_key
from .errors import RaceError, UnsupportedCompositionError
from .shape import Tagged
from .values import (
    IPv4Network, canon_key, format_value, in_prefix, test_match,
    value_from_json, value_to_json, values_equal,
)


# ---------------------------------------------------------------- tests

# Tests hash once (`lang.hash_once`): the arena's node table, the
# computed tables and the path facts' masks look them up.

@lang.hash_once
class TFieldValue:
    field: str
    value: object


@lang.hash_once
class TFieldField:
    f1: str
    f2: str

    def __post_init__(self):
        if not self.f1 < self.f2:
            raise ValueError(f"field-field test of {self.f1!r} and "
                             f"{self.f2!r} is not canonical: f1 must sort "
                             "before f2")


@lang.hash_once
class TStateTest:
    var: str
    index: object   # lang Expr
    rhs: object     # lang Expr

    def __post_init__(self):
        # the keys the test order and the path facts read, once per test
        object.__setattr__(self, "index_key", expr_key(self.index))
        object.__setattr__(self, "rhs_key", expr_key(self.rhs))


def test_key(order: OrderSpec, t) -> tuple:
    """Total order on tests: field-value < field-field < state tests, and
    state tests by their variable's rank in `order`."""
    if isinstance(t, TFieldValue):
        return (0, t.field, canon_key(t.value))
    if isinstance(t, TFieldField):
        return (1, t.f1, t.f2)
    if isinstance(t, TStateTest):
        return (2, order.state_rank[t.var], t.index_key, t.rhs_key)
    raise TypeError(f"not a test: {t!r}")


def make_ff(f: str, g: str) -> TFieldField:
    return TFieldField(min(f, g), max(f, g))


def format_test(t) -> str:
    if isinstance(t, TFieldValue):
        return f"{t.field} = {format_value(t.value)}"
    if isinstance(t, TFieldField):
        return f"{t.f1} = {t.f2}"
    if isinstance(t, TStateTest):
        return (f"{t.var}[{lang.pretty_expr(t.index)}] = "
                f"{lang.pretty_expr(t.rhs)}")
    raise TypeError(f"not a test: {t!r}")


# ---------------------------------------------------------------- atoms

class _Drop:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "DROP"


DROP = _Drop()

# Action atoms reuse the lang node classes: Mod, StateSet, Incr, Decr.


def subst_expr(e, subst: dict):
    if isinstance(e, lang.Lit):
        return e if e.span is None else lang.Lit(e.value)
    if isinstance(e, lang.FieldRef):
        if e.name in subst:
            return lang.Lit(subst[e.name])
        return e if e.span is None else lang.FieldRef(e.name)
    if isinstance(e, lang.TupleExpr):
        return lang.TupleExpr(tuple(subst_expr(x, subst) for x in e.items))
    raise TypeError(f"not an expr: {e!r}")


def canon_seq(atoms: tuple) -> tuple:
    """Canonical action sequence: state ops (index/rhs expressions rewritten
    to refer to the entry packet) stably sorted by variable, then surviving
    field mods sorted by field, then an optional trailing drop."""
    subst: dict = {}
    state_ops = []
    dropped = False
    for a in atoms:
        if a is DROP:
            dropped = True
            break
        if isinstance(a, lang.Mod):
            subst[a.field] = a.value
        elif isinstance(a, lang.StateSet):
            state_ops.append(lang.StateSet(
                a.var, subst_expr(a.index, subst), subst_expr(a.rhs, subst)))
        elif isinstance(a, lang.Incr):
            state_ops.append(lang.Incr(a.var, subst_expr(a.index, subst)))
        elif isinstance(a, lang.Decr):
            state_ops.append(lang.Decr(a.var, subst_expr(a.index, subst)))
        else:
            raise TypeError(f"not an action atom: {a!r}")
    state_ops.sort(key=lambda a: a.var)   # stable: same-var order preserved
    tail: tuple = ()
    if dropped:
        tail = (DROP,)
    else:
        tail = tuple(lang.Mod(f, subst[f]) for f in sorted(subst))
    return tuple(state_ops) + tail


def seq_writes(atoms: tuple) -> frozenset:
    return frozenset(a.var for a in atoms if lang.is_state_op(a))


def seq_state_ops(atoms: tuple) -> tuple:
    if isinstance(atoms, Poison):
        return ()
    return tuple(a for a in atoms if lang.is_state_op(a))


def seq_effect(atoms: tuple) -> tuple:
    """The packet-effect part (mods + drop flag) of a canonical sequence."""
    mods = tuple(a for a in atoms if isinstance(a, lang.Mod))
    dropped = atoms[-1] is DROP if atoms else False
    return (mods, dropped)


DROP_SEQ = (DROP,)


@dataclass(frozen=True)
class Poison:
    """Leaf marker for a detected update conflict.  Raising is deferred to
    the final reachability check so conflicts inside branches that later
    composition prunes away (code the evaluator never runs) stay silent."""
    var: str


def atom_key(a) -> tuple:
    if a is DROP:
        return (9,)
    if isinstance(a, lang.Mod):
        return (1, a.field, canon_key(a.value))
    if isinstance(a, lang.StateSet):
        return (2, a.var, expr_key(a.index), expr_key(a.rhs))
    if isinstance(a, lang.Incr):
        return (3, a.var, expr_key(a.index))
    if isinstance(a, lang.Decr):
        return (4, a.var, expr_key(a.index))
    raise TypeError(f"not an action atom: {a!r}")


def elem_key(e) -> tuple:
    if isinstance(e, Poison):
        return ((99, e.var),)
    atoms = e.atoms if isinstance(e, AnnotatedSeq) else e
    return tuple(atom_key(a) for a in atoms)


@dataclass(frozen=True)
class AnnotatedSeq:
    """Leaf element carrying per-run bookkeeping during checked unions.
    Built only by `annotated`, so a run with nothing to note stays a plain
    tuple and each run has one form in the arena."""
    atoms: tuple
    qw: frozenset        # state vars written by this run's second phase
    qr: frozenset        # state vars read by this run (incl. resolved reads)
    pops: tuple          # ((var, count), ...): leading first-phase ops per var


def annotated(atoms: tuple, qw: frozenset, qr: frozenset, pops: tuple):
    """The run `atoms` with its bookkeeping: the plain run when there is
    none."""
    if qw or qr or pops:
        return AnnotatedSeq(atoms, qw, qr, pops)
    return atoms


def _pure_drop_elems(elems: frozenset) -> bool:
    if len(elems) != 1:
        return False
    e = next(iter(elems))
    if isinstance(e, Poison):
        return False
    atoms = e.atoms if isinstance(e, AnnotatedSeq) else e
    return atoms == DROP_SEQ


# ---------------------------------------------------------------- context

class Contradiction(Exception):
    """Internal error: a contradicting fact was added to a Context."""


class _Values:
    """The field values path facts name, one bit each, so that a field
    class's candidate values are an int and narrowing them is one AND.
    Values that `values_equal` equates share a bit.  The declared domains
    take the first bits; a test value the table lacks takes the next bit
    when its test's mask is first asked for.  A test's mask, computed once
    and kept, holds the values the test matches: its value's bit, or for a
    prefix the bit of every address of the table inside it, addresses
    that enter later included.  An empty Context makes the table and every
    context added from it shares it, so the table lives and dies with the
    builder or walk that made that empty context."""

    __slots__ = ("vals", "domains", "_bits", "_masks", "_prefixes")

    def __init__(self, schema):
        self.vals: list = []        # bit -> the value that took it
        self.domains: dict = {}     # field -> mask of its declared domain
        self._bits: dict = {}       # canon_key -> bit
        self._masks: dict = {}      # field=value test -> mask
        self._prefixes: list = []   # (test, prefix) of each prefix mask
        for f in (schema.fields if schema else ()):
            d = schema.domain_of(f)
            if d is not None:
                m = 0
                for v in d:
                    m |= 1 << self._bit(v)
                self.domains[f] = m

    def _bit(self, v) -> int:
        k = canon_key(v)
        i = self._bits.get(k)
        if i is None:
            i = self._bits[k] = len(self.vals)
            self.vals.append(v)
            for t, p in self._prefixes:
                if in_prefix(v, p):
                    self._masks[t] |= 1 << i
        return i

    def mask(self, t) -> int:
        """The mask of the values the field=value test t matches."""
        m = self._masks.get(t)
        if m is None:
            v = t.value
            if isinstance(v, IPv4Network):
                m = 0
                for i, x in enumerate(self.vals):
                    if in_prefix(x, v):
                        m |= 1 << i
                self._prefixes.append((t, v))
            else:
                m = 1 << self._bit(v)
            self._masks[t] = m
        return m

    def value(self, m: int):
        """The value of a one-bit mask."""
        return self.vals[m.bit_length() - 1]


class Context:
    """Immutable set of (test, polarity) path facts with an implication
    closure: same-field value exclusion, finite field domains, prefix
    containment, field-equality transitivity, and state-cell facts.

    A field class (the fields field=field facts made equal) keeps its
    candidate values, `cands`, as a mask over the value table (`_Values`)
    once a declared domain or a field=value fact bounds them, and None
    before.  `imply` answers a field=value test on a class with candidates
    from `cands & mask` alone: no candidate left is False, all of them
    True.  A class without candidates answers from its facts: the values
    it differs from and the prefixes it is in and out of.

    `Context(schema)` is the empty context, with a new value table, and
    `add` is the only way a fact enters one.  It applies that one fact to
    the parent's closure, copy-on-write, and shares every table the fact
    leaves alone, the value table always:
      * a state test copies `_st` and replaces the one cell slot it changes;
      * a field=value or prefix fact copies `_classes` and the one field
        class it touches, and narrows that class's candidates with one AND
        by the fact's mask; when the class gains a value, only the
        disequalities that involve the class are checked;
      * a field=field equality merges two classes in a copied union-find,
        settles the merged class from its members' domains ANDed and their
        facts, and remaps `_neq`; a disequality appends one pair to `_neq`.
    `add` raises Contradiction when the fact leaves no packet and store on
    the path, as far as the closure can tell."""

    __slots__ = ("_vals", "_n", "_parent", "_classes", "_neq", "_st")

    def __init__(self, schema):
        self._vals = _Values(schema)    # schema: the lang.Program or None
        self._n = 0             # facts so far; orders a class's facts
        self._parent = {}       # union-find over equal fields; rep = least
        self._classes = {}      # rep -> class of every field a fact names
        self._neq = ()          # (rep, rep) pairs of unequal classes
        self._st = {}           # (var, index key) -> cell slot

    def add(self, t, polarity: bool) -> "Context":
        ctx = object.__new__(Context)
        ctx._vals = self._vals
        ctx._n = self._n + 1
        ctx._parent = self._parent
        ctx._classes = self._classes
        ctx._neq = self._neq
        ctx._st = self._st
        b = bool(polarity)
        if isinstance(t, TStateTest):
            ctx._add_state(t, b)
        elif isinstance(t, TFieldValue):
            ctx._add_value(t, b)
        elif isinstance(t, TFieldField):
            ctx._add_fields(t, b)
        else:
            raise TypeError(f"not a test: {t!r}")
        return ctx

    # -- closure construction

    def _rep(self, f: str) -> str:
        while self._parent.get(f, f) != f:
            f = self._parent[f]
        return f

    def _add_state(self, t, b: bool):
        # a cell slot: "yes" is the key of the rhs the cell equals (the
        # first one asserted), "rhs" maps it to that expression, and "no"
        # holds the keys of the rhs the cell differs from
        k = (t.var, t.index_key)
        rk = t.rhs_key
        slot = self._st.get(k)
        yes, no, rhs = ((slot["yes"], slot["no"], slot["rhs"]) if slot
                        else (None, frozenset(), {}))
        if b:
            # two literal right-hand sides cannot both hold; a non-literal
            # one is only contradictory if provably unequal, so it is not
            if (yes is not None and yes != rk
                    and isinstance(rhs[yes], lang.Lit)
                    and isinstance(t.rhs, lang.Lit)):
                raise Contradiction(format_test(t))
            if rk in no:
                raise Contradiction(format_test(t))
            if yes is None:
                yes, rhs = rk, {rk: t.rhs}
        else:
            if yes == rk:
                raise Contradiction(format_test(t))
            no = no | {rk}
        self._st = {**self._st, k: {"yes": yes, "no": no, "rhs": rhs}}

    def _settle_cands(self, c: dict):
        """A class left with no candidate value is a contradiction; one left
        with a single candidate has that value."""
        m = c["cands"]
        if m is not None:
            if not m:
                raise Contradiction(f"empty domain for {min(c['members'])}")
            if c["val"] is None and not m & (m - 1):
                c["val"] = self._vals.value(m)

    def _settle(self, members: frozenset, facts: tuple) -> dict:
        """A field class from scratch: its members' declared domains ANDed
        (None if none is declared) and narrowed by its field=value facts,
        given as (fact number, test, polarity) in the order added."""
        dom = None
        for f in members:
            d = self._vals.domains.get(f)
            if d is not None:
                dom = d if dom is None else dom & d
        c = {"members": members, "facts": (), "val": None, "noval": (),
             "pyes": (), "pno": (), "cands": dom}
        self._settle_cands(c)
        for i, t, b in facts:
            c = self._narrow(c, i, t, b)
        return c

    def _narrow(self, c: dict, i: int, t, b: bool) -> dict:
        """Class c with the fact t == b, number i, applied."""
        c = dict(c)
        c["facts"] += ((i, t, b),)
        cands = c["cands"]
        v = t.value
        if isinstance(v, IPv4Network):
            c["pyes" if b else "pno"] += (v,)
            if cands is not None:
                m = self._vals.mask(t)
                cands &= m if b else ~m
        elif b:
            if cands is None:
                # no declared domain: v is the one candidate the value
                # facts so far leave standing, or none is
                cands = self._vals.mask(t)
                if (any(values_equal(v, x) for x in c["noval"])
                        or not all(test_match(v, p) for p in c["pyes"])
                        or any(test_match(v, p) for p in c["pno"])):
                    cands = 0
            else:
                cands &= self._vals.mask(t)
            c["val"] = v
        else:
            c["noval"] += (v,)
            if cands is not None:
                cands &= ~self._vals.mask(t)
        c["cands"] = cands
        self._settle_cands(c)
        return c

    def _enter(self, f: str, classes: dict) -> str:
        """The rep of f's class, entered into `classes` if new."""
        r = self._rep(f)
        if r not in classes:
            classes[r] = self._settle(frozenset((f,)), ())
        return r

    def _check_neq(self, r: str):
        """The disequalities that involve class r still hold."""
        val = self._classes[r]["val"]
        for a, b in self._neq:
            if a == r or b == r:
                if a == b:
                    raise Contradiction(f"{a} != {b}")
                o = self._classes[b if a == r else a]["val"]
                if (val is not None and o is not None
                        and values_equal(val, o)):
                    raise Contradiction(f"{a} != {b}")

    def _add_value(self, t, b: bool):
        classes = dict(self._classes)
        r = self._enter(t.field, classes)
        before = classes[r]["val"]
        classes[r] = self._narrow(classes[r], self._n, t, b)
        self._classes = classes
        if before is None and classes[r]["val"] is not None:
            self._check_neq(r)

    def _add_fields(self, t, b: bool):
        classes = dict(self._classes)
        r1 = self._enter(t.f1, classes)
        r2 = self._enter(t.f2, classes)
        self._classes = classes
        if not b:
            if r1 == r2:
                raise Contradiction(format_test(t))
            self._neq += ((r1, r2),)
            self._check_neq(r1)
        elif r1 != r2:
            r, o = min(r1, r2), max(r1, r2)
            self._parent = {**self._parent, o: r}
            c1, c2 = classes.pop(r1), classes.pop(r2)
            classes[r] = self._settle(
                c1["members"] | c2["members"],
                tuple(sorted(c1["facts"] + c2["facts"],
                             key=lambda fact: fact[0])))
            self._neq = tuple((r if a == o else a, r if b2 == o else b2)
                              for a, b2 in self._neq)
            self._check_neq(r)

    # -- queries

    def _cands(self, r: str):
        """The candidates mask of the class with rep r, or None.  A field
        no fact names is its own class, bounded by its declared domain."""
        c = self._classes.get(r)
        return c["cands"] if c is not None else self._vals.domains.get(r)

    def value_of(self, f: str):
        c = self._classes.get(self._rep(f))
        return c["val"] if c is not None else None

    def imply(self, t):
        """True / False when the path facts decide t; None otherwise."""
        if isinstance(t, TFieldValue):
            r = self._rep(t.field)
            cands = self._cands(r)
            if cands is not None:
                m = cands & self._vals.mask(t)
                if m == cands:
                    return True
                return None if m else False
            c = self._classes.get(r)
            if c is None:
                return None
            v = t.value
            if isinstance(v, IPv4Network):
                for p in c["pyes"]:
                    if p.subnet_of(v):
                        return True
                    if not p.overlaps(v):
                        return False
                for p in c["pno"]:
                    if v.subnet_of(p):
                        return False
                return None
            if any(values_equal(v, x) for x in c["noval"]):
                return False
            for p in c["pyes"]:
                if not test_match(v, p):
                    return False
            for p in c["pno"]:
                if test_match(v, p):
                    return False
            return None
        if isinstance(t, TFieldField):
            r1, r2 = self._rep(t.f1), self._rep(t.f2)
            if r1 == r2:
                return True
            for a, b in self._neq:
                if {a, b} == {r1, r2}:
                    return False
            v1, v2 = self.value_of(r1), self.value_of(r2)
            if v1 is not None and v2 is not None:
                return values_equal(v1, v2)
            k1, k2 = self._cands(r1), self._cands(r2)
            if k1 is not None and k2 is not None and not k1 & k2:
                return False
            return None
        if isinstance(t, TStateTest):
            slot = self._st.get((t.var, t.index_key))
            if slot is None:
                return None
            rk = t.rhs_key
            if slot["yes"] == rk:
                return True
            if rk in slot["no"]:
                return False
            if slot["yes"] is not None:
                y = slot["rhs"].get(slot["yes"])
                if isinstance(y, lang.Lit) and isinstance(t.rhs, lang.Lit):
                    return False    # cell equals a different literal
            return None
        raise TypeError(f"not a test: {t!r}")


# ---------------------------------------------------------------- arena

class Arena:
    """Hash-consing arena; node ids are dense ints, structurally unique."""

    def __init__(self):
        self.nodes: list = []
        self._ids: dict = {}

    def _intern(self, node) -> int:
        i = self._ids.get(node)
        if i is None:
            i = len(self.nodes)
            self.nodes.append(node)
            self._ids[node] = i
        return i

    def leaf(self, elems) -> int:
        fs = frozenset(elems)
        assert fs, "leaves are non-empty"
        return self._intern(("L", fs))

    def branch(self, t, hi: int, lo: int) -> int:
        return self._intern(("B", t, hi, lo))

    def is_leaf(self, i: int) -> bool:
        return self.nodes[i][0] == "L"

    def elems(self, i: int) -> frozenset:
        return self.nodes[i][1]

    def test_of(self, i: int):
        return self.nodes[i][1]

    def hi(self, i: int) -> int:
        return self.nodes[i][2]

    def lo(self, i: int) -> int:
        return self.nodes[i][3]


# ---------------------------------------------------------------- builder

class Builder:
    def __init__(self, prog: lang.Program, order: OrderSpec):
        self.prog = prog
        self.order = order
        self.arena = Arena()
        # computed tables, as in a BDD package: each keeps the results of
        # one function that reads no path context, keyed only by what the
        # arena interns (tests, node ids, element sets, runs), so no table
        # merges two results the arena keeps apart
        self._keys: dict = {}       # test -> test_key
        self._merged: dict = {}     # elements -> _merge_by_effect(elements)
        self._fanout: dict = {}     # node -> node, _seq_leaf's fan-out map
        self._resolved: dict = {}   # (run, leaf, reads) -> _resolve's leaf
        self._sorted: dict = {}     # elements -> elements by elem_key
        # every context of the build grows from this one and shares its
        # value table
        self._empty = Context(prog)

    # -- small helpers

    def key(self, t):
        k = self._keys.get(t)
        if k is None:
            k = self._keys[t] = test_key(self.order, t)
        return k

    def empty_ctx(self) -> Context:
        return self._empty

    def id_leaf(self) -> int:
        return self.arena.leaf({()})

    def drop_leaf(self) -> int:
        return self.arena.leaf({DROP_SEQ})

    def _by_key(self, elems: frozenset) -> tuple:
        """elems sorted by elem_key."""
        r = self._sorted.get(elems)
        if r is None:
            r = self._sorted[elems] = tuple(sorted(elems, key=elem_key))
        return r

    # -- public operators -------------------------------------------------

    def _ctx2(self, ctx: Context, t) -> tuple:
        """(hi ctx, lo ctx) for a test, with None marking a side the path
        facts (including declared field domains) rule out entirely.  The
        one place a test is decided: facts that imply t or not t keep one
        side with ctx unchanged; otherwise a side goes when adding its
        fact contradicts them."""
        dec = ctx.imply(t)
        if dec is not None:
            return (ctx, None) if dec else (None, ctx)
        try:
            hi = ctx.add(t, True)
        except Contradiction:
            hi = None
        try:
            lo = ctx.add(t, False)
        except Contradiction:
            lo = None
        if hi is None and lo is None:
            raise Contradiction(format_test(t))
        return hi, lo

    def _branch_ctx(self, t, ctx: Context, fhi, flo) -> int:
        """Branch on t, skipping a side no packet can reach."""
        chi, clo = self._ctx2(ctx, t)
        if chi is None:
            return flo(clo)
        if clo is None:
            return fhi(chi)
        return self.arena.branch(t, fhi(chi), flo(clo))

    def _split(self, t, ctx: Context, fhi, flo) -> int:
        """Decide t under ctx (`_ctx2`): build each side the path facts
        allow and put t over the two (`_ite`).  Sequencing splits this way
        on every test it decides."""
        chi, clo = self._ctx2(ctx, t)
        if chi is None:
            return flo(clo)
        if clo is None:
            return fhi(chi)
        return self._ite(t, fhi(chi), flo(clo), ctx)

    def _ite(self, t, hi: int, lo: int, ctx: Context,
             stale: tuple | None = None) -> int:
        """If t then hi else lo, for hi built under ctx and t and lo under
        ctx and not t (BDD ITE): branch under ctx on every test of either
        half that comes before t, lesser first, as `_apply` does, then put
        t over the two halves.  At the split's top (`stale` None) no fact
        has joined ctx since the halves were built, so they go under t as
        they are.  Deeper, `stale` flags each half whose top was not some
        test the walk branched on; only such a half missed a fact, so only
        it is restricted under its side of t, and a ctx that decides t
        keeps that side alone.  Over two pure-drop halves a field test goes
        and their drop outcomes join; a state test stays, a read the run
        performs."""
        a = self.arena
        n1, n2 = a.nodes[hi], a.nodes[lo]
        k = self.key(t)
        before = [n[1] for n in (n1, n2)
                  if n[0] == "B" and self.key(n[1]) < k]
        if before:
            s = min(before, key=self.key)
            s1 = n1[0] == "B" and n1[1] == s
            s2 = n2[0] == "B" and n2[1] == s
            h1, o1 = (n1[2], n1[3]) if s1 else (hi, hi)
            h2, o2 = (n2[2], n2[3]) if s2 else (lo, lo)
            was = stale or (False, False)
            st = (was[0] or not s1, was[1] or not s2)
            return self._branch_ctx(
                s, ctx, lambda c: self._ite(t, h1, h2, c, st),
                lambda c: self._ite(t, o1, o2, c, st))
        if (not isinstance(t, TStateTest) and n1[0] == n2[0] == "L"
                and _pure_drop_elems(n1[1]) and _pure_drop_elems(n2[1])):
            return a.leaf(n1[1] | n2[1])
        if stale is None:
            return a.branch(t, hi, lo)
        return self._branch_ctx(
            t, ctx,
            lambda c: self._apply(hi, hi, c, self._keep) if stale[0] else hi,
            lambda c: self._apply(lo, lo, c, self._keep) if stale[1] else lo)

    def plus(self, d1: int, d2: int) -> int:
        """Public checked union of two plain diagrams.  A bare drop beside
        another outcome adds nothing, so it is left out."""

        def strip(elems: frozenset) -> set:
            out = {e.atoms if isinstance(e, AnnotatedSeq) else e
                   for e in elems}
            return out - {DROP_SEQ} if len(out) > 1 else out

        d = self._apply(self._annotate(d1), self._annotate(d2),
                        self.empty_ctx(), self._join)
        return self._map_leaves(d, strip)

    def seq(self, d1: int, d2: int) -> int:
        return self._walk(d1, self.empty_ctx(),
                          lambda elems, c: self._seq_leaf(elems, d2, c))

    def _cond(self, dc: int, dt: int, de: int) -> int:
        """If dc then dt else de, as the evaluator runs it: dt where a leaf
        of the predicate dc passes the packet, de where it drops it.  `!a`
        is if a then drop else id."""

        def branch(elems: frozenset, c: Context) -> int:
            if elems not in ({()}, {DROP_SEQ}):
                raise ValueError("condition is not a predicate diagram")
            return self._seq_leaf({()}, dt if () in elems else de, c)

        return self._walk(dc, self.empty_ctx(), branch)

    def _walk(self, d1: int, ctx: Context, leaf) -> int:
        """`leaf(elements, ctx)` at each leaf of d1, split on its tests."""
        a = self.arena
        if a.is_leaf(d1):
            return leaf(a.elems(d1), ctx)
        return self._split(a.test_of(d1), ctx,
                           lambda c: self._walk(a.hi(d1), c, leaf),
                           lambda c: self._walk(a.lo(d1), c, leaf))

    def check_races(self, d: int):
        """Final validator: no leaf may hold two sequences writing one var."""
        a = self.arena
        seen = set()

        def go(i: int):
            if i in seen:
                return
            seen.add(i)
            if a.is_leaf(i):
                elems = self._by_key(a.elems(i))
                for e in elems:
                    if isinstance(e, Poison):
                        raise RaceError(e.var)
                for x in range(len(elems)):
                    for y in range(x + 1, len(elems)):
                        both = seq_writes(elems[x]) & seq_writes(elems[y])
                        if both:
                            raise RaceError(min(both))
                return
            go(a.hi(i))
            go(a.lo(i))

        go(d)

    def prune_vacuous(self, d: int) -> int:
        """Collapse branches whose two sides are identical.  A test whose
        outcome can never influence any result is unobservable (state reads
        have no side effects), so deployment may skip it.  Such nodes are
        kept during construction because race checking needs every read;
        call this only on a diagram that already passed check_races."""
        a = self.arena
        memo: dict = {}

        def go(i: int) -> int:
            r = memo.get(i)
            if r is not None:
                return r
            if a.is_leaf(i):
                r = i
            else:
                hi, lo = go(a.hi(i)), go(a.lo(i))
                r = hi if hi == lo else a.branch(a.test_of(i), hi, lo)
            memo[i] = r
            return r

        return go(d)

    # -- translation ------------------------------------------------------

    def to_xfdd(self, p) -> int:
        # merge leaf elements with one packet effect (one output packet)
        d = self._map_leaves(self._translate(p), self._merge_by_effect)
        self.check_races(d)
        return d

    def _translate(self, p) -> int:
        a = self.arena
        if isinstance(p, lang.Id):
            return self.id_leaf()
        if isinstance(p, lang.Drop):
            return self.drop_leaf()
        if isinstance(p, lang.Test):
            return a.branch(TFieldValue(p.field, p.value),
                            self.id_leaf(), self.drop_leaf())
        if isinstance(p, lang.StateTest):
            t = TStateTest(p.var, subst_expr(p.index, {}),
                           subst_expr(p.rhs, {}))
            return a.branch(t, self.id_leaf(), self.drop_leaf())
        if isinstance(p, (lang.Mod, lang.StateSet, lang.Incr, lang.Decr)):
            return a.leaf({canon_seq((p,))})    # canon_seq drops the spans
        if isinstance(p, lang.Neg):
            return self._translate(lang.If(p.p, lang.Drop(), lang.Id()))
        if isinstance(p, (lang.Or, lang.Par)):
            return self.plus(self._translate(p.p), self._translate(p.q))
        if isinstance(p, lang.And):
            # intersection evaluates both operands on the original packet,
            # so both structures (and their state reads) must survive
            return self._apply(self._translate(p.p), self._translate(p.q),
                               self.empty_ctx(), self._meet)
        if isinstance(p, lang.Seq):
            return self.seq(self._translate(p.p), self._translate(p.q))
        if isinstance(p, lang.If):
            return self._cond(self._translate(p.cond),
                              self._translate(p.then),
                              self._translate(p.els))
        if isinstance(p, lang.Atomic):
            return self._translate(p.p)
        raise TypeError(f"not a policy: {p!r}")

    def to_xfdd_program(self) -> int:
        return self.to_xfdd(self.prog.policy)

    # -- the pair walk and the leaf map ----------------------------------

    def _apply(self, d1: int, d2: int, ctx: Context, leaves) -> int:
        """The pair walk behind union and intersection (BDD apply): branch
        on the lesser of the operands' top tests, keeping only the side of
        a test the path facts decide, and combine each pair of leaves into
        the leaf with elements `leaves(elems1, elems2)`."""
        a = self.arena
        n1, n2 = a.nodes[d1], a.nodes[d2]
        if n1[0] == "L":
            if n2[0] == "L":
                return a.leaf(leaves(n1[1], n2[1]))
            t, h1, o1, h2, o2 = n2[1], d1, d1, n2[2], n2[3]
        elif n2[0] == "L":
            t, h1, o1, h2, o2 = n1[1], n1[2], n1[3], d2, d2
        else:
            t, t2 = n1[1], n2[1]
            if t == t2:
                h1, o1, h2, o2 = n1[2], n1[3], n2[2], n2[3]
            elif self.key(t) < self.key(t2):
                h1, o1, h2, o2 = n1[2], n1[3], d2, d2
            else:
                t, h1, o1, h2, o2 = t2, d1, d1, n2[2], n2[3]
        return self._branch_ctx(
            t, ctx, lambda c: self._apply(h1, h2, c, leaves),
            lambda c: self._apply(o1, o2, c, leaves))

    @staticmethod
    def _join(e1: frozenset, e2: frozenset) -> frozenset:
        """Checked union of two annotated leaves: each pair of runs where
        one writes what the other reads or writes adds a Poison.  Poisons
        and plain runs read and write nothing."""
        poison = set()
        for x in e1:
            if not isinstance(x, AnnotatedSeq):
                continue
            for y in e2:
                if not isinstance(y, AnnotatedSeq):
                    continue
                bad = ((x.qw & (y.qr | y.qw)) | (y.qw & x.qr))
                if bad:
                    poison.add(Poison(min(bad)))
        return e1 | e2 | poison

    @staticmethod
    def _keep(e1: frozenset, e2: frozenset) -> frozenset:
        """A leaf of one diagram walked beside itself, kept as it is."""
        return e1

    @staticmethod
    def _meet(e1: frozenset, e2: frozenset) -> set:
        """Intersection of two predicate leaves: id where both pass."""
        return {()} if () in e1 and () in e2 else {DROP_SEQ}

    def _map_leaves(self, d: int, f, memo: dict | None = None) -> int:
        """d with each leaf's elements replaced by f(elements); `memo`
        keeps the results of earlier maps by the same f."""
        a = self.arena
        if memo is None:
            memo = {}

        def go(i: int) -> int:
            r = memo.get(i)
            if r is None:
                n = a.nodes[i]
                if n[0] == "L":
                    r = a.leaf(f(n[1]))
                else:
                    r = a.branch(n[1], go(n[2]), go(n[3]))
                memo[i] = r
            return r

        return go(d)

    # -- annotation and leaf merging --------------------------------------

    def _annotate(self, d: int) -> int:
        """Plain -> annotated: each element learns its own write set and the
        state tests read along its path; used for parallel-union checks."""
        a = self.arena
        memo: dict = {}

        def go(i: int, reads: frozenset) -> int:
            k = (i, reads)
            if k in memo:
                return memo[k]
            if a.is_leaf(i):
                out = a.leaf({e if isinstance(e, Poison)
                              else annotated(e, seq_writes(e), reads, ())
                              for e in a.elems(i)})
            else:
                t = a.test_of(i)
                r2 = reads | {t.var} if isinstance(t, TStateTest) else reads
                out = a.branch(t, go(a.hi(i), r2), go(a.lo(i), r2))
            memo[k] = out
            return out

        return go(d, frozenset())

    def _merge_by_effect(self, elems: frozenset) -> frozenset:
        """elems with the sequences of each packet effect (one output
        packet) merged into one; sequences of one effect that write one
        variable stay apart beside a poison for it."""
        r = self._merged.get(elems)
        if r is not None:
            return r
        out = set()
        groups: dict = {}
        for e in self._by_key(elems):
            if isinstance(e, Poison):
                out.add(e)
                continue
            groups.setdefault(seq_effect(e), []).append(e)
        for (mods, dropped), members in groups.items():
            ops = []
            written = set()
            clash = False
            for m in members:
                w = seq_writes(m)
                dup = written & w
                if dup:
                    out.add(Poison(min(dup)))
                    clash = True
                written |= w
                ops.extend(seq_state_ops(m))
            if clash:
                out.update(members)   # unmergeable; the poison wins anyway
                continue
            ops.sort(key=lambda x: x.var)
            merged = tuple(ops) + mods + ((DROP,) if dropped else ())
            out.add(merged)
        # a bare drop adds nothing next to other outcomes
        if len(out) > 1 and DROP_SEQ in out:
            out.discard(DROP_SEQ)
        r = self._merged[elems] = frozenset(out)
        return r

    # -- sequential composition base case ---------------------------------

    def _simplify_mods(self, e, ctx: Context):
        """Remove mods that write the value the path context already
        guarantees; makes packet-effect grouping match actual packets."""
        if isinstance(e, Poison):
            return e
        kept = []
        changed = False
        for x in e:
            if isinstance(x, lang.Mod) and not isinstance(
                    x.value, IPv4Network):
                known = ctx.value_of(x.field)
                if known is not None and values_equal(known, x.value):
                    changed = True
                    continue
            kept.append(x)
        return tuple(kept) if changed else e

    def _collision_tests(self, runs: frozenset, ctx: Context) -> list:
        """Tests that decide whether two distinct-looking runs are actually
        the same output packet (a one-sided mod writing the entry value)."""
        live = [e for e in self._by_key(runs)
                if not isinstance(e, Poison) and not (e and e[-1] is DROP)]
        out = []
        for x in range(len(live)):
            m1 = {m.field: m.value for m in live[x] if isinstance(m, lang.Mod)}
            for y in range(x + 1, len(live)):
                m2 = {m.field: m.value
                      for m in live[y] if isinstance(m, lang.Mod)}
                needed = []
                possible = True
                for f in sorted(set(m1) | set(m2)):
                    if f in m1 and f in m2:
                        if not values_equal(m1[f], m2[f]):
                            possible = False
                            break
                        continue
                    v = m1.get(f, m2.get(f))
                    if isinstance(v, IPv4Network):
                        possible = False   # exact-equality test inexpressible
                        break
                    t = TFieldValue(f, v)
                    imp = ctx.imply(t)
                    if imp is False:
                        possible = False
                        break
                    if imp is None:
                        needed.append(t)
                if possible:
                    out.extend(needed)
        out.sort(key=self.key)
        return out

    def _seq_leaf(self, elems: frozenset, d2: int, ctx: Context) -> int:
        # Group the first diagram's outcomes by packet effect: each group is
        # one output packet, i.e. one run of the second diagram.
        runs = self._merge_by_effect(
            frozenset(self._simplify_mods(e, ctx) for e in elems))

        # Runs whose packets may coincide depending on entry field values
        # must be split on those values so grouping is exact per context.
        tests = self._collision_tests(runs, ctx)
        if tests:
            def again(c: Context) -> int:
                return self._seq_leaf(elems, d2, c)

            return self._split(tests[0], ctx, again, again)

        pending: dict = {}
        for e in self._by_key(runs):
            for op in seq_state_ops(e):
                pending.setdefault(op.var, []).append(op)

        operands = []
        for e in self._by_key(runs):
            if isinstance(e, Poison):
                operands.append(self.arena.leaf({e}))
            elif e and e[-1] is DROP:
                operands.append(self.arena.leaf({annotated(
                    e, frozenset(), frozenset(), self._pops(e))}))
            else:
                operands.append(self._resolve(e, d2, ctx, pending))
        acc = operands[0]
        for x in operands[1:]:
            acc = self._apply(acc, x, ctx, self._join)
        return self._map_leaves(acc, lambda elems: self._merge_by_effect(
            self._assemble(elems)), self._fanout)

    @staticmethod
    def _pops(atoms: tuple) -> tuple:
        counts: dict = {}
        for op in seq_state_ops(atoms):
            counts[op.var] = counts.get(op.var, 0) + 1
        return tuple(sorted(counts.items()))

    def _resolve(self, e: tuple, d2: int, ctx: Context, pending: dict) -> int:
        """Compose one first-phase outcome with the second diagram, deciding
        its tests through the outcome's field mods and the leaf's pending
        state updates."""
        a = self.arena
        subst = {m.field: m.value for m in e if isinstance(m, lang.Mod)}
        e_ops = seq_state_ops(e)
        e_mods = tuple(x for x in e if isinstance(x, lang.Mod))

        def at_leaf(i: int, reads: frozenset) -> int:
            k = (e, i, reads)
            r = self._resolved.get(k)
            if r is not None:
                return r
            # This run's first-phase state ops must appear in exactly one
            # element of the result: the one whose second phase writes the
            # same variable (ordering), else the first surviving element.
            poisons = {q for q in a.elems(i) if isinstance(q, Poison)}
            qelems = [q for q in self._by_key(a.elems(i))
                      if not isinstance(q, Poison)]
            qwrites = [seq_writes(q) for q in qelems]
            nondrop = [j for j, q in enumerate(qelems)
                       if not (q and q[-1] is DROP)]
            carrier = {}
            for op in e_ops:
                if op.var in carrier:
                    continue
                js = [j for j, w in enumerate(qwrites) if op.var in w]
                carrier[op.var] = (js[0] if js
                                   else nondrop[0] if nondrop else 0)
            out = set(poisons)
            for j, q in enumerate(qelems):
                ops_j = tuple(op for op in e_ops if carrier[op.var] == j)
                atoms = canon_seq(ops_j + e_mods + q)
                out.add(annotated(atoms, seq_writes(q), reads,
                                  self._pops(ops_j)))
            if not qelems:
                out.update(poisons or {annotated(
                    canon_seq(e), frozenset(), reads, self._pops(e_ops))})
            r = self._resolved[k] = a.leaf(out)
            return r

        def go(i: int, ctx2: Context, reads: frozenset) -> int:
            if a.is_leaf(i):
                return at_leaf(i, reads)
            t = a.test_of(i)
            reads2 = reads | ({t.var} if isinstance(t, TStateTest)
                              else frozenset())
            dec = self._decide(t, subst, pending, ctx2)
            if dec is True:
                return go(a.hi(i), ctx2, reads2)
            if dec is False:
                return go(a.lo(i), ctx2, reads2)
            kind, t2 = dec
            if kind == "split":
                # decide an index-equality prerequisite, then retry this node
                hi_i = lo_i = i
                r2 = reads
            else:
                hi_i, lo_i = a.hi(i), a.lo(i)
                r2 = reads2
            return self._split(t2, ctx2, lambda c: go(hi_i, c, r2),
                               lambda c: go(lo_i, c, r2))

        return go(d2, ctx, frozenset())

    def _decide(self, t, subst: dict, pending: dict, ctx: Context):
        """True | False where the run's mods and pending updates decide t;
        else ("test", t') for `_split` to decide under the path facts, or
        ("split", equality-test) to decide first."""
        if isinstance(t, TFieldValue):
            if t.field in subst:
                return test_match(subst[t.field], t.value)
            return ("test", t)
        if isinstance(t, TFieldField):
            va, vb = subst.get(t.f1), subst.get(t.f2)
            if va is not None and vb is not None:
                return values_equal(va, vb)
            if va is not None or vb is not None:
                known = va if va is not None else vb
                other = t.f2 if va is not None else t.f1
                if isinstance(known, IPv4Network):
                    raise UnsupportedCompositionError(
                        other, "prefix-valued field in a field-field test")
                return ("test", TFieldValue(other, known))
            return ("test", t)
        if isinstance(t, TStateTest):
            idx = subst_expr(t.index, subst)
            rhs = subst_expr(t.rhs, subst)
            delta = 0
            for u in reversed(pending.get(t.var, [])):
                eq = self._expr_eq(idx, u.index, ctx)
                if eq is False:
                    continue
                if isinstance(eq, tuple):
                    return ("split", eq[1])
                # matched the latest update of this cell
                if isinstance(u, lang.Incr):
                    delta += 1
                    continue
                if isinstance(u, lang.Decr):
                    delta -= 1
                    continue
                return self._finish_state(t.var, u.rhs, rhs, delta, ctx,
                                          idx=None)
            # cell untouched below any matched increments
            return self._finish_state(t.var, None, rhs, delta, ctx, idx=idx)
        raise TypeError(f"not a test: {t!r}")

    def _finish_state(self, var: str, cell_expr, rhs, delta: int,
                      ctx: Context, idx):
        """Cell value is cell_expr + delta (or entry-cell + delta when
        cell_expr is None); decide `cell == rhs`."""
        if delta == 0:
            if cell_expr is None:
                return ("test", TStateTest(var, idx, rhs))
            eq = self._expr_eq(cell_expr, rhs, ctx)
            if isinstance(eq, tuple):
                return ("test", eq[1])
            return eq
        # increments pending: only literal-int arithmetic is representable
        if not (isinstance(rhs, lang.Lit) and isinstance(rhs.value, int)
                and not isinstance(rhs.value, bool)):
            raise UnsupportedCompositionError(
                var, "increment composed against a non-literal test")
        want = rhs.value - delta
        if cell_expr is None:
            return ("test", TStateTest(var, idx, lang.Lit(want)))
        if isinstance(cell_expr, lang.Lit):
            if isinstance(cell_expr.value, int) and not isinstance(
                    cell_expr.value, bool):
                return cell_expr.value == want
            return False
        if isinstance(cell_expr, lang.FieldRef):
            return ("test", TFieldValue(cell_expr.name, want))
        raise UnsupportedCompositionError(
            var, "increment composed over a structured stored value")

    def _expr_eq(self, e1, e2, ctx: Context):
        """True | False | ("need", test) for entry-relative expressions."""
        i1 = e1.items if isinstance(e1, lang.TupleExpr) else (e1,)
        i2 = e2.items if isinstance(e2, lang.TupleExpr) else (e2,)
        if len(i1) != len(i2):
            return False
        need = None
        for x, y in zip(i1, i2):
            r = self._scalar_eq(x, y, ctx)
            if r is False:
                return False
            if isinstance(r, tuple) and need is None:
                need = r
        return need if need is not None else True

    def _scalar_eq(self, x, y, ctx: Context):
        if isinstance(x, lang.TupleExpr) or isinstance(y, lang.TupleExpr):
            return self._expr_eq(x, y, ctx)
        if isinstance(x, lang.Lit) and isinstance(y, lang.Lit):
            return values_equal(x.value, y.value)
        if isinstance(x, lang.FieldRef) and isinstance(y, lang.FieldRef):
            if x.name == y.name:
                return True
            t = make_ff(x.name, y.name)
            imp = ctx.imply(t)
            return imp if imp is not None else ("need", t)
        lit, fld = (x, y) if isinstance(x, lang.Lit) else (y, x)
        if isinstance(lit.value, IPv4Network):
            raise UnsupportedCompositionError(
                fld.name, "prefix literal in an index-equality decision")
        t = TFieldValue(fld.name, lit.value)
        imp = ctx.imply(t)
        return imp if imp is not None else ("need", t)

    # -- fan-out assembly --------------------------------------------------

    def _assemble(self, elems: frozenset) -> frozenset:
        """Move first-phase writes of variable s into the element whose run
        writes s, so every variable's full update sequence lives in exactly
        one action sequence (the merged-store semantics of fan-out)."""
        poisons = {e for e in elems if isinstance(e, Poison)}
        items = [[list(e.atoms), dict(e.pops), e.qw]
                 if isinstance(e, AnnotatedSeq) else [list(e), {}, ()]
                 for e in self._by_key(elems)
                 if not isinstance(e, Poison)]
        movable_vars = set()
        for atoms, pops, qw in items:
            movable_vars |= set(pops)
        for var in sorted(movable_vars):
            owners = [it for it in items if it[1].get(var)]
            qwriters = [it for it in items if var in it[2]]
            if not owners or not qwriters:
                continue
            src = owners[0]
            dst = qwriters[0]
            if src is dst:
                continue
            n = src[1][var]
            moved = [x for x in src[0]
                     if lang.is_state_op(x) and x.var == var][:n]
            for x in moved:
                src[0].remove(x)
            # insert before dst's ops on var: dst writes var, and its
            # sequence is canonical (state ops sorted by variable, then
            # mods or a drop), so a state op on a variable >= var is found
            # before any mod or drop
            pos = next(k for k, x in enumerate(dst[0])
                       if lang.is_state_op(x) and x.var >= var)
            dst[0][pos:pos] = moved
        # each move keeps both sequences canonical (state ops stably sorted
        # by variable, then mods or drop), so none needs canon_seq again
        return frozenset([tuple(atoms) for atoms, _, _ in items]) | poisons


# -------------------------------------------------------------- validation

def validate(arena: Arena, root: int, prog: lang.Program,
             order: OrderSpec) -> None:
    """Debug check: strictly increasing test order and satisfiable paths."""

    def go(i: int, ctx: Context, last_key):
        if arena.is_leaf(i):
            for e in arena.elems(i):
                if isinstance(e, Poison):
                    continue
                assert e == canon_seq(e), f"non-canonical leaf element {e}"
            return
        t = arena.test_of(i)
        k = test_key(order, t)
        assert last_key is None or last_key < k, f"order violated at node {i}"
        assert ctx.imply(t) is None, f"redundant test at node {i}"
        go(arena.hi(i), ctx.add(t, True), k)
        go(arena.lo(i), ctx.add(t, False), k)

    go(root, Context(prog), None)


# -------------------------------------------------------------- serialization

# The JSON forms of an expression, a test and an action atom, which
# `to_json` writes and `from_json` reads: each case names its class, and
# its keys are that class's fields; `object` marks a value's slot.
EXPR = Tagged("e", {"lit": (lang.Lit, {"value": object}),
                    "field": (lang.FieldRef, {"name": str}),
                    "tuple": (lang.TupleExpr, {})})
EXPR.cases["tuple"][1]["items"] = [EXPR]
TEST = Tagged("t", {
    "fv": (TFieldValue, {"field": str, "value": object}),
    "ff": (TFieldField, {"f1": str, "f2": str}),
    "st": (TStateTest, {"var": str, "index": EXPR, "rhs": EXPR})})
ATOM = Tagged("a", {
    "drop": (_Drop, {}),
    "mod": (lang.Mod, {"field": str, "value": object}),
    "set": (lang.StateSet, {"var": str, "index": EXPR, "rhs": EXPR}),
    "incr": (lang.Incr, {"var": str, "index": EXPR}),
    "decr": (lang.Decr, {"var": str, "index": EXPR})})


def to_json(x, table):
    """The JSON form of `x` under `table`: EXPR, TEST, ATOM or a part of
    one."""
    if table is object:
        return value_to_json(x)
    if isinstance(table, list):
        return [to_json(y, table[0]) for y in x]
    if isinstance(table, Tagged):
        for tag, (cls, fields) in table.cases.items():
            if type(x) is cls:
                return {table.key: tag, **{k: to_json(getattr(x, k), s)
                                           for k, s in fields.items()}}
        raise TypeError(f"no case of {table.key!r} holds {x!r}")
    return x


def from_json(d, table):
    """What `to_json` wrote as `d` under `table`, which `d` has
    (`shape.check`); ValueError for a value that is none, or for a test
    that is not canonical, and OverflowError for an int beyond 64
    bits."""
    if table is object:
        return value_from_json(d)
    if isinstance(table, list):
        return tuple(from_json(y, table[0]) for y in d)
    if isinstance(table, Tagged):
        cls, fields = table.cases[d[table.key]]
        return cls(**{k: from_json(d[k], s) for k, s in fields.items()})
    return d
