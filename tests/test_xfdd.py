"""Diagram compiler tests: differential checks against the reference
evaluator via an independent brute-force walker, plus conflict detection,
canonicalization, and pruning."""

import dataclasses
import hashlib
import random
from ipaddress import IPv4Address, IPv4Network

import pytest

from snapnet import deps, interp, lang, rulegen, values, xfdd
from snapnet.errors import RaceError, UnsupportedCompositionError
from snapnet.interp import UNDEFINED

from conftest import ALL_POLICIES, policy_src
from helpers import (
    UNIVERSE_SRC, UncachedBuilder, all_packets, all_stores, eval_xfdd,
    random_policy, reference_join, universe_prog,
)


def build(prog):
    b = xfdd.Builder(prog, deps.order_spec_program(prog))
    return b, b.to_xfdd_program()


def agree(prog, builder, root, store, pkt):
    """One packet, one store: evaluator and diagram walker must agree."""
    r = interp.eval_program(prog, store, dict(pkt))
    st2, outs = eval_xfdd(builder.arena, root, store, dict(pkt))
    assert r is not UNDEFINED
    assert set(outs) == set(r.packets)
    assert st2 == r.store


def test_corpus_programs_validate():
    for name in ("dns-tunnel-detect", "sidejacking", "stateful-fw",
                 "basic-tcp-reassembly", "race-honeypot-plain",
                 "race-honeypot-atomic", "parallel-distinct-vars"):
        prog = lang.parse(policy_src(name))
        order = deps.order_spec_program(prog)
        b = xfdd.Builder(prog, order)
        root = b.to_xfdd_program()
        xfdd.validate(b.arena, root, prog, order)


def test_random_differential():
    """Random policies over the small universe: the compiled diagram and
    the evaluator agree on every packet and store, and evaluator conflicts
    surface as compile-time RaceError."""
    rng = random.Random(7)
    prog0 = universe_prog()
    pkts = all_packets(prog0)
    stores = all_stores(prog0)
    checked = races = 0
    for _ in range(150):
        pol = random_policy(rng, 3, counters=False)
        prog = dataclasses.replace(prog0, body=pol)
        undef = any(interp.eval_program(prog, st, dict(p)) is UNDEFINED
                    for st in stores for p in pkts)
        if undef:
            with pytest.raises(RaceError):
                build(prog)
            races += 1
            continue
        b, root = build(prog)
        for st in stores:
            for p in pkts:
                agree(prog, b, root, st, p)
        checked += 1
    assert checked > 50 and races > 5


@pytest.mark.pinned
def test_random_diagram_structure_is_pinned():
    """The numbered diagrams of 600 random programs (or the error each
    raises), hashed as the operators first built them.  The corpus rarely
    reaches intersection or negation and the differential tests check
    only semantics, so this pins the structure union, intersection,
    negation and sequencing give a diagram."""
    rng = random.Random(8)
    prog0 = universe_prog()
    h = hashlib.sha256()
    errors = 0
    for _ in range(600):
        prog = dataclasses.replace(prog0, body=random_policy(rng, 4))
        try:
            b, root = build(prog)
            out = repr(rulegen.number_nodes(b.arena, root))
        except (RaceError, UnsupportedCompositionError) as e:
            out = f"{type(e).__name__}: {e}"
            errors += 1
        h.update(out.encode() + b"\n")
    assert errors == 150
    assert h.hexdigest() == (
        "13fce672a5178510cc09aa9ccc5ceaf6fe5b7a53cc0fef003196985c67f3ad6f")


class LeadBeside(xfdd.Builder):
    """A Builder that runs the reference restrict-and-join beside every
    join `_lead` builds and asserts the same node: with hash-consing,
    the same diagram."""

    def __init__(self, prog, order):
        super().__init__(prog, order)
        self.led = 0

    def _lead(self, t, ctx, hi, lo):
        r = super()._lead(t, ctx, hi, lo)
        if r is not None:
            assert r == reference_join(self, t, ctx, hi, lo), format(t)
            self.led += 1
        return r


def reference_programs() -> tuple:
    """(randoms, corpus): the random programs of `test_random_differential`,
    `test_random_diagram_structure_is_pinned` and `test_counter_differential`
    (the same seeds, sizes and counter settings), and each policy of the
    corpus composed with assign-egress."""
    prog0 = universe_prog()
    randoms = []
    for seed, n, depth, counters in ((7, 150, 3, False), (8, 600, 4, True),
                                     (11, 80, 3, True)):
        rng = random.Random(seed)
        randoms += [dataclasses.replace(
            prog0, body=random_policy(rng, depth, counters=counters))
            for _ in range(n)]
    corpus = [lang.compose_all([lang.parse(policy_src(name)),
                                lang.parse(policy_src("assign-egress"))])
              for name in ALL_POLICIES]
    return randoms, corpus


@pytest.mark.pinned
def test_lead_equals_the_restrict_and_join_reference():
    """Every split `_lead` joins, over the reference programs."""
    randoms, corpus = reference_programs()

    def run(progs) -> tuple:
        built = led = 0
        for prog in progs:
            b = LeadBeside(prog, deps.order_spec_program(prog))
            try:
                b.to_xfdd_program()
                built += 1
            except (RaceError, UnsupportedCompositionError):
                pass
            led += b.led
        return built, led

    built, led = run(randoms)
    assert built > 600 and led > 2000, (built, led)
    built, led = run(corpus)
    assert built == len(ALL_POLICIES) and led > 800, (built, led)


@pytest.mark.pinned
def test_computed_tables_equal_the_uncached_builder():
    """The Builder's computed tables change no result: over the reference
    programs, a Builder and one whose tables never store return the same
    root and the same arena, node for node, or raise the same error."""
    randoms, corpus = reference_programs()
    built = 0
    for prog in randoms + corpus:
        order = deps.order_spec_program(prog)
        out = []
        for b in (xfdd.Builder(prog, order), UncachedBuilder(prog, order)):
            try:
                out.append((b.to_xfdd_program(), b.arena.nodes))
            except (RaceError, UnsupportedCompositionError) as e:
                out.append((type(e), str(e)))
        assert out[0] == out[1], prog.body
        built += isinstance(out[0][0], int)
    assert built > 600 + len(ALL_POLICIES), built


def test_counter_differential():
    """Counters included; compositions the diagram language cannot express
    are reported, never silently mis-compiled."""
    rng = random.Random(11)
    prog0 = universe_prog()
    pkts = all_packets(prog0)
    stores = all_stores(prog0)
    checked = 0
    for _ in range(80):
        pol = random_policy(rng, 3, counters=True)
        prog = dataclasses.replace(prog0, body=pol)
        undef = any(interp.eval_program(prog, st, dict(p)) is UNDEFINED
                    for st in stores for p in pkts)
        try:
            b, root = build(prog)
        except RaceError:
            assert undef
            continue
        except UnsupportedCompositionError:
            continue
        assert not undef
        for st in stores:
            for p in pkts:
                agree(prog, b, root, st, p)
        checked += 1
    assert checked > 20


def test_race_error_names_variable():
    prog = lang.parse(policy_src("conflict-parallel-write"))
    with pytest.raises(RaceError) as ei:
        build(prog)
    assert ei.value.var == "s"
    assert "'s'" in str(ei.value)


def test_distinct_variables_do_not_race():
    prog = lang.parse(policy_src("parallel-distinct-vars"))
    _, root = build(prog)
    assert isinstance(root, int)


def test_field_mod_after_fanout_compiles():
    prog = lang.parse("state s[1] default 0;\nstate t[1] default 0;\n"
                      "field g : small in {0, 1, 3};\n"
                      "((s[0] <- 1) + (t[0] <- 2)); g <- 3")
    _, root = build(prog)
    assert isinstance(root, int)


def test_state_write_after_fanout_races():
    prog = lang.parse("state s[1] default 0;\nstate g[1] default 0;\n"
                      "field a : small in {0, 1};\n"
                      "((a <- 0) + (a <- 1)); g[0] <- 3")
    with pytest.raises(RaceError) as ei:
        build(prog)
    assert ei.value.var == "g"


def test_unsupported_increment_composition_is_reported():
    prog = lang.parse("state s[1] default 0;\nfield a : small in {0, 1};\n"
                      "s[0]++; if s[0] = a then id else drop")
    with pytest.raises(UnsupportedCompositionError):
        build(prog)


def test_canon_seq_mods_fold_and_sort():
    seq = (lang.Mod("b", 1), lang.Mod("a", 0), lang.Mod("a", 1))
    assert xfdd.canon_seq(seq) == (lang.Mod("a", 1), lang.Mod("b", 1))


def test_canon_seq_rewrites_state_ops_to_entry_packet():
    seq = (lang.Mod("a", 1),
           lang.StateSet("s", lang.FieldRef("a"), lang.FieldRef("b")))
    out = xfdd.canon_seq(seq)
    assert out[0] == lang.StateSet("s", lang.Lit(1), lang.FieldRef("b"))
    assert out[1] == lang.Mod("a", 1)


def test_canon_seq_drop_swallows_tail():
    seq = (lang.Mod("a", 1), xfdd.DROP, lang.Mod("b", 1))
    assert xfdd.canon_seq(seq) == (xfdd.DROP,)


def test_prune_vacuous_removes_unobservable_reads():
    # the state test guards identical branches: prunable after race checks
    prog = lang.parse("state s[1] default 0;\nfield a : small in {0, 1};\n"
                      "if s[0] = 0 then a <- 1 else a <- 1")
    b, root = build(prog)
    pruned = b.prune_vacuous(root)
    assert b.arena.is_leaf(pruned)
    # and the pruned diagram still behaves identically
    prog0 = universe_prog()
    st = interp.Store.initial(prog)
    _, outs = eval_xfdd(b.arena, pruned, st, {"a": 0})
    assert all(p["a"] == 1 for p in outs.values())


def test_diagram_nodes_are_hash_consed():
    prog = lang.parse("field a : small in {0, 1};\n"
                      "(if a = 0 then id else drop) + "
                      "(if a = 0 then id else drop)")
    b, root = build(prog)
    seen = set()
    stack = [root]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        if not b.arena.is_leaf(i):
            stack += [b.arena.hi(i), b.arena.lo(i)]
    # one test node suffices for both arms
    assert sum(1 for i in seen if not b.arena.is_leaf(i)) == 1


def test_json_round_trip_for_tests_and_atoms():
    t1 = xfdd.TFieldValue("a", 1)
    t2 = xfdd.TStateTest("s", lang.TupleExpr((lang.FieldRef("a"),
                                              lang.Lit(3))), lang.Lit(0))
    for t in (t1, t2):
        assert xfdd.test_from_json(xfdd.test_to_json(t)) == t
    atoms = (lang.Mod("a", 1), lang.StateSet("s", lang.Lit(0), lang.Lit(2)),
             lang.Incr("s", lang.Lit(0)), xfdd.DROP)
    for a in atoms:
        assert xfdd.atom_from_json(xfdd.atom_to_json(a)) == a


# ------------------------------------------------ closure reference

class ReferenceContext(xfdd.Context):
    """The path-fact closure as it was built before contexts were
    extended from their parents: from scratch over the whole fact list at
    every step.  Queries (`imply`, `value_of`) are Context's own."""

    __slots__ = ("facts",)

    def __init__(self, schema, facts: tuple = ()):
        self.schema = schema
        self.facts = facts
        self._build()

    def add(self, t, polarity: bool):
        return ReferenceContext(self.schema,
                                self.facts + ((t, bool(polarity)),))

    def _union(self, f: str, g: str):
        rf, rg = self._rep(f), self._rep(g)
        if rf != rg:
            if rg < rf:
                rf, rg = rg, rf
            self._parent[rg] = rf

    def _build(self):
        Contradiction = xfdd.Contradiction
        self._parent = {}
        eqs, rest = [], []
        for t, b in self.facts:
            (eqs if isinstance(t, xfdd.TFieldField) and b
             else rest).append((t, b))
        for t, _ in eqs:
            self._union(t.f1, t.f2)

        val, noval, pyes, pno, neq, st = {}, {}, {}, {}, [], {}
        for t, b in rest:
            if isinstance(t, xfdd.TFieldField):
                if self._rep(t.f1) == self._rep(t.f2):
                    raise Contradiction(xfdd.format_test(t))
                neq.append((self._rep(t.f1), self._rep(t.f2)))
            elif isinstance(t, xfdd.TFieldValue):
                r = self._rep(t.field)
                if isinstance(t.value, IPv4Network):
                    (pyes if b else pno).setdefault(r, []).append(t.value)
                elif b:
                    if r in val and not values.values_equal(val[r], t.value):
                        raise Contradiction(xfdd.format_test(t))
                    val[r] = t.value
                else:
                    noval.setdefault(r, []).append(t.value)
            else:
                k = (t.var, deps.expr_key(t.index))
                rk = deps.expr_key(t.rhs)
                slot = st.setdefault(k, {"yes": None, "no": set(),
                                         "rhs": {}})
                slot["rhs"][rk] = t.rhs
                if b:
                    if slot["yes"] is not None and slot["yes"] != rk:
                        y1, y2 = slot["rhs"].get(slot["yes"]), t.rhs
                        if (isinstance(y1, lang.Lit)
                                and isinstance(y2, lang.Lit)):
                            raise Contradiction(xfdd.format_test(t))
                    if slot["yes"] is None:
                        slot["yes"] = rk
                    if rk in slot["no"]:
                        raise Contradiction(xfdd.format_test(t))
                else:
                    if slot["yes"] == rk:
                        raise Contradiction(xfdd.format_test(t))
                    slot["no"].add(rk)

        classes = {}
        fields = set(self._parent)
        for t, b in self.facts:
            if isinstance(t, xfdd.TFieldValue):
                fields.add(t.field)
            elif isinstance(t, xfdd.TFieldField):
                fields.update((t.f1, t.f2))
        for f in fields:
            r = self._rep(f)
            c = classes.setdefault(r, {"members": set(), "val": val.get(r),
                                       "noval": noval.get(r, []),
                                       "pyes": pyes.get(r, []),
                                       "pno": pno.get(r, []),
                                       "cands": None})
            c["members"].add(f)
        for r, c in classes.items():
            cands = None
            for f in c["members"]:
                d = self.schema.domain_of(f)
                if d is not None:
                    cands = [v for v in d if cands is None
                             or any(values.values_equal(v, x) for x in cands)]
            if c["val"] is not None:
                if cands is not None and not any(
                        values.values_equal(c["val"], x) for x in cands):
                    raise Contradiction(r)
                cands = [c["val"]]
            if cands is not None:
                cands = [v for v in cands if not any(
                    values.values_equal(v, x) for x in c["noval"])]
                for p in c["pyes"]:
                    cands = [v for v in cands if values.test_match(v, p)]
                for p in c["pno"]:
                    cands = [v for v in cands if not values.test_match(v, p)]
                if not cands:
                    raise Contradiction(f"empty domain for {r}")
                if len(cands) == 1 and c["val"] is None:
                    c["val"] = cands[0]
            c["cands"] = cands

        for r1, r2 in neq:
            a, b2 = classes[r1]["val"], classes[r2]["val"]
            if a is not None and b2 is not None and values.values_equal(a, b2):
                raise Contradiction(f"{r1} != {r2}")
        self._classes = classes
        self._neq = neq
        self._st = st


CLOSURE_SRC = """
state s[1] default 0;
state t[1] default 0;
field a : small in {0, 1, 2};
field b : small in {1, 2, 3};
field c : small in {2};
field d : small;
field dst : ip;
field gw : ip;
field src : ip in {10.0.0.1, 10.0.1.1, 10.1.0.1, 11.0.0.1};
id
"""
IP_FIELDS = ("dst", "gw", "src")
CLOSURE_INTS = (0, 1, 2, 3)
CLOSURE_ADDRS = tuple(IPv4Address(a) for a in (
    "10.0.0.1", "10.0.1.1", "10.1.0.1", "11.0.0.1", "12.0.0.1"))
CLOSURE_PREFIXES = tuple(IPv4Network(p) for p in (
    "10.0.0.0/8", "10.0.0.0/16", "10.0.1.0/24", "10.1.0.0/16",
    "11.0.0.0/8"))
CLOSURE_INDICES = (lang.Lit(0), lang.FieldRef("a"))
CLOSURE_RHS = (lang.Lit(0), lang.Lit(1), lang.Lit(2), lang.FieldRef("a"),
               lang.FieldRef("d"))


def _closure_probes(prog) -> list:
    probes = [xfdd.TFieldValue(f, v) for f in ("a", "b", "c", "d")
              for v in CLOSURE_INTS]
    probes += [xfdd.TFieldValue(f, v) for f in ("dst", "gw", "src")
               for v in CLOSURE_ADDRS + CLOSURE_PREFIXES]
    fields = sorted(prog.fields)
    probes += [xfdd.make_ff(f, g) for i, f in enumerate(fields)
               for g in fields[i + 1:]]
    probes += [xfdd.TStateTest(var, i, rhs) for var in ("s", "t")
               for i in CLOSURE_INDICES for rhs in CLOSURE_RHS]
    return probes


def _random_fact(rng):
    k = rng.random()
    if k < 0.25:
        return xfdd.TFieldValue(rng.choice("abcd"), rng.choice(CLOSURE_INTS))
    if k < 0.4:
        return xfdd.TFieldValue(rng.choice(IP_FIELDS),
                                rng.choice(CLOSURE_ADDRS))
    if k < 0.55:
        return xfdd.TFieldValue(rng.choice(IP_FIELDS),
                                rng.choice(CLOSURE_PREFIXES))
    if k < 0.75:
        return xfdd.make_ff(*rng.sample(("a", "b", "c", "d") + IP_FIELDS, 2))
    return xfdd.TStateTest(rng.choice("st"), rng.choice(CLOSURE_INDICES),
                           rng.choice(CLOSURE_RHS))


def _random_steps(rng) -> list:
    """A random sequence of (fact, polarity) steps."""
    steps = [(_random_fact(rng), rng.random() < 0.5)
             for _ in range(rng.randint(1, 12))]
    if rng.random() < 0.4:
        # the chain f = x, g = y, f = h, h = g, spread over the sequence:
        # its equalities join classes that hold values
        f, g, h = rng.sample("abcd", 3)
        chain = [(xfdd.TFieldValue(f, rng.choice((1, 2))), True),
                 (xfdd.TFieldValue(g, rng.choice((1, 2))), True),
                 (xfdd.make_ff(f, h), True), (xfdd.make_ff(h, g), True)]
        at = sorted(rng.sample(range(len(steps) + 4), 4))
        for i, step in zip(at, chain):
            steps.insert(i, step)
    return steps


# Disjoint prefixes on two fields without a domain, then joined: the
# closure cannot tell that no packet is left, and `imply` answers from the
# joined class's first prefix in the order the facts were added.
JOINED_PREFIXES = [
    (xfdd.TFieldValue("dst", IPv4Network("10.0.0.0/8")), True),
    (xfdd.TFieldValue("gw", IPv4Network("11.0.0.0/8")), True),
    (xfdd.TFieldValue("dst", IPv4Network("10.0.0.0/16")), True),
    (xfdd.make_ff("dst", "gw"), True),
]


def test_context_add_equals_the_rebuilt_closure():
    """Context.add, which extends the parent's closure by one fact, agrees
    with the closure rebuilt from the whole fact list: on 300 seeded
    random fact sequences, each step raises Contradiction on both or on
    neither, and the two contexts give the same `imply` and `value_of`
    answers.  A contradicting fact is dropped and the sequence goes on."""
    prog = lang.parse(CLOSURE_SRC)
    probes = _closure_probes(prog)
    rng = random.Random("context-closure")
    seen = {"contradiction": 0, "consistent": 0, "merge-one-value": 0,
            "merge-two-values": 0}
    for steps in [JOINED_PREFIXES] + [_random_steps(rng) for _ in range(300)]:
        ctx, ref = xfdd.Context(prog), ReferenceContext(prog)
        for t, b in steps:
            if (b and isinstance(t, xfdd.TFieldField)
                    and ref._rep(t.f1) != ref._rep(t.f2)):
                known = [ctx.value_of(f) is not None for f in (t.f1, t.f2)]
                if all(known):
                    seen["merge-two-values"] += 1
                elif any(known):
                    seen["merge-one-value"] += 1
            try:
                ref2 = ref.add(t, b)
            except xfdd.Contradiction:
                with pytest.raises(xfdd.Contradiction):
                    ctx.add(t, b)
                seen["contradiction"] += 1
                continue
            ctx, ref = ctx.add(t, b), ref2
            seen["consistent"] += 1
            for p in probes:
                assert ctx.imply(p) == ref.imply(p), (ref.facts, p)
            for f in prog.fields:
                assert ctx.value_of(f) == ref.value_of(f), (ref.facts, f)
    assert min(seen.values()) >= 30, seen
