"""Diagram compiler tests: differential checks against the reference
evaluator via an independent brute-force walker, plus conflict detection,
canonicalization, and pruning."""

import dataclasses
import hashlib
import json
import random
from ipaddress import IPv4Address, IPv4Network

import pytest

from snapnet import deps, interp, lang, rulegen, shape, values, xfdd
from snapnet.errors import ParseError, RaceError, UnsupportedCompositionError
from snapnet.interp import UNDEFINED

from conftest import ALL_POLICIES, policy_src
from helpers import (
    UNIVERSE_SRC, RestrictJoinBuilder, UncachedBuilder, all_packets,
    all_stores, eval_xfdd, random_policy, universe_prog, workload_programs,
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
    """Every diagram of the reference programs and the workload programs,
    before and after `prune_vacuous`, passes `xfdd.validate`: its tests
    keep the order, no test the path facts decide is left, and each leaf
    element is canonical."""
    randoms, corpus = reference_programs()
    built = 0
    for prog in randoms + corpus + workload_programs():
        order = deps.order_spec_program(prog)
        b = xfdd.Builder(prog, order)
        try:
            root = b.to_xfdd_program()
        except (RaceError, UnsupportedCompositionError):
            continue
        xfdd.validate(b.arena, root, prog, order)
        xfdd.validate(b.arena, b.prune_vacuous(root), prog, order)
        built += 1
    assert built == 676, built


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
def test_split_equals_the_restrict_and_join_reference():
    """The Builder against the reference Builder, its former design:
    `_split` puts its test over the halves as they were built, where the
    reference restricts both halves and joins them with the drop outcome
    in every leaf, and an If or `!` walks its predicate once, where the
    reference joins `(a;p) + (!a;q)`.  Over the reference programs, both
    give the same numbered diagram, before and after `prune_vacuous`, or
    raise the same error.  The arena is no larger on every corpus program
    and over a tenth smaller over all of them (20,483 nodes against
    30,761); on 4 of the 830 random programs it is one or two nodes
    larger, where the reference reuses a leaf that holds a bare drop
    beside other outcomes and the Builder interns it again without the
    drop."""
    randoms, corpus = reference_programs()
    built = 0
    sizes = []
    for prog in randoms + corpus:
        order = deps.order_spec_program(prog)
        out, size = [], []
        for b in (xfdd.Builder(prog, order), RestrictJoinBuilder(prog, order)):
            try:
                root = b.to_xfdd_program()
                out.append((rulegen.number_nodes(b.arena, root),
                            rulegen.number_nodes(b.arena,
                                                 b.prune_vacuous(root))))
            except (RaceError, UnsupportedCompositionError) as e:
                out.append((type(e), str(e)))
            size.append(len(b.arena.nodes))
        assert out[0] == out[1], prog.body
        built += not isinstance(out[0][0], type)
        sizes.append(size)
    assert built > 600 + len(ALL_POLICIES), built
    assert all(new <= ref for new, ref in sizes[len(randoms):])
    assert 10 * sum(new for new, _ in sizes) < 9 * sum(ref for _, ref in sizes)


def test_split_decides_what_the_path_facts_decide():
    """Below its top, `_split` restricts a half that did not branch on a
    test of the other half under the fact that test adds; where the path
    facts decide its test it keeps one half, also for a prefix test the
    facts imply but whose other side they do not contradict.  The
    reference restrict-and-join does both, and no test the path decides
    is left."""
    prog = lang.parse("field a; field b; field c; field e; field dstip;\nid")
    order = deps.order_spec_program(prog)
    fv = xfdd.TFieldValue

    def split(fact, t, hi, lo) -> list:
        out = []
        for b in (xfdd.Builder(prog, order), RestrictJoinBuilder(prog, order)):
            leaf = [b.arena.leaf({(lang.Mod("b", v),)}) for v in range(4)]
            root = b._split(t, b.empty_ctx().add(fact, True),
                            lambda c: hi(b.arena, leaf),
                            lambda c: lo(b.arena, leaf))
            out.append(rulegen.number_nodes(
                b.arena, b._map_leaves(root, b._merge_by_effect)))
        return out

    # with a = e on the path, lo's test on a decides hi's test on e,
    # which hi's open test on c hides from a refine of hi's top
    got = split(xfdd.make_ff("a", "e"), fv("b", 1),
                lambda a, leaf: a.branch(fv("c", 0), a.branch(
                    fv("e", 0), leaf[0], leaf[1]), leaf[2]),
                lambda a, leaf: a.branch(fv("a", 0), leaf[2], leaf[3]))
    assert got[0] == got[1]
    assert [n[1] for n in got[0][0].values() if n[0] == "branch"] == [
        fv("a", 0), fv("b", 1), fv("c", 0), fv("b", 1), fv("c", 0)]
    # 10.0.1.0/24 lies inside 10.0.0.0/16
    got = split(fv("dstip", IPv4Network("10.0.1.0/24")),
                fv("dstip", IPv4Network("10.0.0.0/16")),
                lambda a, leaf: leaf[0], lambda a, leaf: leaf[1])
    assert got[0] == got[1] == ({0: ("leaf", ((lang.Mod("b", 0),),))}, 0)


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


def test_a_run_with_nothing_to_annotate_is_plain():
    """No leaf the builder makes holds an `AnnotatedSeq` with no write
    set, no read set and no pops: such a run is the plain tuple, so each
    run has one node in the arena.  Over the reference programs and the
    workload programs."""
    randoms, corpus = reference_programs()
    leaves = 0
    for prog in randoms + corpus + workload_programs():
        b = xfdd.Builder(prog, deps.order_spec_program(prog))
        try:
            b.to_xfdd_program()
        except (RaceError, UnsupportedCompositionError):
            pass
        for node in b.arena.nodes:
            if node[0] != "L":
                continue
            leaves += 1
            for e in node[1]:
                assert not (isinstance(e, xfdd.AnnotatedSeq)
                            and not (e.qw or e.qr or e.pops)), e
    assert leaves > 10000, leaves


def test_no_leaf_holds_a_bare_drop_beside_another_outcome():
    """A bare drop beside other outcomes adds nothing (`_merge_by_effect`
    leaves it out), and no leaf of `_translate`'s diagram holds one: an
    If runs one branch per leaf of its predicate, and `+` leaves the drop
    out.  Over the reference programs and the workload programs."""
    randoms, corpus = reference_programs()
    built = 0
    for prog in randoms + corpus + workload_programs():
        b = xfdd.Builder(prog, deps.order_spec_program(prog))
        try:
            root = b._translate(prog.policy)
        except UnsupportedCompositionError:
            continue
        built += 1
        nodes, _ = rulegen.number_nodes(b.arena, root)
        for n in nodes.values():
            assert not (n[0] == "leaf" and len(n[1]) > 1
                        and xfdd.DROP_SEQ in n[1]), (prog.body, n)
    assert built > 600 + len(ALL_POLICIES), built


@pytest.mark.parametrize("body", [
    lang.If(lang.Mod("a", 1), lang.Id(), lang.Drop()),
    lang.If(lang.Or(lang.Test("b", 0), lang.Mod("a", 1)), lang.Id(),
            lang.Drop()),
    lang.Neg(lang.Mod("a", 1))], ids=["if-mod", "if-or-mod", "neg-mod"])
def test_a_condition_that_is_no_predicate_is_refused(body):
    """The parser refuses an If condition or a `!` operand that is not a
    predicate, so the Builder, which reads every leaf of a condition's
    diagram as a pass or a drop, never meets one."""
    with pytest.raises(ParseError, match="predicate"):
        lang.parse(UNIVERSE_SRC + lang.pretty_policy(body))


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


def test_field_indexed_state_differential():
    """State indexed by fields as well as literals, so that a write and a
    later test of one variable may or may not address one cell: the
    diagram then decides the index equality first (a field-field test).
    Over every packet and the 16 stores of two cells per variable, the
    diagram agrees with the evaluator, and a race is raised exactly where
    the evaluator is undefined."""
    rng = random.Random(12)
    prog0 = universe_prog()
    pkts = all_packets(prog0)
    stores = all_stores(prog0, indices=(0, 1))
    checked = field_field = 0
    for _ in range(400):
        pol = random_policy(rng, 3, field_index=True)
        prog = dataclasses.replace(prog0, body=pol)
        undef = any(interp.eval_program(prog, st, dict(p)) is UNDEFINED
                    for st in stores for p in pkts)
        try:
            b, root = build(prog)
        except RaceError:
            assert undef, lang.pretty_policy(pol)
            continue
        except UnsupportedCompositionError:
            continue
        assert not undef, lang.pretty_policy(pol)
        for st in stores:
            for p in pkts:
                agree(prog, b, root, st, p)
        checked += 1
        nodes, _ = rulegen.number_nodes(b.arena, root)
        field_field += any(isinstance(n[1], xfdd.TFieldField)
                           for n in nodes.values() if n[0] == "branch")
    assert checked > 300 and field_field > 0, (checked, field_field)


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


# The inner sequence of each of the first three tests a = b before s, and
# the modifications in front fix a, b or both.
@pytest.mark.parametrize("body", [
    "a <- 1; (s[a] <- 1; if s[b] = 1 then c <- 1 else id)",
    "b <- 0; (s[a] <- 1; if s[b] = 1 then c <- 1 else id)",
    "(a <- 1; b <- 1); (s[a] <- 1; if s[b] = 1 then c <- 1 else id)",
    "s[0] <- 1; s[0]++; if s[0] = 2 then c <- 1 else id",
    "s[0] <- (a, b); if s[0] = 1 then c <- 1 else id",
    "s[0] <- ((a, b), c); if s[0] = ((a, 1), c) then c <- 1 else id",
], ids=["a-fixed", "b-fixed", "both-fixed", "incremented-literal",
        "tuple-against-int", "nested-tuples"])
def test_sequencing_decides_through_mods_and_pending_writes(body):
    """A test after a modification or a state write is decided through
    them: a field-field test whose fields a modification fixed, and a
    state test against a cell a pending write fixed.  The diagram agrees
    with the evaluator on every packet and every store."""
    prog = lang.parse(UNIVERSE_SRC + body)
    b, root = build(prog)
    for st in all_stores(prog, indices=(0, 1)):
        for p in all_packets(prog):
            agree(prog, b, root, st, p)


@pytest.mark.parametrize("src, says", [
    ("state s[1] default 0;\nfield a : small in {0, 1};\n"
     "s[0] <- (a, a); s[0]++; if s[0] = 1 then id else drop",
     "increment composed over a structured stored value"),
    ("state s[1] default 0;\nfield f : ip;\n"
     "s[10.0.0.0/8] <- 1; if s[f] = 1 then id else drop",
     "prefix literal in an index-equality decision"),
    ("state s[1] default 0;\nfield f : ip;\nfield g : ip;\n"
     "f <- 10.0.0.0/8; (s[f] <- 1; if s[g] = 1 then id else drop)",
     "prefix-valued field in a field-field test"),
], ids=["incremented-tuple", "prefix-index", "prefix-valued-field"])
def test_compositions_no_test_can_decide_are_reported(src, says):
    """A test after a write that no diagram test can decide (a tuple cell
    plus one, or an index equal to a prefix) is an
    UnsupportedCompositionError that names the variable or field."""
    with pytest.raises(UnsupportedCompositionError, match=says):
        build(lang.parse(src))


def test_a_one_sided_prefix_write_never_collides():
    """Beside an unmodified copy, a copy whose field is set to a prefix is
    a second packet: no address equals a prefix, so no test decides
    whether the two coincide, and the diagram agrees with the
    evaluator."""
    prog = lang.parse("field f : ip;\nfield g : small in {0, 1};\n"
                      "(f <- 10.0.0.0/8 + id); g <- 1")
    b, root = build(prog)
    st = interp.Store.initial(prog)
    for f in ("10.0.0.1", "11.0.0.1"):
        agree(prog, b, root, st, {"f": IPv4Address(f), "g": 0,
                                  "inport": 0, "outport": 0})


def test_check_races_refuses_two_runs_that_write_one_variable():
    """The final check refuses a leaf where two runs write one variable
    even when no Poison marks it."""
    b, _ = build(universe_prog())
    write = lang.StateSet("s", lang.Lit(0), lang.Lit(1))
    leaf = b.arena.leaf({(write,), (write, lang.Mod("a", 1))})
    with pytest.raises(RaceError, match="'s'"):
        b.check_races(leaf)


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
    """Each test and atom reads back equal from the JSON its table gives
    it, whose keys are its class's fields and whose values have their
    one JSON form (`values.value_to_json`)."""
    pair = lang.Lit((IPv4Address("10.0.1.10"), 80))
    tests = (xfdd.TFieldValue("a", 1),
             xfdd.TFieldValue("dstip", IPv4Network("10.0.6.0/24")),
             xfdd.make_ff("b", "a"),
             xfdd.TStateTest("s", lang.TupleExpr((lang.FieldRef("a"),
                                                  lang.Lit(3))), pair))
    atoms = (lang.Mod("a", 1), lang.StateSet("s", lang.Lit(0), lang.Lit(2)),
             lang.StateSet("s", pair, lang.Lit(values.TRUE)),
             lang.Incr("s", lang.Lit(0)), lang.Decr("s", lang.Lit(0)),
             xfdd.DROP)
    for x, table in [(t, xfdd.TEST) for t in tests] + [
            (a, xfdd.ATOM) for a in atoms]:
        d = json.loads(json.dumps(xfdd.to_json(x, table)))
        assert xfdd.from_json(shape.check(d, table), table) == x
    assert xfdd.to_json(tests[3], xfdd.TEST) == {
        "t": "st", "var": "s",
        "index": {"e": "tuple", "items": [{"e": "field", "name": "a"},
                                          {"e": "lit", "value": 3}]},
        "rhs": {"e": "lit", "value": ["10.0.1.10", 80]}}
    assert xfdd.to_json(atoms[2], xfdd.ATOM)["rhs"] == {"e": "lit",
                                                        "value": True}


def _hashed_nodes(span, n: int) -> list:
    """One instance of each class that hashes once (`lang.hash_once`),
    with `span` where the class has one and n in a compared field."""
    ip = IPv4Address(f"10.0.0.{n}")
    idx = lang.TupleExpr((lang.FieldRef(f"f{n}", span), lang.Lit(ip, span)),
                         span)
    return [lang.Lit(ip, span), lang.FieldRef(f"f{n}", span), idx,
            lang.Mod("outport", n, span),
            lang.StateSet("s", idx, lang.Lit(n, span), span),
            lang.Incr(f"s{n}", idx, span), lang.Decr(f"s{n}", idx, span),
            xfdd.TFieldValue("dstip", IPv4Network(f"10.{n}.0.0/16")),
            xfdd.TFieldField("a", f"f{n}"),
            xfdd.TStateTest("s", idx, lang.Lit(n, span))]


def test_tests_and_actions_hash_once_over_their_compared_fields():
    """Each class that keeps its hash: two instances that differ only in
    their span are equal and hash alike, with the hash the dataclass
    would compute over the compared fields; a `dataclasses.replace` copy
    hashes as a fresh instance of its fields does."""
    for a, b, c in zip(_hashed_nodes(lang.Span(1, 1), 1),
                       _hashed_nodes(lang.Span(3, 9), 1),
                       _hashed_nodes(None, 2)):
        compared = [f.name for f in dataclasses.fields(a) if f.compare]
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, f) for f in compared))
        copy = dataclasses.replace(a, **{f: getattr(c, f) for f in compared})
        assert copy == c and hash(copy) == hash(c) != hash(a)


# ------------------------------------------------ closure reference

class ReferenceContext(xfdd.Context):
    """The path-fact closure as it was built before contexts were
    extended from their parents: from scratch over the whole fact list at
    every step.  Its queries (`imply`, `value_of`) are its own too, over
    lists of candidate values, as they were before Context kept them as
    masks, so the test compares two independent closures."""

    __slots__ = ("schema", "facts")

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

    def _class(self, f: str) -> dict:
        c = self._classes.get(self._rep(f))
        if c is not None:
            return c
        d = self.schema.domain_of(f)
        return {"val": None, "noval": [], "pyes": [], "pno": [],
                "cands": list(d) if d is not None else None}

    def value_of(self, f: str):
        return self._class(f)["val"]

    def imply(self, t):
        test_match, values_equal = values.test_match, values.values_equal
        if isinstance(t, xfdd.TFieldValue):
            c = self._class(t.field)
            if c["val"] is not None:
                return test_match(c["val"], t.value)
            if isinstance(t.value, IPv4Network):
                for p in c["pyes"]:
                    if p.subnet_of(t.value):
                        return True
                    if not p.overlaps(t.value):
                        return False
                for p in c["pno"]:
                    if t.value.subnet_of(p):
                        return False
                if c["cands"] is not None:
                    hits = [test_match(v, t.value) for v in c["cands"]]
                    if all(hits):
                        return True
                    if not any(hits):
                        return False
                return None
            if any(values_equal(t.value, x) for x in c["noval"]):
                return False
            for p in c["pyes"]:
                if not test_match(t.value, p):
                    return False
            for p in c["pno"]:
                if test_match(t.value, p):
                    return False
            if c["cands"] is not None:
                hits = [values_equal(v, t.value) for v in c["cands"]]
                if not any(hits):
                    return False
                if all(hits):
                    return True
            return None
        if isinstance(t, xfdd.TFieldField):
            r1, r2 = self._rep(t.f1), self._rep(t.f2)
            if r1 == r2:
                return True
            for a, b in self._neq:
                if {a, b} == {r1, r2}:
                    return False
            c1, c2 = self._class(t.f1), self._class(t.f2)
            if c1["val"] is not None and c2["val"] is not None:
                return values_equal(c1["val"], c2["val"])
            if c1["cands"] is not None and c2["cands"] is not None:
                if not any(values_equal(a, b)
                           for a in c1["cands"] for b in c2["cands"]):
                    return False
            return None
        slot = self._st.get((t.var, deps.expr_key(t.index)))
        if slot is None:
            return None
        rk = deps.expr_key(t.rhs)
        if slot["yes"] == rk:
            return True
        if rk in slot["no"]:
            return False
        if slot["yes"] is not None:
            y = slot["rhs"].get(slot["yes"])
            if isinstance(y, lang.Lit) and isinstance(t.rhs, lang.Lit):
                return False    # cell equals a different literal
        return None


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


def test_a_prefix_mask_takes_in_addresses_that_enter_later():
    """The contexts of one build share the value table.  A prefix test's
    mask, computed on one path, takes in an address that enters the
    table later, on another path."""
    prog = lang.parse(CLOSURE_SRC)
    root = xfdd.Context(prog)
    p = xfdd.TFieldValue("dst", IPv4Network("10.0.0.0/8"))
    for addr in ("10.0.0.1", "10.0.2.1", "11.0.0.1", "10.0.3.1"):
        ctx = root.add(xfdd.TFieldValue("dst", IPv4Address(addr)), True)
        assert ctx.imply(p) is addr.startswith("10."), addr


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


CTX2_HI_SRC = """
field srcip;
field dstip;
state s[1] default 0;
s[srcip] <- 1;
if s[dstip] = 1
then (if dstip = 10.0.0.1 then (if srcip = 10.0.0.1 then drop else id)
      else id)
else id
"""


def test_ctx2_drops_a_side_that_imply_leaves_open():
    """`Context.imply` is incomplete on both sides, so `Builder._ctx2`
    tries each side's fact as well.  With dstip = 10.0.0.1 and
    srcip != 10.0.0.1, imply leaves dstip = srcip open, yet its hi side
    contradicts; the program that meets it compiles to a diagram that
    agrees with the evaluator.  With a in {1, 2, 3}, d in {1, 2}, a = 1
    and a != d, imply leaves d = 2 open, yet its lo side contradicts.
    Facts that leave a field no value, which `add` does not notice
    (c in {1, 2, 3} unequal to a = 2, to b = 1 and to 3), contradict
    both sides of a test on c: `_ctx2` raises Contradiction naming it."""
    prog = lang.parse(CTX2_HI_SRC)
    b, root = build(prog)
    ctx = (xfdd.Context(prog)
           .add(xfdd.TFieldValue("dstip", IPv4Address("10.0.0.1")), True)
           .add(xfdd.TFieldValue("srcip", IPv4Address("10.0.0.1")), False))
    t = xfdd.TFieldField("dstip", "srcip")
    assert ctx.imply(t) is None
    hi, lo = b._ctx2(ctx, t)
    assert hi is None and lo is not None
    addrs = [IPv4Address(a) for a in ("10.0.0.1", "10.0.0.2")]
    m0 = interp.Store.initial(prog)
    for cells in ((), (addrs[0],), (addrs[1],), addrs):
        st = m0
        for a in cells:
            st = st.set("s", (a,), 1)
        for src in addrs:
            for dst in addrs:
                agree(prog, b, root, st, {"srcip": src, "dstip": dst,
                                          "inport": 0, "outport": 0})
    prog = lang.parse("field a in {1, 2, 3};\nfield d in {1, 2};\nid")
    ctx = (xfdd.Context(prog).add(xfdd.TFieldValue("a", 1), True)
           .add(xfdd.TFieldField("a", "d"), False))
    t = xfdd.TFieldValue("d", 2)
    assert ctx.imply(t) is None
    hi, lo = build(prog)[0]._ctx2(ctx, t)
    assert hi is not None and lo is None
    prog = lang.parse("field a in {1, 2};\nfield b in {1, 2};\n"
                      "field c in {1, 2, 3};\nid")
    ctx = xfdd.Context(prog)
    for fact, polarity in ((xfdd.TFieldValue("a", 2), True),
                           (xfdd.TFieldValue("b", 1), True),
                           (xfdd.TFieldValue("c", 3), False),
                           (xfdd.TFieldField("a", "c"), False),
                           (xfdd.TFieldField("b", "c"), False)):
        ctx = ctx.add(fact, polarity)
    t = xfdd.TFieldValue("c", 1)
    assert ctx.imply(t) is None
    with pytest.raises(xfdd.Contradiction, match="^c = 1$"):
        build(prog)[0]._ctx2(ctx, t)
