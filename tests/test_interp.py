"""Reference-evaluator tests: merge rules, fan-out, conflicts, counters."""

import gc
import random
import types
import weakref

import pytest

from snapnet import interp, lang, topo
from snapnet.errors import EvalError
from snapnet.interp import UNDEFINED, Store
from snapnet.values import Atom, IPv4Address, IPv4Network, TRUE

from conftest import CORPUS, policy_src
from helpers import (
    UNIVERSE_SRC, all_packets, all_stores, random_policy, reference_eval,
    universe_prog,
)


def run(src, pkt, store=None):
    prog = lang.parse(UNIVERSE_SRC + "\n" + src)
    st = store if store is not None else Store.initial(prog)
    return interp.eval_program(prog, st, dict(pkt))


PKT = {"a": 0, "b": 0, "c": 0}


def test_id_and_drop():
    r = run("id", PKT)
    assert r.packet_list() == [PKT]
    assert run("drop", PKT).packet_list() == []


def test_field_test_and_mod():
    assert run("a = 0", PKT).packet_list() == [PKT]
    assert run("a = 1", PKT).packet_list() == []
    r = run("a <- 1", PKT)
    assert r.packet_list() == [{"a": 1, "b": 0, "c": 0}]


def test_prefix_match():
    prog = lang.parse("field f : ip in {10.0.1.10, 10.0.2.10};\n"
                      "f = 10.0.1.0/24")
    st = Store.initial(prog)
    hit = interp.eval(prog.body, st, {"f": IPv4Address("10.0.1.10")})
    miss = interp.eval(prog.body, st, {"f": IPv4Address("10.0.2.10")})
    assert len(hit.packets) == 1 and not miss.packets
    # an address literal matches the address, never the int of its bits,
    # and an int literal the int, never the address
    addr = IPv4Address("10.0.1.10")
    for literal, value, ok in ((addr, addr, True), (addr, int(addr), False),
                               (int(addr), int(addr), True),
                               (int(addr), addr, False)):
        r = interp.eval(lang.Test("f", literal), st, {"f": value})
        assert len(r.packets) == ok, (literal, value)


def test_state_test_reads_default():
    r = run("if s[0] = 0 then a <- 1 else drop", PKT)
    assert r.packet_list() == [{"a": 1, "b": 0, "c": 0}]
    assert ("R", "s") in r.log


def test_state_set_and_default_elision():
    r = run("s[0] <- 1", PKT)
    assert r.store.get("s", (0,)) == 1
    assert r.store.var_map("s")  # non-default: materialized
    back = run("s[0] <- 0", PKT, r.store)
    assert back.store.var_map("s") == {}  # default again: elided
    assert back.store == Store.initial(lang.parse(UNIVERSE_SRC + "\nid"))


def test_a_write_that_changes_nothing_returns_the_same_store():
    """A write that leaves its cell's canonical key as it was returns the
    store itself, so results share it; a write of an address with an
    int's bits changes the cell.  Merge and equality give what they give
    on a fresh store with the same cells."""
    m = Store.initial(universe_prog())
    assert m.set("s", (0,), 0) is m          # the default, never stored
    m1 = m.set("s", (0,), 1)
    assert m1 is not m and m.var_map("s") == {}
    assert m1.set("s", (0,), 1) is m1
    assert m1.set("s", (0,), IPv4Address("0.0.0.1")) != m1
    assert m1.set("s", (0,), 0) == m and m1.get("s", (0,)) == 1
    m2 = m.set("t", (0,), 2)
    fresh = Store(m.decls, dict(m.cells))
    assert (interp.merge(m, m.set("s", (0,), 0), m2)
            == interp.merge(m, fresh, m2) == m2)
    assert interp.merge(m, m1, m1.set("s", (0,), 1)) == m1
    assert interp.merge(m1, m1.set("s", (0,), 1), m2) == m2


def test_counters():
    r = run("s[0]++; s[0]++; s[0]--", PKT)
    assert r.store.get("s", (0,)) == 1
    prog = lang.parse(UNIVERSE_SRC + "\ns[0]++")
    bad = Store.initial(prog).set("s", (0,), Atom("oops"))
    with pytest.raises(EvalError):
        interp.eval_program(prog, bad, dict(PKT))


def test_counter_overflow():
    prog = lang.parse(UNIVERSE_SRC + "\ns[0]++")
    near = Store.initial(prog).set("s", (0,), 2**63 - 1)
    with pytest.raises(OverflowError):
        interp.eval_program(prog, near, dict(PKT))


@pytest.mark.parametrize("src", ["a = 0", "a <- 1", "s[a] <- 1", "s[0] = a"],
                         ids=["test", "mod", "index", "rhs"])
def test_a_packet_without_a_read_field_raises(src):
    """A packet without a field that a test, a modification or an
    expression reads is an EvalError that names the field, in the
    compiled interpreter as in the semantics equations."""
    prog = lang.parse(UNIVERSE_SRC + "\n" + src)
    st, pkt = Store.initial(prog), {"b": 0, "c": 0}
    with pytest.raises(EvalError, match="^unknown field 'a'$"):
        interp.eval_program(prog, st, dict(pkt))
    with pytest.raises(EvalError, match="^unknown field 'a'$"):
        reference_eval(prog.policy, st, dict(pkt))


def test_par_multicast_and_store_merge():
    r = run("(a <- 1; s[0] <- 1) + (b <- 1; t[0] <- 2)", PKT)
    assert sorted(p["a"] for p in r.packet_list()) == [0, 1]
    assert r.store.get("s", (0,)) == 1
    assert r.store.get("t", (0,)) == 2


def test_par_write_write_conflict_is_undefined():
    r = run("(s[0] <- 1) + (s[0] <- 2)", PKT)
    assert r is UNDEFINED and repr(r) == "Undefined"


def test_par_read_write_conflict_is_undefined():
    assert run("(s[0] <- 1) + (if s[0] = 0 then id else drop)",
               PKT) is UNDEFINED


def test_par_distinct_vars_ok():
    r = run("(s[0] <- 1) + (t[0] <- 2)", PKT)
    assert r is not UNDEFINED and len(r.packets) == 1


def test_seq_fan_out_conflict():
    # the multicast duplicates both write s: same cell, same value,
    # still a write/write conflict at variable granularity
    assert run("(a <- 0 + a <- 1); s[0] <- 1", PKT) is UNDEFINED
    # field mods after fan-out are fine
    r = run("(a <- 0 + a <- 1); b <- 1", PKT)
    assert all(p["b"] == 1 for p in r.packet_list())


def test_seq_threads_store():
    r = run("s[0] <- 1; if s[0] = 1 then a <- 1 else drop", PKT)
    assert r.packet_list() == [{"a": 1, "b": 0, "c": 0}]


def test_if_greedy_and_cond_log():
    r = run("if s[0] = 0 then id else drop", PKT)
    assert r.log == (("R", "s"),)


def test_atomic_is_semantically_transparent():
    r1 = run("atomic { s[0] <- 1; t[0] <- 2 }", PKT)
    r2 = run("s[0] <- 1; t[0] <- 2", PKT)
    assert r1.store == r2.store and r1.packets.keys() == r2.packets.keys()


def test_neg_and_or_and():
    assert run("!(a = 1)", PKT).packet_list() == [PKT]
    assert run("a = 0 & b = 0", PKT).packet_list() == [PKT]
    assert run("a = 1 | b = 0", PKT).packet_list() == [PKT]
    assert run("a = 1 | b = 1", PKT).packet_list() == []


def test_assumption_filters_input():
    prog = lang.parse(UNIVERSE_SRC + "\nassume a = 1;\nid")
    r = interp.eval_program(prog, Store.initial(prog), dict(PKT))
    assert r.packet_list() == []


def test_consistent_log_algebra():
    assert interp.consistent((("R", "s"),), (("R", "s"),))
    assert not interp.consistent((("W", "s"),), (("R", "s"),))
    assert not interp.consistent((("R", "s"),), (("W", "s"),))
    assert not interp.consistent((("W", "s"),), (("W", "s"),))
    assert interp.consistent((("W", "s"),), (("W", "t"),))


def test_tuple_index():
    prog = lang.parse("state u[2] default 0;\nfield a : small in {0, 1};\n"
                      "u[a][7] <- 5")
    r = interp.eval_program(prog, Store.initial(prog), {"a": 1})
    assert r.store.get("u", (1, 7)) == 5
    assert r.store.get("u", (0, 7)) == 0


def test_bool_and_network_values_round_trip():
    prog = lang.parse("field f : ip in {10.0.1.10};\nstate s[1] default False;\n"
                      "if f = 10.0.1.0/24 then s[0] <- True else id")
    pkt = {"f": IPv4Address("10.0.1.10")}
    r = interp.eval_program(prog, Store.initial(prog), pkt)
    assert r.store.get("s", (0,)) == TRUE
    assert isinstance(prog.body.cond.value, IPv4Network)


def test_eval_matches_reference_on_random_policies():
    """The dispatch table and the handed-down packet keys give the former
    isinstance chain's results bit for bit: the `Mod`s inside `Seq` and
    `Par` make multi-packet fan-out, duplicate outputs and keys that must
    follow each packet through every later node."""
    prog = universe_prog()
    stores = all_stores(prog)
    pkts = all_packets(prog)
    rng = random.Random(20161)
    undefined = fan_out = 0
    for _ in range(2000):
        p = random_policy(rng, 3)
        for st in stores:
            for pkt in pkts:
                want = reference_eval(p, st, dict(pkt))
                got = interp.eval(p, st, dict(pkt))
                assert (got is UNDEFINED) == (want is UNDEFINED), p
                if want is UNDEFINED:
                    undefined += 1
                    continue
                assert got.packets == want.packets, p
                assert got.store.cells == want.store.cells, p
                assert got.log == want.log, p
                fan_out += len(want.packets) > 1
    assert undefined and fan_out


@pytest.mark.parametrize("names", [[name, "assign-egress"] for name in CORPUS]
                         + [["assumption", "assign-egress"]],
                         ids=CORPUS + ["assumption"])
def test_eval_program_matches_reference_on_example_policies(names):
    """The compiled program gives the semantics equations' results on each
    example policy that compiles with assign-egress on example12, and on
    the assumption, whose program is the `Seq` of assumption and body:
    200 seeded packets threaded through both stores."""
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    ports = topo.example12().external_ports()
    rng = random.Random(" ".join(names))
    got_store = want_store = Store.initial(prog)
    passed = 0
    for _ in range(200):
        pkt = {f: rng.choice(prog.domain_of(f) or ports)
               for f in prog.field_names()}
        got = interp.eval_program(prog, got_store, dict(pkt))
        want = reference_eval(prog.policy, want_store, dict(pkt))
        assert (got is UNDEFINED) == (want is UNDEFINED)
        if want is UNDEFINED:
            continue
        assert got.packets == want.packets
        assert got.store.cells == want.store.cells
        assert got.log == want.log
        got_store, want_store = got.store, want.store
        passed += bool(want.packets)
    assert passed


def _compiled_closures() -> int:
    return sum(1 for o in gc.get_objects()
               if isinstance(o, types.FunctionType)
               and o.__module__ == interp.__name__
               and "<locals>" in o.__qualname__)


def test_compiled_program_dies_with_its_program():
    """A program holds its compiled policy and nothing else does: once the
    program is gone, so are it and its closures."""
    gc.collect()
    before = _compiled_closures()
    prog = lang.parse(UNIVERSE_SRC + "\nif s[0] = 0 then s[0]++ else drop")
    assert interp.eval_program(prog, Store.initial(prog), dict(PKT)).packets
    assert _compiled_closures() > before
    ref = weakref.ref(prog)
    del prog
    gc.collect()
    assert ref() is None
    assert _compiled_closures() == before
