"""Distributed simulation tests: differential agreement with the evaluator,
FIFO links, interleaved quiescence, weighted load splitting, counters and
the pinned event trace."""

import dataclasses
import gc
import hashlib
import json
import random
import weakref
from ipaddress import IPv4Address

import pytest

from snapnet import interp, lang, rulegen, simnet, topo, values, xfdd
from snapnet.errors import EvalError, InfeasibleError, InputError
from snapnet.values import canon_key
from snapnet.topo import Link, Node, Topology

from conftest import CORPUS, policy_src
from helpers import (
    aggregate_net, aggregate_oracle, canon_emissions, gen_packet,
    oracle_emissions, workload_inputs,
)


@pytest.fixture(scope="module")
def deployed():
    prog = lang.compose_all([
        lang.parse(policy_src("dns-tunnel-detect")),
        lang.parse(policy_src("assign-egress")),
        lang.parse(policy_src("assumption")),
    ])
    t = topo.example12()
    bundle = rulegen.compile(prog, t)
    return prog, t, bundle


def test_serialized_differential(deployed):
    prog, t, bundle = deployed
    net = simnet.load(bundle, t)
    store = interp.Store.initial(prog)
    rng = random.Random(1)
    for _ in range(300):
        port, pkt = gen_packet(prog, rng, t.external_ports())
        r = interp.eval_program(prog, store, dict(pkt))
        assert r is not interp.UNDEFINED
        store = r.store
        got = net.inject(port, dict(pkt), mode="serialized")
        assert canon_emissions(got) == oracle_emissions(r)
    assert aggregate_net(net) == aggregate_oracle(store)


def test_interleaved_reaches_serialized_state(deployed):
    """With quiescence between packets, interleaved delivery produces the
    same final state and emission multiset as serialized execution."""
    prog, t, bundle = deployed
    net_s = simnet.load(bundle, t, seed=5)
    net_i = simnet.load(bundle, t, seed=5)
    rng = random.Random(2)
    for _ in range(100):
        port, pkt = gen_packet(prog, rng, t.external_ports())
        net_s.inject(port, dict(pkt), mode="serialized")
        net_i.inject(port, dict(pkt), mode="interleaved")
        net_i.run()   # drain before the next packet
    assert canon_emissions(net_i.emissions) == canon_emissions(
        net_s.emissions)
    assert aggregate_net(net_i) == aggregate_net(net_s)


def test_emitted_packets_carry_only_schema_fields(deployed):
    prog, t, bundle = deployed
    net = simnet.load(bundle, t)
    rng = random.Random(3)
    port, pkt = gen_packet(prog, rng, t.external_ports())
    out = net.inject(port, dict(pkt), mode="serialized")
    for _, body in out:
        assert set(body) == set(prog.field_names())


def test_inject_rejects_unknown_mode(deployed):
    _, t, bundle = deployed
    net = simnet.load(bundle, t)
    with pytest.raises(ValueError):
        net.inject(1, {}, mode="warp")


def test_interleaved_run_drains_all_links(deployed):
    prog, t, bundle = deployed
    net = simnet.load(bundle, t, seed=9)
    rng = random.Random(4)
    for _ in range(50):
        port, pkt = gen_packet(prog, rng, t.external_ports())
        net.inject(port, dict(pkt), mode="interleaved")
    net.run()
    assert all(not q for q in net._linkq.values())
    assert not net._events


def test_all_zero_group_weights_fall_back_to_round_robin():
    """With every demand volume 0 the compile costs nothing and every rule
    group weighs 0.0 throughout; the simulator then splits each group
    evenly, and 200 packets still match the interpreter."""
    prog = lang.compose_all([lang.parse(policy_src("stateful-fw")),
                             lang.parse(policy_src("assign-egress"))])
    t = topo.example12()
    t = dataclasses.replace(t, demands=dict.fromkeys(t.demands, 0.0))
    bundle = rulegen.compile(prog, t)
    assert bundle.objective == 0.0
    weights = [w for groups in bundle.groups.values()
               for rows in groups.values() for w, _, _ in rows]
    assert weights and set(weights) == {0.0}
    assert rulegen.validate_bundle(bundle, t) == []
    net = simnet.load(bundle, t, events=True)
    store = interp.Store.initial(prog)
    rng = random.Random(7)
    for _ in range(200):
        port, pkt = gen_packet(prog, rng, t.external_ports())
        r = interp.eval_program(prog, store, dict(pkt))
        assert r is not interp.UNDEFINED
        store = r.store
        got = net.inject(port, dict(pkt), mode="serialized")
        assert canon_emissions(got) == oracle_emissions(r)
    assert aggregate_net(net) == aggregate_oracle(store)
    assert any(e.kind == "tag" for e in net.trace)


def test_field_field_test_compiles_and_simulates():
    """In `s[a] <- 1; if s[b] = 1 ...` the test reads the cell the packet
    just wrote exactly when a = b, so the diagram tests a = b (a
    field-field test) before the state.  Compiled on example12, the
    simulator agrees with the interpreter on every packet of the
    domain, entering at every port."""
    prog = lang.parse("state s[1] default 0;\n"
                      "field a : small in {0, 1, 2};\n"
                      "field b : small in {0, 1, 2};\n"
                      "s[a] <- 1; if s[b] = 1 then outport <- 3 "
                      "else outport <- 4")
    t = topo.example12()
    bundle = rulegen.compile(prog, t)
    assert any(node[0] == "branch" and isinstance(node[1], xfdd.TFieldField)
               for node in bundle.nodes.values())
    net = simnet.load(bundle, t)
    store = interp.Store.initial(prog)
    for port in t.external_ports():
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                pkt = {"a": a, "b": b, "inport": port, "outport": port}
                r = interp.eval_program(prog, store, dict(pkt))
                store = r.store
                got = net.inject(port, dict(pkt))
                assert canon_emissions(got) == oracle_emissions(r)
    assert aggregate_net(net) == aggregate_oracle(store)


def test_read_trace_accepts_loose_values(tmp_path):
    path = tmp_path / "trace.jsonl"
    rows = [
        {"port": 1, "packet": {"inport": 1, "outport": 1,
                               "srcip": "10.0.1.10", "net": "10.0.0.0/8",
                               "flag": True, "proto": "tcp", "n": 7}},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = simnet.read_trace(str(path), topo.example12(), {})
    assert len(out) == 1
    port, pkt = out[0]
    assert port == 1
    assert pkt["srcip"] == IPv4Address("10.0.1.10")
    assert str(pkt["net"]) == "10.0.0.0/8"
    assert pkt["n"] == 7
    assert pkt["proto"].name == "tcp"


def test_trace_events_serializable(deployed):
    prog, t, bundle = deployed
    net = simnet.load(bundle, t, events=True)
    rng = random.Random(8)
    port, pkt = gen_packet(prog, rng, t.external_ports())
    net.inject(port, dict(pkt), mode="serialized")
    rows = simnet.trace_to_json(net.trace)
    assert rows and json.dumps(rows)
    assert {"time", "switch", "kind", "detail", "packet"} <= set(rows[0])


@pytest.fixture(scope="module")
def corpus_bundles():
    t = topo.example12()
    out = []
    for name in CORPUS:
        prog = lang.compose_all([lang.parse(policy_src(name)),
                                 lang.parse(policy_src("assign-egress"))])
        out.append((name, prog, rulegen.compile(prog, t)))
    return t, out


def _counters(net):
    return (net.injected, net.hops, net.processed, net.state_reads,
            net.state_writes, net.link_sent, net.link_max_queue)


def _canon_packet(pkt: dict) -> dict:
    return {f: canon_key(v) for f, v in pkt.items()}


def _event_rows(net) -> list:
    """A run's event trace and emissions, each value as its `canon_key`,
    so the digests below do not depend on a value's JSON form."""
    return [[[e.time, e.switch, e.kind, repr(e.detail),
              _canon_packet(e.packet)] for e in net.trace],
            [[p, _canon_packet(b)] for p, b in net.emissions]]


def _run_digest(nets) -> str:
    """SHA-256 over the event traces and emissions of `nets`, in order."""
    h = hashlib.sha256()
    for net in nets:
        for rows in _event_rows(net):
            h.update(json.dumps(rows, sort_keys=True).encode())
    return h.hexdigest()


# The digest of every event and emission of the traced runs below.  Any
# change to what the simulator does, or in what order, changes it.
TRACE_DIGEST = ("d2689a2e49fed8df5a4dd3a186fe79b2"
                "36b34c0daf5e21e1e55f9a2aa3a7b8c9")


# a leaf of two action sequences, whose copies fork
TWO_SEQUENCES = ("state s[1] default 0;\nfield a : small in {0, 1};\n"
                 "field b : small in {0, 1};\n"
                 "outport <- 2; (id + (a <- 1; s[0]++))")


@pytest.mark.pinned
def test_event_trace_changes_no_behaviour(corpus_bundles):
    """Recording the trace or not gives the same emissions, final state
    and counters, serialized and interleaved, on the corpus and on a
    program whose leaf forks two copies; the corpus's traced runs match
    the pinned digest."""
    t, bundles = corpus_bundles
    ports = t.external_ports()
    fork = lang.parse(TWO_SEQUENCES)
    traced = []
    for name, prog, bundle in bundles + [
            ("two sequences", fork, rulegen.compile(fork, t))]:
        rng = random.Random(name)
        trace = [gen_packet(prog, rng, ports) for _ in range(200)]
        on = simnet.load(bundle, t, seed=3, events=True)
        off = simnet.load(bundle, t, seed=3)
        for port, pkt in trace:
            assert (on.inject(port, dict(pkt))
                    == off.inject(port, dict(pkt))), name
        on_i = simnet.load(bundle, t, seed=3, events=True)
        off_i = simnet.load(bundle, t, seed=3)
        for start in range(0, len(trace), 8):
            for net in (on_i, off_i):
                for port, pkt in trace[start:start + 8]:
                    net.inject(port, dict(pkt), mode="interleaved")
                net.run()
        for a, b in ((on, off), (on_i, off_i)):
            assert a.emissions == b.emissions, name
            assert a.aggregate_state() == b.aggregate_state(), name
            assert _counters(a) == _counters(b), name
            assert a.trace and b.trace == [], name
        traced += [on, on_i]
    assert any(e.kind == "fork" for net in traced[-2:] for e in net.trace)
    assert _run_digest(traced[:-2]) == TRACE_DIGEST


def test_dropped_network_is_freed_at_once(corpus_bundles):
    """A network holds no reference cycle, so its last reference frees
    it even with the cyclic collector off: on every corpus bundle, after
    packets run serialized and interleaved, with and without the event
    trace.  A step that captured the network would keep it alive."""
    t, bundles = corpus_bundles
    ports = t.external_ports()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name, prog, bundle in bundles:
            rng = random.Random(name)
            trace = [gen_packet(prog, rng, ports) for _ in range(40)]
            for events in (False, True):
                for mode in ("serialized", "interleaved"):
                    net = simnet.load(bundle, t, seed=3, events=events)
                    for port, pkt in trace:
                        net.inject(port, dict(pkt), mode=mode)
                    net.run()
                    assert net.processed and net.emissions, name
                    ref = weakref.ref(net)
                    del net
                    assert ref() is None, (name, events, mode)
    finally:
        if was_enabled:
            gc.enable()


def _behaviour_rows(net) -> list:
    """What a run did: its event trace, emissions, counters (links and
    switches in sorted order) and final state, each value as its
    `canon_key`."""
    counters = [net.injected, net.hops] + [
        sorted([repr(k), n] for k, n in table.items())
        for table in (net.processed, net.state_reads, net.state_writes,
                      net.link_sent, net.link_max_queue)]
    state = {var: sorted([repr(k), canon_key(v)] for k, v in m.items())
             for var, m in net.aggregate_state().items()}
    return _event_rows(net) + [counters, state]


def _serial_and_bursts(bundle, t, trace) -> tuple:
    """Two traced networks that ran `trace`: one serialized, and one in
    interleaved bursts of eight, each burst drained before the next."""
    serial = simnet.load(bundle, t, seed=3, events=True)
    for port, pkt in trace:
        serial.inject(port, dict(pkt))
    inter = simnet.load(bundle, t, seed=3, events=True)
    for start in range(0, len(trace), 8):
        for port, pkt in trace[start:start + 8]:
            inter.inject(port, dict(pkt), mode="interleaved")
        inter.run()
    return serial, inter


# The digest of `_behaviour_rows` over the runs below.  Any change to what
# the simulator does, or in what order, changes it.
BEHAVIOUR_DIGEST = ("ed3c75f5bc4a809460da4a8a27edcaf9"
                    "fc6a44eada81ce23425c4e33551efde8")


@pytest.mark.pinned
def test_simulator_behaviour_is_pinned(corpus_bundles):
    """Every corpus policy with assign-egress on example12, and the
    simulate-e12 benchmark workload at seed 1, each run serialized and in
    interleaved bursts of eight with the event trace on: the trace, the
    emissions, the counters and the final state match a pinned digest."""
    t, bundles = corpus_bundles
    ports = t.external_ports()
    runs = []
    for name, prog, bundle in bundles:
        rng = random.Random(name)
        runs.append((bundle, t, [gen_packet(prog, rng, ports)
                                 for _ in range(100)]))
    inputs = workload_inputs()
    w = inputs.WORKLOADS["simulate-e12"]
    lit = inputs.draw_literals(1)
    prog = inputs.build_program(w, lit)
    te = inputs.build_topology(w)
    bundle = rulegen.compile(prog, te, **inputs.compile_options(w, prog))
    runs.append((bundle, te, inputs.packet_trace(lit, prog.field_names(),
                                                 1, 0, 400)))
    h = hashlib.sha256()
    for bundle, tb, trace in runs:
        for net in _serial_and_bursts(bundle, tb, trace):
            h.update(json.dumps(_behaviour_rows(net),
                                sort_keys=True).encode())
    assert h.hexdigest() == BEHAVIOUR_DIGEST


def test_counters_match_the_trace(corpus_bundles):
    t, bundles = corpus_bundles
    ports = t.external_ports()
    for name, prog, bundle in bundles:
        rng = random.Random(name)
        net = simnet.load(bundle, t, seed=4, events=True)
        for i in range(200):
            port, pkt = gen_packet(prog, rng, ports)
            net.inject(port, pkt, mode="interleaved" if i % 2 else
                       "serialized")
        net.run()
        kinds = {}
        for e in net.trace:
            key = (e.kind, e.detail if e.kind == "hop" else e.switch)
            kinds[key] = kinds.get(key, 0) + 1
        assert net.injected == 200 == sum(
            n for (k, _), n in kinds.items() if k == "ingress"), name
        assert net.hops == sum(n for (k, _), n in kinds.items()
                               if k == "hop"), name
        for link, sent in net.link_sent.items():
            assert sent == kinds.get(("hop", link), 0), (name, link)
            assert (sent > 0) == (net.link_max_queue[link] > 0), name
            assert net.link_max_queue[link] <= sent, name
        for sid in t.nodes:
            reads = kinds.get(("state-read", sid), 0)
            writes = kinds.get(("state-write", sid), 0)
            assert net.state_reads[sid] == reads, (name, sid)
            assert net.state_writes[sid] == writes, (name, sid)
        assert sum(net.processed.values()) == 200 + net.hops, name


def test_state_is_read_and_written_only_at_its_owner(corpus_bundles):
    """Every state read and write happens at the switch the placement
    gives its variable: on each corpus policy with assign-egress at its
    searched placement, and at up to three random fixed placements over
    example12 that admit a routing, serialized and in interleaved
    bursts."""
    t, bundles = corpus_bundles
    ports = t.external_ports()
    switches = sorted(t.nodes)
    pick = random.Random(0)
    runs = list(bundles)
    for name, prog, _ in bundles:
        for _ in range(3):
            fixed = {s: pick.choice(switches) for s in prog.states}
            try:
                runs.append((name, prog,
                             rulegen.compile(prog, t, fixed=fixed)))
            except InfeasibleError:
                pass
    assert len(runs) > 2 * len(bundles)
    for name, prog, bundle in runs:
        rng = random.Random(name)
        trace = [gen_packet(prog, rng, ports) for _ in range(100)]
        for net in _serial_and_bursts(bundle, t, trace):
            ops = [e for e in net.trace
                   if e.kind in ("state-read", "state-write")]
            assert ops, name
            for e in ops:
                assert e.switch == bundle.placement[e.detail[0]], (
                    name, bundle.placement, e.kind, e.switch, e.detail)


def test_link_queue_depth_counts_packets_in_flight():
    """Four packets injected together queue four deep on each link of a
    line; one at a time they never queue more than one deep."""
    nodes = {"E1": Node("E1", (1,)), "X": Node("X", ()),
             "E2": Node("E2", (2,))}
    links = {}
    for a, b in [("E1", "X"), ("X", "E2")]:
        links[(a, b)] = Link(a, b, 10.0)
        links[(b, a)] = Link(b, a, 10.0)
    t = Topology(nodes, links, {(1, 2): 1.0, (2, 1): 1.0})
    t.validate()
    bundle = rulegen.compile(lang.parse("outport <- 2"), t)
    for mode, depth in (("serialized", 1), ("interleaved", 4)):
        net = simnet.load(bundle, t)
        for _ in range(4):
            net.inject(1, {"inport": 1, "outport": 1}, mode=mode)
        net.run()
        assert len(net.emissions) == 4
        assert net.link_sent == {("E1", "X"): 4, ("X", "E2"): 4,
                                 ("X", "E1"): 0, ("E2", "X"): 0}
        assert net.link_max_queue == {("E1", "X"): depth,
                                      ("X", "E2"): depth,
                                      ("X", "E1"): 0, ("E2", "X"): 0}
        assert net.processed == {"E1": 4, "X": 4, "E2": 4}


def test_trace_stays_empty_without_events(deployed):
    prog, t, bundle = deployed
    net = simnet.load(bundle, t)
    rng = random.Random(10)
    for _ in range(2000):
        port, pkt = gen_packet(prog, rng, t.external_ports())
        net.inject(port, pkt)
    assert net.trace == []
    assert net.injected == 2000 and net.hops > 0
    assert sum(net.state_reads.values()) > 0
    assert sum(net.state_writes.values()) > 0


def test_duplicate_copy_carries_only_state():
    """In `TWO_SEQUENCES` one leaf holds two action
    sequences, and on a packet with a = 1 both give the same packet.  The
    interpreter's packet set holds it once; the simulator emits it once
    too, from the first copy, and the second copy only increments s."""
    nodes = {"E1": Node("E1", (1,)), "X": Node("X", ()),
             "E2": Node("E2", (2,))}
    links = {}
    for a, b in [("E1", "X"), ("X", "E2")]:
        links[(a, b)] = Link(a, b, 10.0)
        links[(b, a)] = Link(b, a, 10.0)
    t = Topology(nodes, links, {(1, 2): 1.0, (2, 1): 1.0})
    t.validate()
    prog = lang.parse(TWO_SEQUENCES)
    bundle = rulegen.compile(prog, t)
    pkts = [{"a": a, "b": b, "inport": 1, "outport": 1}
            for a in (0, 1) for b in (0, 1)]
    store = interp.Store.initial(prog)
    want = []
    net_s = simnet.load(bundle, t)
    for pkt in pkts:
        r = interp.eval_program(prog, store, dict(pkt))
        store = r.store
        assert len(r.packets) == (1 if pkt["a"] == 1 else 2)
        want += oracle_emissions(r)
        got = net_s.inject(1, dict(pkt), mode="serialized")
        assert canon_emissions(got) == oracle_emissions(r)
    net_i = simnet.load(bundle, t, seed=3)
    for pkt in pkts:
        net_i.inject(1, dict(pkt), mode="interleaved")
    net_i.run()
    assert canon_emissions(net_i.emissions) == sorted(want)
    for net in (net_s, net_i):
        assert aggregate_net(net) == aggregate_oracle(store)
    assert store.get("s", (0,)) == 4


def test_load_validates_a_bundle_once(tmp_path, monkeypatch):
    """`simnet.load` runs `validate_bundle` once per bundle: `load_bundle`
    checks a bundle read from a directory, and `load` itself one given
    in memory, which it still refuses when it is inconsistent."""
    prog = lang.compose_all([lang.parse(policy_src("stateful-fw")),
                             lang.parse(policy_src("assign-egress"))])
    t = topo.example12()
    bundle = rulegen.compile(prog, t)
    rulegen.write_bundle(bundle, str(tmp_path))
    calls = []
    real = rulegen.validate_bundle

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rulegen, "validate_bundle", counted)
    simnet.load(str(tmp_path), t)
    assert len(calls) == 1
    simnet.load(bundle, t)
    assert len(calls) == 2
    bundle.placement["established"] = "ZZ"
    with pytest.raises(InputError, match="inconsistent bundle: placement "
                       "of 'established' on unknown switch 'ZZ'"):
        simnet.load(bundle, t)


def test_load_refuses_a_bundle_without_rule_tables(tmp_path):
    """`rulegen.read_bundle` leaves the rules and groups out, as a written
    bundle does; `load` refuses such a bundle, which no packet could
    cross, and names `load_bundle`, which derives them."""
    prog = lang.compose_all([lang.parse(policy_src("stateful-fw")),
                             lang.parse(policy_src("assign-egress"))])
    t = topo.example12()
    rulegen.write_bundle(rulegen.compile(prog, t), str(tmp_path))
    bare = rulegen.read_bundle(str(tmp_path))
    with pytest.raises(InputError, match="no rules or groups for switch "
                       "'C1'.*rulegen.load_bundle"):
        simnet.load(bare, t)
    net = simnet.load(rulegen.load_bundle(str(tmp_path), t), t)
    port, pkt = gen_packet(prog, random.Random(1), t.external_ports())
    r = interp.eval_program(prog, interp.Store.initial(prog), dict(pkt))
    assert canon_emissions(net.inject(port, dict(pkt))) == (
        oracle_emissions(r))


def test_rules_that_loop_end_in_an_eval_error():
    """A packet copy may cross switches x (state variables + 1) links:
    with C1's rule for flow (1, 2) turned back to I1, a stateless
    program's packet from port 1 bounces between I1 and C1 until it
    crosses its twelfth link on example12, and the next raises."""
    prog = lang.parse(policy_src("assign-egress"))
    t = topo.example12()
    bundle = rulegen.compile(prog, t)
    assert bundle.rules["I1"][(1, 2)] == "C1"
    bundle.rules["C1"][(1, 2)] = "I1"
    net = simnet.load(bundle, t)
    pkt = {"inport": 1, "outport": 1, "dstip": IPv4Address("10.0.2.10")}
    with pytest.raises(EvalError, match="^a packet from port 1 crossed 12 "
                       "links and loops on I1->C1$"):
        net.inject(1, pkt)


def test_packet_for_a_port_no_switch_exposes_is_dropped():
    """`outport <- 99` on example12, whose ports are 1 to 6: the
    interpreter returns the packet, and the simulator drops it at its
    ingress switch, as the event trace says."""
    prog = lang.parse("outport <- 99")
    t = topo.example12()
    net = simnet.load(rulegen.compile(prog, t), t, events=True)
    pkt = {"inport": 1, "outport": 1}
    r = interp.eval_program(prog, interp.Store.initial(prog), dict(pkt))
    assert list(r.packets.values()) == [{"inport": 1, "outport": 99}]
    assert net.inject(1, dict(pkt)) == []
    assert [(e.switch, e.kind, e.detail) for e in net.trace] == [
        ("I1", "ingress", 1), ("I1", "drop", "unknown egress port 99")]


# tuple values in a cell and in a test's right-hand side, and a tuple index
TUPLES = """state last[1] default 0;
state s[2] default 0;
field srcip : ip in {10.0.1.10, 10.0.3.10};
field dstip : ip in {10.0.1.10, 10.0.3.10};
field dstport : int in {20, 80};
s[(srcip, dstip)]++;
if last[srcip] = (srcip, dstport) then outport <- 3
else (last[srcip] <- (srcip, dstport); outport <- 4)
"""


def test_tuple_values_round_trip_and_simulate(tmp_path):
    """A program that stores and tests tuples compiles on example12; its
    bundle, written and loaded, holds the compile's diagram, and run
    from it serialized and interleaved the simulator agrees with the
    interpreter on every packet and on the final state, whose tuple
    values read back from their JSON form."""
    prog = lang.parse(TUPLES)
    t = topo.example12()
    compiled = rulegen.compile(prog, t)
    rulegen.write_bundle(compiled, str(tmp_path))
    bundle = rulegen.load_bundle(str(tmp_path), t)
    assert (bundle.root, bundle.nodes) == (compiled.root, compiled.nodes)
    rng = random.Random(11)
    trace = [gen_packet(prog, rng, t.external_ports()) for _ in range(60)]
    store = interp.Store.initial(prog)
    want = []
    serial = simnet.load(bundle, t)
    inter = simnet.load(bundle, t, seed=2)
    for port, pkt in trace:
        r = interp.eval_program(prog, store, dict(pkt))
        store = r.store
        want += oracle_emissions(r)
        assert canon_emissions(serial.inject(port, dict(pkt))) == (
            oracle_emissions(r))
        inter.inject(port, dict(pkt), mode="interleaved")
        inter.run()
    assert canon_emissions(inter.emissions) == sorted(want)
    for net in (serial, inter):
        assert aggregate_net(net) == aggregate_oracle(store)
    cells = list(serial.aggregate_state()["last"].values())
    assert cells and all(isinstance(v, tuple) and values.is_value(v)
                         for v in cells)
    for v in cells:
        assert values.value_from_json(json.loads(json.dumps(
            values.value_to_json(v)))) == v
    assert "=(10.0.1.10, " in repr(store)
