"""Distributed simulation tests: differential agreement with the evaluator,
FIFO links, interleaved quiescence, weighted load splitting, and the
atomicity probe."""

import dataclasses
import hashlib
import json
import random
from ipaddress import IPv4Address

import pytest

from snapnet import interp, lang, rulegen, simnet, topo
from snapnet.values import canon_key, value_to_json
from snapnet.topo import Link, Node, Topology

from conftest import CORPUS, policy_src


def canon_emissions(pairs):
    return sorted((p, tuple(sorted((f, canon_key(v)) for f, v in b.items())))
                  for p, b in pairs)


def oracle_emissions(result):
    return sorted((q["outport"],
                   tuple(sorted((f, canon_key(v)) for f, v in q.items())))
                  for q in result.packets.values())


def aggregate_oracle(store):
    return {var: {k: canon_key(v) for k, (i, v) in store.cells[var].items()}
            for var in store.cells}


def aggregate_net(net):
    agg = net.aggregate_state()
    return {var: {k: canon_key(v) for k, v in m.items()}
            for var, m in agg.items()}


def gen_packet(prog, rng, ports):
    pkt = {}
    for f in prog.field_names():
        d = prog.domain_of(f)
        pkt[f] = rng.choice(d) if d else rng.choice(ports)
    port = rng.choice(ports)
    pkt["inport"] = port
    return port, pkt


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


def _wrr_topology():
    nodes = {"E1": Node("E1", (1,)), "E2": Node("E2", (2,)),
             "E3": Node("E3", (3,)), "A": Node("A", ()),
             "B": Node("B", ()), "O": Node("O", ())}
    links = {}
    for a, b in [("E1", "A"), ("E1", "B"), ("A", "O"), ("B", "O"),
                 ("O", "E2"), ("O", "E3")]:
        links[(a, b)] = Link(a, b, 10.0)
        links[(b, a)] = Link(b, a, 10.0)
    demands = {(1, 2): 3.0, (1, 3): 1.0, (2, 1): 0.5, (3, 1): 0.5,
               (2, 3): 0.5, (3, 2): 0.5}
    t = Topology(nodes, links, demands)
    t.validate()
    return t


def test_unresolved_split_is_demand_proportional():
    """A packet whose egress is unknown until a downstream state test picks
    a candidate path by weighted round-robin: over 1000 packets the split
    matches the 3:1 demand ratio to within one packet."""
    prog = lang.parse("state seen[1] default 0;\n"
                      "if seen[0] = 0 then outport <- 2 else outport <- 3;"
                      " seen[0]++")
    t = _wrr_topology()
    bundle = rulegen.compile(prog, t)
    net = simnet.load(bundle, t, events=True)
    counts = {2: 0, 3: 0}
    for _ in range(1000):
        before = len(net.trace)
        net.inject(1, {"inport": 1, "outport": 1}, mode="serialized")
        for e in net.trace[before:]:
            if e.kind == "tag" and e.switch == "E1":
                counts[e.detail[1]] += 1
    total = counts[2] + counts[3]
    assert total == 1000
    assert abs(counts[2] - 750) <= 1
    assert abs(counts[3] - 250) <= 1


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
    weights = [w for c in bundle.configs.values()
               for rows in c.unresolved.values() for w, _, _ in rows]
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


RACE_SRC = """
state hon-ip[1] default False;
state hon-dstport[1] default False;
field srcip : ip in {10.1.0.1, 10.1.0.2};
field dstip : ip in {10.0.3.10};
field dstport : int in {22, 80};
(if dstip = 10.0.3.0/25 then %s else id);
outport <- 3
"""


def _diamond():
    nodes = {n: Node(n, ()) for n in ["A", "B"]}
    nodes["E1"] = Node("E1", (1,))
    nodes["E2"] = Node("E2", (2,))
    nodes["X"] = Node("X", (3,))
    links = {}
    for a, b in [("E1", "A"), ("E2", "B"), ("A", "B"), ("A", "X"),
                 ("B", "X")]:
        links[(a, b)] = Link(a, b, 10.0)
        links[(b, a)] = Link(b, a, 10.0)
    demands = {(u, v): 1.0 for u in (1, 2, 3) for v in (1, 2, 3) if u != v}
    t = Topology(nodes, links, demands)
    t.validate()
    return t


def _race_scenario():
    p1 = {"inport": 1, "outport": 1, "srcip": IPv4Address("10.1.0.1"),
          "dstip": IPv4Address("10.0.3.10"), "dstport": 22}
    p2 = {"inport": 2, "outport": 2, "srcip": IPv4Address("10.1.0.2"),
          "dstip": IPv4Address("10.0.3.10"), "dstport": 80}
    return {"packets": [(1, p1), (2, p2)],
            "vars": ("hon-ip", "hon-dstport"),
            "index": (1,), "fields": ("srcip", "dstport")}


def test_race_probe_atomic_vs_split():
    """Writes grouped in an atomic block land on one switch and stay
    mutually consistent under every schedule; splitting the same writes
    across two switches lets adversarial interleavings mix two packets."""
    body = "hon-ip[1] <- srcip; hon-dstport[1] <- dstport"
    t = _diamond()
    atomic = rulegen.compile(lang.parse(RACE_SRC % ("atomic{ " + body
                                                    + " }")), t)
    plain = rulegen.compile(lang.parse(RACE_SRC % body), t,
                            fixed={"hon-ip": "B", "hon-dstport": "A"})
    assert len(set(atomic.placement.values())) == 1
    bad_atomic = bad_plain = 0
    for seed in range(200):
        if not simnet.race_probe(simnet.load(atomic, t, seed=seed),
                                 _race_scenario())["consistent"]:
            bad_atomic += 1
        if not simnet.race_probe(simnet.load(plain, t, seed=seed),
                                 _race_scenario())["consistent"]:
            bad_plain += 1
    assert bad_atomic == 0
    assert bad_plain >= 1


def test_read_trace_accepts_loose_values(tmp_path):
    path = tmp_path / "trace.jsonl"
    rows = [
        {"port": 1, "packet": {"inport": 1, "outport": 1,
                               "srcip": "10.0.1.10", "net": "10.0.0.0/8",
                               "flag": True, "proto": "tcp", "n": 7}},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = simnet.read_trace(str(path), topo.example12())
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


def _run_digest(nets) -> str:
    """SHA-256 over the event traces and emissions of `nets`, in order."""
    h = hashlib.sha256()
    for net in nets:
        emitted = [[p, {f: value_to_json(v) for f, v in b.items()}]
                   for p, b in net.emissions]
        for rows in (simnet.trace_to_json(net.trace), emitted):
            h.update(json.dumps(rows, sort_keys=True).encode())
    return h.hexdigest()


# The digest of every event and emission of the traced runs below.  Any
# change to what the simulator does, or in what order, changes it.
TRACE_DIGEST = ("d1189e7c9b5b64b576558c9e021a5036"
                "68705152ae76ace2c52f7c2c4a425374")


@pytest.mark.pinned
def test_event_trace_changes_no_behaviour(corpus_bundles):
    """Recording the trace or not gives the same emissions, final state
    and counters, serialized and interleaved; the traced runs match the
    pinned digest."""
    t, bundles = corpus_bundles
    ports = t.external_ports()
    traced = []
    for name, prog, bundle in bundles:
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
    assert _run_digest(traced) == TRACE_DIGEST


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
    """In `outport <- 2; (id + (a <- 1; s[0]++))` one leaf holds two action
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
    prog = lang.parse("state s[1] default 0;\nfield a : small in {0, 1};\n"
                      "field b : small in {0, 1};\n"
                      "outport <- 2; (id + (a <- 1; s[0]++))")
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
