"""End-to-end acceptance suite.

One test per acceptance criterion; `pytest -v` prints one pass/fail line
for each.  Each test also prints a CRITERION summary line (visible with
-s or in captured output on failure)."""

import dataclasses
import itertools
import random
import re
import time
from ipaddress import IPv4Address

import pytest

from snapnet import deps, interp, lang, opt, rulegen, simnet, topo, xfdd
from snapnet.errors import RaceError
from snapnet.interp import UNDEFINED
from snapnet.topo import Link, Node, Topology

from conftest import CORPUS, policy_src
from helpers import (
    aggregate_net, aggregate_oracle, all_packets, all_stores,
    canon_emissions, demand_map, eval_xfdd, gen_packet, oracle_emissions,
    race_probe, random_policy, universe_prog,
)


def _compose(names):
    return lang.compose_all([lang.parse(policy_src(n)) for n in names])


def test_criterion_1_distributed_equivalence_over_policy_corpus():
    """>= 15 corpus policies composed with assign-egress on the
    twelve-switch topology; 1000 seeded packets each in serialized mode;
    distributed emissions and aggregated state must equal the reference
    evaluator exactly; < 60 s total."""
    t0 = time.monotonic()
    assert len(CORPUS) >= 15
    t = topo.example12()
    ports = t.external_ports()
    for name in CORPUS:
        prog = _compose([name, "assign-egress"])
        bundle = rulegen.compile(prog, t)
        net = simnet.load(bundle, t)
        store = interp.Store.initial(prog)
        rng = random.Random(name)
        for _ in range(1000):
            port, pkt = gen_packet(prog, rng, ports)
            r = interp.eval_program(prog, store, dict(pkt))
            assert r is not UNDEFINED, name
            store = r.store
            got = net.inject(port, dict(pkt), mode="serialized")
            assert canon_emissions(got) == oracle_emissions(r), name
        assert aggregate_net(net) == aggregate_oracle(store), name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
    print(f"CRITERION 1: PASS ({len(CORPUS)} policies x 1000 packets, "
          f"{elapsed:.1f}s)")


def test_criterion_2_placement_optimality_on_running_example():
    """The three DNS-tunnel variables all land on the department switch
    serving the DNS server, and exhaustive enumeration of all 12^3 group
    placements with the same routing subroutine confirms optimality;
    < 30 s."""
    t0 = time.monotonic()
    prog = _compose(["dns-tunnel-detect", "assign-egress", "assumption"])
    t = topo.example12()
    order, demand = demand_map(prog, t)
    m = opt.build_milp(t, demand, order)
    sol = opt.solve_builtin(m)
    assert sol.exact
    assert sol.placement == {"orphan": "D4", "susp-client": "D4",
                             "blacklist": "D4"}

    # independent exhaustive sweep over every per-variable placement
    nodes = sorted(t.nodes)
    vars_ = ("orphan", "susp-client", "blacklist")
    flow_order = opt._flow_order(m)
    best = None
    best_placements = []
    count = 0
    unloaded = opt._unloaded(t)
    for combo in itertools.product(nodes, repeat=3):
        count += 1
        placement = dict(zip(vars_, combo))
        r = opt._route_flows(m, placement, flow_order, {}, unloaded,
                             abort_above=best)
        if r is None:
            continue
        _, obj = r
        if best is None or obj < best - 1e-9:
            best = obj
            best_placements = [placement]
        elif abs(obj - best) <= 1e-9:
            best_placements.append(placement)
    assert count == 12 ** 3
    assert best is not None
    # nothing strictly better exists, and the solver's answer attains it
    assert best >= sol.objective - 1e-9
    assert sol.placement in best_placements
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 2: PASS (all three variables on D4, optimal over "
          f"{count} placements, {elapsed:.1f}s)")


def test_criterion_3_diagram_algebra_matches_evaluator():
    """500 seeded random policy pairs over the 3-field/2-value/2-variable
    universe: the compiled diagrams of (p+q), (p;q), (!x) agree with the
    evaluator on every packet and store, with evaluator-Undefined matching
    compile-time RaceError exactly; < 120 s."""
    t0 = time.monotonic()
    rng = random.Random(2026)
    prog0 = universe_prog()
    pkts = all_packets(prog0)
    stores = all_stores(prog0)
    races = agreements = 0
    for _ in range(500):
        p = random_policy(rng, 2, counters=False)
        q = random_policy(rng, 2, counters=False)
        x = random_policy(rng, 0, counters=False)
        combos = [lang.Par(p, q), lang.Seq(p, q)]
        if isinstance(x, (lang.Id, lang.Drop, lang.Test, lang.StateTest,
                          lang.Neg, lang.Or, lang.And)):
            combos.append(lang.Neg(x))
        for pol in combos:
            prog = dataclasses.replace(prog0, body=pol)
            undef = any(
                interp.eval_program(prog, st, dict(pk)) is UNDEFINED
                for st in stores for pk in pkts)
            builder = xfdd.Builder(prog, deps.order_spec_program(prog))
            try:
                root = builder.to_xfdd_program()
            except RaceError:
                assert undef, lang.pretty_policy(pol)
                races += 1
                continue
            assert not undef, lang.pretty_policy(pol)
            for st in stores:
                for pk in pkts:
                    r = interp.eval_program(prog, st, dict(pk))
                    st2, outs = eval_xfdd(builder.arena, root, st, dict(pk))
                    assert set(outs) == set(r.packets)
                    assert st2 == r.store
            agreements += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    assert races > 20 and agreements > 500
    print(f"CRITERION 3: PASS ({agreements} agreeing compositions, "
          f"{races} races, {elapsed:.1f}s)")


def test_criterion_4_race_detection_and_benign_variants():
    """Parallel writes to one variable and state writes after a packet
    fan-out are compile-time races naming the variable; writes to distinct
    variables and field assignments after fan-out compile."""
    def build(src):
        prog = lang.parse(src)
        b = xfdd.Builder(prog, deps.order_spec_program(prog))
        return b.to_xfdd_program()

    with pytest.raises(RaceError) as e1:
        build("state s[1] default 0;\n(s[0] <- 1) + (s[0] <- 2)")
    assert e1.value.var == "s"

    with pytest.raises(RaceError) as e2:
        build("state s[1] default 0;\nfield a : small in {0, 1};\n"
              "((a <- 0) + (a <- 1)); s[0] <- 1")
    assert e2.value.var == "s"

    # distinct variables: no conflict
    assert isinstance(build(
        "state s[1] default 0;\nstate t[1] default 0;\n"
        "(s[0] <- 1) + (t[0] <- 2)"), int)
    # field update after the fan-out: no state log, no conflict
    assert isinstance(build(
        "field a : small in {0, 1};\nfield g : small in {0, 1, 3};\n"
        "((a <- 0) + (a <- 1)); g <- 3"), int)
    print("CRITERION 4: PASS")


def test_criterion_5_checker_flags_violations_and_lp_round_trips():
    """check_solution flags five hand-made violations (placement totality,
    tied co-location, coverage, processed-completeness, ordering),
    passes the solver's own outputs, and the LP export parses back with
    exactly the model's row and column counts."""
    t = topo.example12()
    for k in t.demands:
        t.demands[k] = 0.25      # headroom for the adversarial placement
    prog = _compose(["many-ip-domains", "assign-egress"])
    order, demand = demand_map(prog, t)
    m = opt.build_milp(t, demand, order)
    sol = opt.solve_builtin(m)
    assert opt.check_solution(m, sol.placement, sol.routing) == []

    flagged = []

    # 1: a variable missing from the placement
    p1 = dict(sol.placement)
    del p1["mal-ip-list"]
    vs = opt.check_solution(m, p1, sol.routing)
    assert any(v.constraint == "place_mal_ip_list" for v in vs)
    flagged.append("place_")

    # 2: tied variables split across switches
    p2 = dict(sol.placement)
    p2["num-of-domains"] = next(n for n in sorted(t.nodes)
                                if n != p2["domain-ip-pair"])
    vs = opt.check_solution(m, p2, sol.routing)
    assert any(v.constraint.startswith("tied_") for v in vs)
    flagged.append("tied_")

    # 3 and 4: a flow rerouted around the owner switch breaks the
    # processed-flow rows of the owner, which must process all of it
    # (coverage), and of its sink, where all of it arrives processed
    owner = sol.placement["domain-ip-pair"]
    (u, v), detour = _owner_avoiding_path(m, owner)
    r3 = dict(sol.routing)
    r3[(u, v)] = detour
    vs = opt.check_solution(m, sol.placement, r3)
    assert any(x.constraint ==
               f"pcons_domain_ip_pair_u{u}_v{v}_{opt._san(owner)}"
               for x in vs)
    flagged.append("pcons_ at the owner")
    assert any(x.constraint ==
               f"pcons_domain_ip_pair_u{u}_v{v}_{opt._san(detour[-1])}"
               for x in vs)
    flagged.append("pcons_ at the sink")

    # 5: dependent variable reached before its prerequisites (isolated to
    # its rows on one flow: a straight path under a placement that demands
    # a detour; the variable never runs, so its processed-flow rows at its
    # owner and at the sink fail with the ordering rows)
    placement = {"domain-ip-pair": "C5", "num-of-domains": "C5",
                 "mal-ip-list": "C1"}
    te = opt.build_milp(t, demand, order, fixed=placement)
    te_sol = opt.solve_builtin(te)
    assert opt.check_solution(m, placement, te_sol.routing) == []
    r5 = dict(te_sol.routing)
    r5[(1, 5)] = ("I1", "C1", "C5", "D3")
    vs = opt.check_solution(m, placement, r5)
    assert {x.constraint for x in vs} == {
        "ord_domain_ip_pair_mal_ip_list_u1_v5_C1",
        "ord_num_of_domains_mal_ip_list_u1_v5_C1",
        "pcons_mal_ip_list_u1_v5_C1", "pcons_mal_ip_list_u1_v5_D3"}
    flagged.append("ord_")

    assert flagged == ["place_", "tied_", "pcons_ at the owner",
                       "pcons_ at the sink", "ord_"]

    # LP export parse-back
    text = opt.export_lp(m)
    rows, cols = _parse_lp(text)
    assert len(rows) == len(m.constraints)
    assert rows == sorted(c.name for c in m.constraints)
    assert cols == set(m.variables())
    print(f"CRITERION 5: PASS (violations {flagged}, LP {len(rows)} rows x "
          f"{len(cols)} columns)")


def _owner_avoiding_path(m, owner):
    t = m.topo
    for (u, v) in sorted(m.flows):
        _, svars = m.flows[(u, v)]
        if not svars:
            continue
        src, snk = t.node_of_port(u), t.node_of_port(v)
        if owner in (src, snk):
            continue
        prev = {src: None}
        q = [src]
        while q:
            x = q.pop(0)
            for l in t.out_links(x):
                if l.dst == owner or l.dst in prev:
                    continue
                prev[l.dst] = x
                q.append(l.dst)
        if snk not in prev:
            continue
        path = []
        n = snk
        while n is not None:
            path.append(n)
            n = prev[n]
        return (u, v), tuple(reversed(path))
    raise AssertionError("no owner-avoiding flow found")


def _parse_lp(text):
    section = None
    rows = []
    cols = set()
    term_re = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
    for line in text.splitlines():
        s = line.strip()
        if s in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = s
            continue
        if section == "Minimize":
            cols.update(x for x in term_re.findall(s) if x != "obj")
        elif section == "Subject To":
            name, body = s.split(":", 1)
            rows.append(name.strip())
            cols.update(term_re.findall(body))
        elif section == "Bounds":
            cols.update(term_re.findall(s))
        elif section == "Binary" and s:
            cols.add(s)
    return rows, cols


def test_criterion_6_dependency_order_and_total_order_axioms():
    """orphan < susp-client < blacklist, and the derived rank is a total
    order consistent with the dependency edges on 10^4 random triples."""
    prog = lang.parse(policy_src("dns-tunnel-detect"))
    spec = deps.order_spec_program(prog)
    r = spec.state_rank
    assert r["orphan"] < r["susp-client"] < r["blacklist"]
    assert spec.groups == [["orphan"], ["susp-client"], ["blacklist"]]

    rng = random.Random(64)
    triples = 0
    while triples < 10_000:
        n = rng.randrange(2, 7)
        names = [f"v{i}" for i in range(n)]
        edges = {(rng.choice(names), rng.choice(names))
                 for _ in range(rng.randrange(0, 2 * n))}
        spec = deps.order_spec(deps.DependencyGraph(frozenset(names),
                                                    frozenset(edges)))
        rank = spec.state_rank
        for (a, bb) in spec.dep:
            assert rank[a] < rank[bb]
        assert len(set(rank.values())) == len(rank)
        for _ in range(200):
            x, y, z = (rng.choice(names) for _ in range(3))
            assert x == y or rank[x] < rank[y] or rank[y] < rank[x]
            if rank[x] < rank[y]:
                assert not rank[y] < rank[x]
                if rank[y] < rank[z]:
                    assert rank[x] < rank[z]
            triples += 1
    print(f"CRITERION 6: PASS ({triples} triples)")


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


def test_criterion_7_atomic_block_prevents_cross_packet_mixing():
    """Monitoring writes kept atomic are mutually consistent under 200
    adversarial schedules; the same writes split across two switches mix
    fields of different packets in at least one schedule."""
    body = "hon-ip[1] <- srcip; hon-dstport[1] <- dstport"
    t = _diamond()
    atomic = rulegen.compile(lang.parse(RACE_SRC % ("atomic{ " + body
                                                    + " }")), t)
    split = rulegen.compile(lang.parse(RACE_SRC % body), t,
                            fixed={"hon-ip": "B", "hon-dstport": "A"})
    p1 = {"inport": 1, "outport": 1, "srcip": IPv4Address("10.1.0.1"),
          "dstip": IPv4Address("10.0.3.10"), "dstport": 22}
    p2 = {"inport": 2, "outport": 2, "srcip": IPv4Address("10.1.0.2"),
          "dstip": IPv4Address("10.0.3.10"), "dstport": 80}
    scenario = {"packets": [(1, p1), (2, p2)],
                "vars": ("hon-ip", "hon-dstport"),
                "index": (1,), "fields": ("srcip", "dstport")}
    bad_atomic = bad_split = 0
    for seed in range(200):
        if not race_probe(simnet.load(atomic, t, seed=seed),
                          dict(scenario))["consistent"]:
            bad_atomic += 1
        if not race_probe(simnet.load(split, t, seed=seed),
                          dict(scenario))["consistent"]:
            bad_split += 1
    assert bad_atomic == 0
    assert bad_split >= 1
    print(f"CRITERION 7: PASS (atomic 0/200, split {bad_split}/200)")


def test_criterion_8_unresolved_egress_split_is_demand_proportional():
    """Traffic whose egress is decided downstream splits across candidate
    paths by weighted round-robin within one packet of the demand shares
    over 1000 packets."""
    prog = lang.parse("state seen[1] default 0;\n"
                      "if seen[0] = 0 then outport <- 2 else outport <- 3;"
                      " seen[0]++")
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
    bundle = rulegen.compile(prog, t)
    net = simnet.load(bundle, t, events=True)
    counts = {2: 0, 3: 0}
    for _ in range(1000):
        before = len(net.trace)
        net.inject(1, {"inport": 1, "outport": 1}, mode="serialized")
        for e in net.trace[before:]:
            if e.kind == "tag" and e.switch == "E1":
                counts[e.detail[1]] += 1
    assert counts[2] + counts[3] == 1000
    assert abs(counts[2] - 750) <= 1 and abs(counts[3] - 250) <= 1
    print(f"CRITERION 8: PASS (split {counts[2]}:{counts[3]})")


def test_criterion_9_fifty_switch_compile_under_ten_minutes():
    """Full pipeline on a generated 50-switch topology (70% lowest-degree
    switches as edges) with the shortlist-based solver; the result passes
    the independent constraint checker."""
    t0 = time.monotonic()
    prog = _compose(["dns-tunnel-detect", "assign-egress", "assumption"])
    t = topo.generated(50)
    bundle = rulegen.compile(prog, t, budget=64)
    assert rulegen.validate_bundle(bundle, t) == []
    order, demand = demand_map(prog, t)
    m = opt.build_milp(t, demand, order)
    assert opt.check_solution(m, bundle.placement, bundle.routing) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 9: PASS (50 switches, {elapsed:.1f}s, objective "
          f"{bundle.objective:.2f})")
