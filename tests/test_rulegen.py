"""Deployment bundle tests: diagram numbering, splitting, routing rules,
bundle serialization, and structural validation."""

import filecmp
import hashlib
import os

import pytest

from snapnet import deps, lang, opt, psm, rulegen, topo, xfdd

from conftest import CORPUS, policy_src


def compile_named(names, t=None, **kw):
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    t = t if t is not None else topo.example12()
    return prog, t, rulegen.compile(prog, t, **kw)


def group_count(bundle) -> int:
    """Waiting-packet groups over all switches: one per (inport, state
    variable) a switch forwards blocked packets for."""
    return sum(len(cfg.unresolved) for cfg in bundle.configs.values())


def bundle_digest(bundle, dirpath, skip=()) -> str:
    """SHA-256 of the written bundle's file listing, one line per file
    other than those named in `skip`: its path and the SHA-256 of its
    bytes."""
    rulegen.write_bundle(bundle, str(dirpath))
    listing = "".join(
        f"{p.relative_to(dirpath).as_posix()} "
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(dirpath.rglob("*"))
        if p.is_file() and p.relative_to(dirpath).as_posix() not in skip)
    return hashlib.sha256(listing.encode()).hexdigest()


def test_number_nodes_is_preorder_and_total():
    prog = lang.parse(policy_src("dns-tunnel-detect"))
    order = deps.order_spec_program(prog)
    b = xfdd.Builder(prog, order)
    d = b.prune_vacuous(b.to_xfdd_program())
    nodes, root = rulegen.number_nodes(b.arena, d)
    assert root == 0
    assert sorted(nodes) == list(range(len(nodes)))
    for nid, node in nodes.items():
        if node[0] == "branch":
            # children resolve within the table (shared subdiagrams may
            # carry ids lower than the referencing parent)
            assert node[2] in nodes and node[3] in nodes


def test_state_resume_points():
    prog = lang.parse("state s[1] default 0;\nstate t[1] default 0;\n"
                      "field a : small in {0, 1};\n"
                      "if s[0] = 1 then t[0]++ else a <- 1")
    order = deps.order_spec_program(prog)
    b = xfdd.Builder(prog, order)
    nodes, root = rulegen.number_nodes(b.arena, b.to_xfdd_program())
    points = rulegen.state_resume_points(nodes)
    assert "s" in points.values() and "t" in points.values()
    kinds = {k[0] for k in points}
    assert kinds == {"node", "leaf"}


def test_exec_positions_follow_dependencies():
    dep = frozenset({("a", "c"), ("b", "c")})
    placement = {"a": "X", "b": "Y", "c": "X"}
    path = ("I", "X", "Y", "X", "E")
    pos = opt.exec_positions(path, frozenset({"a", "b", "c"}),
                             placement, dep)
    assert pos == {"a": 1, "b": 2, "c": 3}
    # with a straight-through path, c never becomes executable
    pos2 = opt.exec_positions(("I", "X", "E"), frozenset({"a", "b", "c"}),
                              placement, dep)
    assert pos2 == {"a": 1}


def test_compile_bundle_structure():
    prog, t, bundle = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    assert set(bundle.configs) == set(t.nodes)
    assert set(bundle.placement) == {"orphan", "susp-client", "blacklist"}
    owner = bundle.placement["orphan"]
    cfg = bundle.configs[owner]
    assert "orphan" in cfg.state_tables
    assert cfg.state_tables["orphan"][0] == 2  # (dstip, dns-rdata) index
    # every flow is fully wired: each hop forwards, the egress emits
    for (u, v), path in bundle.routing.items():
        for a in path[:-1]:
            assert bundle.configs[a].resolved[(u, v)][0] == "fwd"
        assert bundle.configs[path[-1]].resolved[(u, v)] == ("emit", v)


def test_validate_bundle_clean_and_detects_damage():
    _, t, bundle = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    assert rulegen.validate_bundle(bundle, t) == []
    bundle.placement["orphan"] = "nowhere"
    problems = rulegen.validate_bundle(bundle, t)
    assert any("unknown switch" in p for p in problems)
    # a flow renamed in routing.json leaves its demand without a walk
    bundle.routing[(99, 2)] = bundle.routing.pop((1, 2))
    assert rulegen.validate_bundle(bundle, t)[-2:] == [
        "flow (1,2) has no walk",
        "walk of flow (99,2), which is not a demand of the topology"]


def test_unresolved_rules_exist_upstream_of_owner():
    _, t, bundle = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    owner = bundle.placement["orphan"]
    upstream = set()
    for path in bundle.routing.values():
        if owner in path:
            upstream.update(path[:path.index(owner)])
    with_rules = {sid for sid, cfg in bundle.configs.items()
                  if cfg.unresolved}
    assert with_rules and with_rules <= upstream


def test_unresolved_groups_are_demand_weighted():
    _, t, bundle = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    for cfg in bundle.configs.values():
        for (u, key), rows in cfg.unresolved.items():
            for w, tag, nh in rows:
                assert w == t.demands[(u, tag)]
                assert (cfg.switch, nh) in t.links


def test_recompile_is_byte_identical(tmp_path):
    _, t, b1 = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    _, _, b2 = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    d1, d2 = tmp_path / "one", tmp_path / "two"
    rulegen.write_bundle(b1, str(d1))
    rulegen.write_bundle(b2, str(d2))
    for rel in ("placement.json", "routing.json", "xfdd.dot"):
        assert filecmp.cmp(d1 / rel, d2 / rel, shallow=False), rel
    for name in sorted(os.listdir(d1 / "switch")):
        assert filecmp.cmp(d1 / "switch" / name, d2 / "switch" / name,
                           shallow=False), name


def test_bundle_round_trip(tmp_path):
    _, t, b1 = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    rulegen.write_bundle(b1, str(tmp_path))
    b2 = rulegen.load_bundle(str(tmp_path))
    assert b2.placement == b1.placement
    assert b2.routing == b1.routing
    assert b2.root == b1.root
    assert set(b2.configs) == set(b1.configs)
    for sid in b1.configs:
        c1, c2 = b1.configs[sid], b2.configs[sid]
        assert c2.state_tables == c1.state_tables
        assert c2.nodes == c1.nodes
        assert c2.resolved == c1.resolved
        assert c2.unresolved == c1.unresolved
    assert rulegen.validate_bundle(b2, t) == []


_DNS = ["dns-tunnel-detect", "assign-egress"]
_THREE_APPS = ["dns-tunnel-detect", "stateful-fw", "heavy-hitter-detection",
               "assign-egress"]

# Corpus twins of the benchmark's four workloads: (policies, generated
# topology arguments or None for example12, search budget, pinned switch).
BENCHMARK_TWINS = {
    "place-e12": (_DNS, None, 4096, None),
    "scale-g50": (_DNS, (50, 7), 64, None),
    "compose-e12": (_THREE_APPS, None, 4096, "D4"),
    "simulate-e12": (_THREE_APPS, None, 4096, "C5"),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_TWINS))
@pytest.mark.pinned
def test_bundle_write_load_write_is_byte_identical(tmp_path, workload):
    """A bundle written, loaded and written again is the same bytes, file
    for file, on corpus twins of the benchmark's four workloads."""
    names, size, budget, pin = BENCHMARK_TWINS[workload]
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    t = topo.example12() if size is None else topo.generated(*size)
    fixed = {s: pin for s in prog.states} if pin else None
    bundle = rulegen.compile(prog, t, fixed=fixed, budget=budget)
    one, two = tmp_path / "one", tmp_path / "two"
    rulegen.write_bundle(bundle, str(one))
    rulegen.write_bundle(rulegen.load_bundle(str(one)), str(two))
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*")
                           if p.is_file())
    for rel in files:
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


def test_smaller_bundle_replaces_a_larger_one(tmp_path):
    """A bundle written over a larger one leaves none of the larger one's
    switch configs behind: loading it gives the smaller bundle's."""
    _, _, big = compile_named(["stateful-fw"], topo.generated(16, 7))
    _, t, small = compile_named(["stateful-fw"], topo.generated(8, 7))
    rulegen.write_bundle(big, str(tmp_path))
    rulegen.write_bundle(small, str(tmp_path))
    loaded = rulegen.load_bundle(str(tmp_path))
    assert set(big.configs) > set(small.configs)
    assert loaded.configs == small.configs
    assert rulegen.validate_bundle(loaded, t) == []


def test_fixed_placement_forces_te_mode():
    fixed = {"orphan": "C1", "susp-client": "C1", "blacklist": "C1"}
    _, _, bundle = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"], fixed=fixed)
    assert bundle.mode == "TE"
    assert bundle.placement == fixed


def test_walk_routing_with_revisited_switch_generates_rules():
    """A dependency-heavy policy whose flows must double back: rules must
    still be generated for every hop, and the last pre-owner visit wins the
    unresolved entry."""
    _, t, bundle = compile_named(["many-ip-domains", "assign-egress"])
    assert rulegen.validate_bundle(bundle, t) == []
    walks = [path for path in bundle.routing.values()
             if len(set(path)) < len(path)]
    assert walks, "expected at least one phased walk in this deployment"
    for path in walks:
        hops = list(zip(path, path[1:]))
        assert len(set(hops)) == len(hops)


REVISIT_FIXED = {"orphan": "C5", "susp-client": "C1", "blacklist": "D4"}


@pytest.mark.pinned
def test_revisiting_walk_bundle_is_pinned(tmp_path):
    """The bundle of a TE compile in which 20 of the 30 walks revisit a
    switch, byte for byte as rule generation first wrote it, apart from
    two format changes: the one that keyed the groups by variable (the
    last visit before the owner keeps the unresolved entry), and the one
    that wrote each flow's routing as one walk, not a list of weighted
    paths.  That second change moved only routing.json, so every other
    file keeps the digest it had before it; the full digest is pinned
    again for the walk format."""
    _, t, bundle = compile_named(["dns-tunnel-detect", "assign-egress"],
                                 fixed=REVISIT_FIXED)
    walks = bundle.routing.values()
    assert sum(len(set(p)) < len(p) for p in walks) == 20
    assert len(walks) == 30
    assert bundle_digest(bundle, tmp_path, skip={"routing.json"}) == (
        "0930ac2c4023c9d52dc654239886a2ab9235780053eedb8d8b57a933cdb1f281")
    assert bundle_digest(bundle, tmp_path) == (
        "6ae2e1dbf255cfad2b2f7e47dd51c482c8a5c06f1e7c702dce452bddc974e1e3")
    assert group_count(bundle) == 58


@pytest.mark.pinned
def test_compiled_rules_follow_the_walks():
    """No false alarm from the rule agreement: every corpus policy composed
    with assign-egress, on example12 and on generated(20, 3) at budget 64,
    and the compile above whose walks revisit switches, passes
    validate_bundle."""
    g20 = topo.generated(20, 3)
    for name in CORPUS:
        for t in (None, g20):
            _, t, bundle = compile_named([name, "assign-egress"], t,
                                         budget=64)
            assert rulegen.validate_bundle(bundle, t) == [], name
    _, t, bundle = compile_named(["dns-tunnel-detect", "assign-egress"],
                                 fixed=REVISIT_FIXED)
    assert rulegen.validate_bundle(bundle, t) == []


def test_each_group_row_fault_is_one_problem():
    """A waiting-packet group row is reported once for each fault: a row
    for a flow with no walk, one at a switch the flow's walk passes only
    after the owner, one that forwards off the walk, and one whose weight
    is not the flow's demand.  Flow (1,2) walks I1-C1-C5-C6-C2-I2 and
    `established` is on C5."""
    _, t, bundle = compile_named(["stateful-fw", "assign-egress"])
    assert bundle.routing[(1, 2)] == ("I1", "C1", "C5", "C6", "C2", "I2")
    assert bundle.placement == {"established": "C5"}
    c1 = bundle.configs["C1"].unresolved
    rows = {v: (w, v, nh) for w, v, nh in c1[(1, "established")]}
    rows[2] = (2.5, 2, "C5")
    rows[3] = (1.0, 3, "I1")
    rows[1] = (1.0, 1, "C5")
    c1[(1, "established")] = tuple(rows.values())
    bundle.configs["C6"].unresolved[(1, "established")] = ((1.0, 2, "C2"),)
    assert rulegen.validate_bundle(bundle, t) == [
        "switch C1: group (1,'established') row (1,2) weighs 2.5, but the "
        "flow's demand is 1.0",
        "switch C1: group (1,'established') row (1,3) forwards to 'I1', but "
        "the flow's walk gives 'C5'",
        "switch C1: group (1,'established') row (1,1) is for a flow with no "
        "walk",
        "switch C6: group (1,'established') row (1,2) is for a flow whose "
        "walk does not pass it before C5"]


def test_group_hops_keep_the_last_visit_before_each_owner_visit():
    """A switch visited twice before the owner gives the hop after its
    later visit; a walk that visits the owner twice allows the hop before
    each visit."""
    walk = ("A", "B", "A", "C", "D", "C", "B", "E")
    assert rulegen.group_hops(walk, "A", "C") == {"C"}
    assert rulegen.group_hops(walk, "B", "C") == {"A"}
    assert rulegen.group_hops(walk, "D", "C") == {"C"}
    assert rulegen.group_hops(walk, "E", "C") == set()
    assert rulegen.group_hops(walk, "C", "C") == {"D"}
    assert rulegen.group_hops(("A", "O", "A", "X", "O"), "A", "O") == {
        "O", "X"}


def test_revisited_switch_forwards_the_later_way():
    """A switch a walk passes twice forwards the flow the way the walk
    leaves its last visit; the way it leaves the first visit is reported."""
    _, t, bundle = compile_named(["dns-tunnel-detect", "assign-egress"],
                                 fixed=REVISIT_FIXED)
    for (u, v), path in sorted(bundle.routing.items()):
        want = rulegen.walk_rules(u, v, path)
        earlier = [(a, b) for a, b in zip(path, path[1:])
                   if want[a] != ("fwd", b)]
        if earlier:
            break
    assert earlier
    a, b = earlier[0]
    bundle.configs[a].resolved[(u, v)] = ("fwd", b)
    act, arg = want[a]
    assert rulegen.validate_bundle(bundle, t) == [
        f"switch {a}: rule ({u},{v}) is fwd {b!r}, but the flow's walk "
        f"gives {act} {arg!r}"]


@pytest.mark.pinned
def test_state_heavy_composition_bundle_is_pinned(tmp_path):
    """The corpus twin of the benchmark's compose-e12: three stateful
    applications and assign-egress with every variable on D4, byte for
    byte as written while each path context was still rebuilt from its
    whole fact list, apart from two format changes: the one that keyed
    the groups by variable, and the one that wrote each flow's routing as
    one walk, not a list of weighted paths.  That second change moved only
    routing.json, so every other file keeps the digest it had before it;
    the full digest is pinned again for the walk format.  Most path facts
    here are state tests."""
    names = ["dns-tunnel-detect", "stateful-fw", "heavy-hitter-detection",
             "assign-egress"]
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    t = topo.example12()
    bundle = rulegen.compile(prog, t,
                             fixed={s: "D4" for s in sorted(prog.states)})
    assert set(bundle.placement.values()) == {"D4"}
    assert bundle_digest(bundle, tmp_path, skip={"routing.json"}) == (
        "146b18e28749e96cceadde7e684b2b82f613bbfe96042a5bb84fa4a4984e3d47")
    assert bundle_digest(bundle, tmp_path) == (
        "1688823673fe1de1c5e70cc4fb41c64eef15512655222c0f4cf030ca537ee5e8")
    # one group per (inport, variable), not one per resume point
    assert group_count(bundle) == 84
    assert sum(p.stat().st_size for p in tmp_path.rglob("*")
               if p.is_file()) < 512 * 1024


def test_gen_routing_reads_exec_positions_once_per_flow(monkeypatch):
    calls = []
    real = opt.exec_positions

    def counted(path, *args):
        calls.append(path)
        return real(path, *args)

    prog = lang.compose_all([lang.parse(policy_src(n))
                             for n in ["dns-tunnel-detect", "assign-egress"]])
    t = topo.example12()
    bundle = rulegen.compile(prog, t, fixed=REVISIT_FIXED)
    order = deps.order_spec_program(prog)
    b = xfdd.Builder(prog, order)
    d = b.prune_vacuous(b.to_xfdd_program())
    demand = psm.packet_state_map(b, d, t, order)
    monkeypatch.setattr(opt, "exec_positions", counted)
    rulegen.gen_routing(bundle.routing, bundle.placement, demand, t,
                        dep=order.dep)
    assert sorted(calls) == sorted(bundle.routing.values())
    assert len(calls) == len(bundle.routing) == 30


def test_phase_times_reported():
    times = {}
    prog = lang.parse(policy_src("stateful-fw"))
    rulegen.compile(prog, topo.example12(), phase_times=times)
    assert set(times) == {"P1", "P2", "P3", "P4", "P5", "P6"}
    assert all(v >= 0 for v in times.values())
