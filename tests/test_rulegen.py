"""Deployment bundle tests: diagram numbering, splitting, routing rules,
bundle serialization, and structural validation."""

import filecmp
import hashlib
import json
import os
from types import SimpleNamespace

import pytest

from snapnet import deps, lang, opt, psm, rulegen, topo, xfdd

from conftest import CORPUS, policy_src
from helpers import demand_map


def compile_named(names, t=None, **kw):
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    t = t if t is not None else topo.example12()
    return prog, t, rulegen.compile(prog, t, **kw)


def group_count(bundle) -> int:
    """Waiting-packet groups over all switches: one per (inport, state
    variable) a switch forwards blocked packets for."""
    return sum(map(len, bundle.groups.values()))


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
    nodes, root = rulegen.diagram(prog, deps.order_spec_program(prog))
    assert root == 0
    assert sorted(nodes) == list(range(len(nodes)))
    for nid, node in nodes.items():
        if node[0] == "branch":
            # children resolve within the table (shared subdiagrams may
            # carry ids lower than the referencing parent)
            assert node[2] in nodes and node[3] in nodes


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
    assert set(bundle.rules) == set(bundle.groups) == set(t.nodes)
    assert set(bundle.placement) == {"orphan", "susp-client", "blacklist"}
    assert bundle.states == prog.states and bundle.fields == prog.fields
    assert bundle.states["orphan"].arity == 2  # (dstip, dns-rdata) index
    # every flow is fully wired: each hop before the egress switch has a
    # next hop over a link, and the egress switch, which emits, has none
    for (u, v), path in bundle.routing.items():
        for a in path[:-1]:
            assert (a, bundle.rules[a][(u, v)]) in t.links
        assert (u, v) not in bundle.rules[path[-1]]


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
    with_rules = {sid for sid, groups in bundle.groups.items() if groups}
    assert with_rules and with_rules <= upstream


def test_unresolved_groups_are_demand_weighted():
    _, t, bundle = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    for sid, groups in bundle.groups.items():
        for (u, key), rows in groups.items():
            for w, tag, nh in rows:
                assert w == t.demands[(u, tag)]
                assert (sid, nh) in t.links


BUNDLE_FILES = ["diagram.json", "placement.json", "program.snap",
                "routing.json"]


def test_recompile_is_byte_identical(tmp_path):
    _, t, b1 = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    _, _, b2 = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    d1, d2 = tmp_path / "one", tmp_path / "two"
    rulegen.write_bundle(b1, str(d1))
    rulegen.write_bundle(b2, str(d2))
    assert sorted(os.listdir(d1)) == BUNDLE_FILES
    for rel in BUNDLE_FILES:
        assert filecmp.cmp(d1 / rel, d2 / rel, shallow=False), rel


def test_bundle_round_trip(tmp_path):
    _, t, b1 = compile_named(
        ["dns-tunnel-detect", "assign-egress", "assumption"])
    rulegen.write_bundle(b1, str(tmp_path))
    b2 = rulegen.load_bundle(str(tmp_path), t)
    assert b2.placement == b1.placement
    assert b2.dep == b1.dep
    assert b2.routing == b1.routing
    assert (b2.root, b2.nodes) == (b1.root, b1.nodes)
    assert (b2.states, b2.fields) == (b1.states, b1.fields)
    assert (b2.rules, b2.groups) == (b1.rules, b1.groups)
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
    for file, `program.snap` included, on corpus twins of the benchmark's
    four workloads; the loaded declarations are the program's."""
    names, size, budget, pin = BENCHMARK_TWINS[workload]
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    t = topo.example12() if size is None else topo.generated(*size)
    fixed = {s: pin for s in prog.states} if pin else None
    bundle = rulegen.compile(prog, t, fixed=fixed, budget=budget)
    one, two = tmp_path / "one", tmp_path / "two"
    rulegen.write_bundle(bundle, str(one))
    loaded = rulegen.load_bundle(str(one), t)
    assert (loaded.states, loaded.fields) == (prog.states, prog.fields)
    rulegen.write_bundle(loaded, str(two))
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert "program.snap" in map(str, files)
    assert files == sorted(p.relative_to(two) for p in two.rglob("*")
                           if p.is_file())
    for rel in files:
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel


def test_smaller_bundle_replaces_a_larger_one(tmp_path):
    """A bundle written over a larger one on another topology loads the
    smaller bundle's rules and groups, derived for its own topology."""
    _, _, big = compile_named(["stateful-fw"], topo.generated(16, 7))
    _, t, small = compile_named(["stateful-fw"], topo.generated(8, 7))
    rulegen.write_bundle(big, str(tmp_path))
    rulegen.write_bundle(small, str(tmp_path))
    loaded = rulegen.load_bundle(str(tmp_path), t)
    assert set(big.rules) > set(small.rules)
    assert (loaded.rules, loaded.groups) == (small.rules, small.groups)
    assert rulegen.validate_bundle(loaded, t) == []


def test_bundle_written_over_an_old_one_leaves_no_switch_files(tmp_path):
    """A bundle written over one of the format whose switch/<id>.json
    files held the groups, and whose placement.json had no `dep`, removes
    those files and the switch/ directory: exactly the four bundle files
    remain, and they load to the compile's rules and groups."""
    _, t, bundle = compile_named(["stateful-fw", "assign-egress"])
    rulegen.write_bundle(bundle, str(tmp_path))
    path = tmp_path / "placement.json"
    path.write_text(json.dumps({k: v for k, v in json.loads(
        path.read_text()).items() if k != "dep"}))
    (tmp_path / "switch").mkdir()
    for sid in t.nodes:
        (tmp_path / "switch" / f"{sid}.json").write_text(
            json.dumps({"id": sid, "groups": []}))
    rulegen.write_bundle(bundle, str(tmp_path))
    assert sorted(p.name for p in tmp_path.rglob("*")) == BUNDLE_FILES
    loaded = rulegen.load_bundle(str(tmp_path), t)
    assert (loaded.rules, loaded.groups) == (bundle.rules, bundle.groups)


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
    nine format changes: the one that keyed the groups by variable (the
    last visit before the owner keeps the unresolved entry), the one
    that wrote each flow's routing as one walk, not a list of weighted
    paths, the one that stopped writing xfdd.dot, the one that moved
    the declarations from each switch file's `state_tables` into
    `program.snap`, the one that moved the diagram from the switch
    files' `nodes` into `diagram.json`, the one that left the resolved
    rules to routing.json's walks, the one that left the groups to
    `load_bundle`, the one that gave diagram.json its `tests` and
    `atoms` tables and wrote every JSON part one compact record per
    line, and the one that wrote each value in its one untagged JSON
    form.  The walk change moved only
    routing.json, so every other file keeps the digest it had before it.
    Both digests were pinned again when xfdd.dot went, with the values
    the commit before wrote for every file but xfdd.dot; again when
    `program.snap` came: placement.json and routing.json kept their
    digests, and every switch/*.json equals the one before with only its
    `state_tables` key removed; and again when `diagram.json` came:
    placement.json and program.snap kept their bytes, routing.json equals
    the one before with only its `root` key removed, every
    switch/*.json equals the one before with only its `nodes` key
    removed, and `diagram.json` holds that root and the union of those
    nodes; and again when the resolved rules went: program.snap,
    placement.json, diagram.json and routing.json kept their bytes, and
    every switch/*.json holds the one before's `id`, and its
    `rules.unresolved` list as `groups`, and nothing else; and again when
    the switch files went: program.snap, diagram.json and routing.json
    kept their bytes, placement.json gained only its `dep` key, and the
    groups a loaded bundle derives equal the 58 the switch files held;
    and again when the tables came: program.snap kept its bytes,
    placement.json and routing.json parse to the JSON they held before,
    and the diagram.json before and after decode to equal nodes and
    root; and again when values lost their tags: program.snap,
    placement.json and routing.json kept their bytes, and diagram.json
    parses to the JSON before with each tagged value untagged and each
    literal's `v` key named `value`."""
    _, t, bundle = compile_named(["dns-tunnel-detect", "assign-egress"],
                                 fixed=REVISIT_FIXED)
    walks = bundle.routing.values()
    assert sum(len(set(p)) < len(p) for p in walks) == 20
    assert len(walks) == 30
    assert bundle_digest(bundle, tmp_path, skip={"routing.json"}) == (
        "4df5aaa88a43fb74eb7bf813ce6634ef531aff5b03543e0ad0f2abcf2c3194a5")
    assert bundle_digest(bundle, tmp_path) == (
        "2891d4f569f8e34aa3f4c2f560691c78eeacbcd4471803c09c6c6022ccfdf9da")
    assert sorted(os.listdir(tmp_path)) == BUNDLE_FILES
    loaded = rulegen.load_bundle(str(tmp_path), t)
    assert (loaded.rules, loaded.groups) == (bundle.rules, bundle.groups)
    assert group_count(loaded) == 58


@pytest.mark.pinned
def test_compiled_rules_follow_the_walks(tmp_path):
    """No false alarm, and the rules a loaded bundle derives from its walks
    are the compile's: every corpus policy composed with assign-egress, on
    example12 and on generated(20, 3) at budget 64, and the compile above
    whose walks revisit switches, passes validate_bundle, and so does the
    bundle written and loaded again, whose rules, groups, diagram, walks,
    placement, `dep`, objective and exactness equal the compile's.  Each
    switch's rules are exactly the next hops of the walks that pass it,
    from its last visit, and a walk's last switch has none.  Written
    again, the loaded bundle is the same bytes, file for file."""
    def check(bundle, t, name):
        assert rulegen.validate_bundle(bundle, t) == [], name
        hops = {sid: {} for sid in t.nodes}
        for flow, path in bundle.routing.items():
            for a in set(path) - {path[-1]}:
                last = len(path) - 1 - path[::-1].index(a)
                hops[a][flow] = path[last + 1]
        assert bundle.rules == hops, name
        one, two = tmp_path / "one", tmp_path / "two"
        rulegen.write_bundle(bundle, str(one))
        loaded = rulegen.load_bundle(str(one), t)
        assert (loaded.rules, loaded.groups) == (bundle.rules,
                                                 bundle.groups), name
        assert rulegen.validate_bundle(loaded, t) == [], name
        for key in ("nodes", "root", "routing", "placement", "dep",
                    "objective", "exact"):
            assert getattr(loaded, key) == getattr(bundle, key), (name, key)
        rulegen.write_bundle(loaded, str(two))
        for rel in BUNDLE_FILES:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), (
                name, rel)

    g20 = topo.generated(20, 3)
    for name in CORPUS:
        for t in (None, g20):
            _, t, bundle = compile_named([name, "assign-egress"], t,
                                         budget=64)
            check(bundle, t, name)
    _, t, bundle = compile_named(["dns-tunnel-detect", "assign-egress"],
                                 fixed=REVISIT_FIXED)
    check(bundle, t, "revisit")


def test_groups_keep_the_last_visit_before_the_owner():
    """A switch visited twice before a variable runs forwards a blocked
    packet the way the walk leaves its later visit; a switch visited only
    after that gets no group.  Flow (1, 2) walks A-B-A-C-D-C-B-E and
    needs `s`, held at C.  When `s` must wait for `r` (dep r -> s), it
    runs at the owner's second visit on the walk A-O-A-X-O, after `r` at
    X, and the owner itself forwards packets still blocked on `s` at its
    first visit."""
    t = SimpleNamespace(nodes=dict.fromkeys("ABCDEOX"),
                        demands={(1, 2): 2.0})
    walk = ("A", "B", "A", "C", "D", "C", "B", "E")
    _, groups = rulegen.gen_routing(
        {(1, 2): walk}, {"s": "C"}, psm.StateDemand({(1, 2): ("s",)}), t,
        dep=frozenset())
    assert {sid: g for sid, g in groups.items() if g} == {
        "A": {(1, "s"): ((2.0, 2, "C"),)}, "B": {(1, "s"): ((2.0, 2, "A"),)}}
    _, groups = rulegen.gen_routing(
        {(1, 2): ("A", "O", "A", "X", "O")}, {"r": "X", "s": "O"},
        psm.StateDemand({(1, 2): ("r", "s")}), t, dep=frozenset({("r", "s")}))
    assert {sid: g for sid, g in groups.items() if g} == {
        "A": {(1, "r"): ((2.0, 2, "X"),), (1, "s"): ((2.0, 2, "X"),)},
        "O": {(1, "r"): ((2.0, 2, "A"),), (1, "s"): ((2.0, 2, "A"),)},
        "X": {(1, "s"): ((2.0, 2, "O"),)}}


def test_revisited_switch_forwards_the_later_way(tmp_path):
    """A switch a walk passes twice forwards the flow, in a loaded bundle,
    the way the walk leaves its last visit, not its first."""
    _, t, bundle = compile_named(["dns-tunnel-detect", "assign-egress"],
                                 fixed=REVISIT_FIXED)
    rulegen.write_bundle(bundle, str(tmp_path))
    loaded = rulegen.load_bundle(str(tmp_path), t)
    for (u, v), path in sorted(loaded.routing.items()):
        # the hop after each switch's last visit; the egress switch emits
        later = {a: b for a, b in zip(path, path[1:]) if a != path[-1]}
        earlier = [(a, b) for a, b in zip(path, path[1:])
                   if a in later and later[a] != b]
        if earlier:
            break
    assert earlier
    a, b = earlier[0]
    assert loaded.rules[a][(u, v)] == later[a]
    assert later[a] != b


@pytest.mark.pinned
def test_state_heavy_composition_bundle_is_pinned(tmp_path):
    """The corpus twin of the benchmark's compose-e12: three stateful
    applications and assign-egress with every variable on D4, byte for
    byte as written while each path context was still rebuilt from its
    whole fact list, apart from nine format changes: the one that keyed
    the groups by variable, the one that wrote each flow's routing as one
    walk, not a list of weighted paths, the one that stopped writing
    xfdd.dot, the one that moved the declarations from each switch file's
    `state_tables` into `program.snap`, the one that moved the diagram
    from the switch files' `nodes` into `diagram.json`, the one that left
    the resolved rules to routing.json's walks, the one that left the
    groups to `load_bundle`, the one that gave diagram.json its `tests`
    and `atoms` tables and wrote every JSON part one compact record per
    line, and the one that wrote each value in its one untagged JSON
    form.  The walk change moved only routing.json, so
    every other file keeps the digest it had before it.  Both digests
    were pinned again when xfdd.dot went, with the values the commit
    before wrote for every file but xfdd.dot;
    again when `program.snap` came: placement.json and routing.json kept
    their digests, and every switch/*.json equals the one before with
    only its `state_tables` key removed; and again when `diagram.json`
    came: placement.json and program.snap kept their bytes, routing.json
    equals the one before with only its `root` key removed, every
    switch/*.json equals the one before with only its `nodes` key
    removed, and `diagram.json` holds that root and the union of those
    nodes; and again when the resolved rules went: program.snap,
    placement.json, diagram.json and routing.json kept their bytes, and
    every switch/*.json holds the one before's `id`, and its
    `rules.unresolved` list as `groups`, and nothing else; and again when
    the switch files went: program.snap, diagram.json and routing.json
    kept their bytes, placement.json gained only its `dep` key, and the
    groups a loaded bundle derives equal the 84 the switch files held;
    and again when the tables came: program.snap kept its bytes,
    placement.json and routing.json parse to the JSON they held before,
    and the diagram.json before and after decode to equal nodes and
    root; and again when values lost their tags: program.snap,
    placement.json and routing.json kept their bytes, and diagram.json
    parses to the JSON before with each tagged value untagged and each
    literal's `v` key named `value`.  Most path facts here are state
    tests."""
    names = ["dns-tunnel-detect", "stateful-fw", "heavy-hitter-detection",
             "assign-egress"]
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    t = topo.example12()
    bundle = rulegen.compile(prog, t,
                             fixed={s: "D4" for s in sorted(prog.states)})
    assert set(bundle.placement.values()) == {"D4"}
    assert bundle_digest(bundle, tmp_path, skip={"routing.json"}) == (
        "b5acf546ba80867623eea5c816d0bf2fca4d920ca153e2359c8c3bdfcf523ad4")
    assert bundle_digest(bundle, tmp_path) == (
        "c1c574a5c1b759d600b6803e2976fbff623e3844c4f033d7da0f6abe78b82bce")
    # one group per (inport, variable), not one per resume point
    loaded = rulegen.load_bundle(str(tmp_path), t)
    assert (loaded.rules, loaded.groups) == (bundle.rules, bundle.groups)
    assert group_count(loaded) == 84
    assert sum(p.stat().st_size for p in tmp_path.rglob("*")
               if p.is_file()) < 16 * 1024


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
    order, demand = demand_map(prog, t)
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
