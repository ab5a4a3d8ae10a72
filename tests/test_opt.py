"""Placement/routing model tests: building, solving, LP export, and
independent re-verification of solutions and hand-made violations."""

import dataclasses
import hashlib
import itertools
import json
import os
import random
import re
import signal

import pytest

from snapnet import cli, deps, lang, opt, psm, rulegen, topo
from snapnet.errors import InfeasibleError

from conftest import CORPUS, TOPO_DIR, policy_path, policy_src
from helpers import demand_map, reference_dep_orders, reference_route_flows


def model_for(names, t=None, fixed=None):
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    t = t if t is not None else topo.example12()
    order, demand = demand_map(prog, t)
    return opt.build_milp(t, demand, order, fixed=fixed)


@pytest.fixture(scope="module")
def m_dns():
    return model_for(["dns-tunnel-detect", "assign-egress", "assumption"])


@pytest.fixture(scope="module")
def sol_dns(m_dns):
    return opt.solve_builtin(m_dns)


@pytest.fixture(scope="module")
def m_mid():
    return model_for(["many-ip-domains", "assign-egress"])


@pytest.fixture(scope="module")
def sol_mid(m_mid):
    return opt.solve_builtin(m_mid)


def test_solver_outputs_pass_checker(m_dns, sol_dns, m_mid, sol_mid):
    assert opt.check_solution(m_dns, sol_dns.placement, sol_dns.routing) == []
    assert opt.check_solution(m_mid, sol_mid.placement, sol_mid.routing) == []


def test_exhaustive_solution_is_exact(m_dns, sol_dns):
    assert sol_dns.exact
    assert set(sol_dns.placement) == {"orphan", "susp-client", "blacklist"}
    # dependent variables gravitate to a single switch here
    assert len(set(sol_dns.placement.values())) == 1


def test_solver_is_deterministic(m_dns, sol_dns):
    again = opt.solve_builtin(m_dns)
    assert again.placement == sol_dns.placement
    assert again.routing == sol_dns.routing
    assert again.objective == sol_dns.objective


def test_objective_matches_model(m_dns, sol_dns):
    vals = opt._routing_values(m_dns, sol_dns.placement, sol_dns.routing)
    value = sum(c.cost * vals.get(c.name, 0.0) for c in m_dns.columns
                if c.cost is not None)
    assert abs(value - sol_dns.objective) < 1e-9


def names(violations):
    return {v.constraint for v in violations}


def test_missing_placement_violates_place_row(m_dns, sol_dns):
    placement = dict(sol_dns.placement)
    del placement["blacklist"]
    vs = opt.check_solution(m_dns, placement, sol_dns.routing)
    assert any(v.constraint == "place_blacklist" for v in vs)


def test_split_tied_pair_violates_tied_row(m_mid, sol_mid):
    placement = dict(sol_mid.placement)
    other = next(n for n in sorted(m_mid.topo.nodes)
                 if n != placement["num-of-domains"])
    placement["num-of-domains"] = other
    vs = opt.check_solution(m_mid, placement, sol_mid.routing)
    assert any(v.constraint.startswith("tied_domain_ip_pair_num_of_domains")
               for v in vs)


def test_owner_avoiding_path_violates_the_sinks_pcons_row(m_mid, sol_mid):
    """A flow that never meets its variable's owner reaches its sink
    unprocessed, which the sink's processed-flow conservation row flags."""
    owner = sol_mid.placement["mal-ip-list"]
    key, detour = _detour_flow(m_mid, sol_mid, owner)
    routing = dict(sol_mid.routing)
    routing[key] = detour
    u, v = key
    vs = opt.check_solution(m_mid, sol_mid.placement, routing)
    want = f"pcons_mal_ip_list_u{u}_v{v}_{opt._san(detour[-1])}"
    assert any(viol.constraint == want for viol in vs)


def _detour_flow(m, sol, owner):
    """A stateful flow plus a valid-shape path for it avoiding `owner`."""
    for found in _detours(m, owner):
        return found
    raise AssertionError("no detourable flow found")


def _detours(m, owner):
    """Each stateful flow with a valid-shape path for it avoiding `owner`,
    with that path."""
    t = m.topo
    for (u, v) in sorted(m.flows):
        vol, svars = m.flows[(u, v)]
        if not svars:
            continue
        src, snk = t.node_of_port(u), t.node_of_port(v)
        if owner in (src, snk):
            continue
        # BFS shortest path avoiding the owner switch
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
        yield (u, v), tuple(reversed(path))


def test_order_violation_is_flagged_and_isolated():
    """Place the dependent variable upstream of its prerequisites and route
    one flow straight through: only that variable's rows on that flow fail.
    It never runs, so besides the ordering rows its processed-flow rows at
    its owner and at the sink fail.  Demands are scaled down so the
    detour-heavy placement stays within capacities."""
    t = topo.example12()
    for k in t.demands:
        t.demands[k] = 0.25
    placement = {"domain-ip-pair": "C5", "num-of-domains": "C5",
                 "mal-ip-list": "C1"}
    m = model_for(["many-ip-domains", "assign-egress"], t=t)
    te = model_for(["many-ip-domains", "assign-egress"], t=t,
                   fixed=placement)
    sol = opt.solve_builtin(te)
    base = opt.check_solution(m, placement, sol.routing)
    assert base == []
    routing = dict(sol.routing)
    routing[(1, 5)] = ("I1", "C1", "C5", "D3")
    vs = opt.check_solution(m, placement, routing)
    assert names(vs) == {"ord_domain_ip_pair_mal_ip_list_u1_v5_C1",
                         "ord_num_of_domains_mal_ip_list_u1_v5_C1",
                         "pcons_mal_ip_list_u1_v5_C1",
                         "pcons_mal_ip_list_u1_v5_D3"}


def test_constraint_families_present(m_mid):
    """Eight of the nine row families; the ninth, pin_, is only for a flow
    that never leaves its switch (`test_same_switch_flow_pins_state`)."""
    fams = {c.name.split("_")[0] for c in m_mid.constraints}
    assert fams == {"cons", "loop", "pslim", "pcons", "ord", "cap", "place",
                    "tied"}


def test_cover_rows_follow_from_the_others():
    """A switch hosting s sees the whole flow: R into n >= P(s, n) at every
    node n but the flow's source.  The model has no row for it because
    the others imply it, in the LP relaxation too: cons_(n) - pcons_(s, n)
    - the pslim_(s, l) rows of the links l out of n + PS_l >= 0 on the
    links l into n is that row, with right-hand side 0.  Subtracting a <=
    row and adding a column's lower bound keep the sense >=.  Checked for
    every moving flow, needed variable and node on every corpus policy."""
    checked = 0
    for name in CORPUS:
        m = model_for([name, "assign-egress"])
        rows = {c.name: c for c in m.constraints}
        lower = {c.name: c.lo for c in m.columns}
        t = m.topo
        for (u, v), (_, svars) in m.flows.items():
            src = t.node_of_port(u)
            if src == t.node_of_port(v):
                continue
            fu, fv = opt._san(u), opt._san(v)
            for s, n in itertools.product(svars, sorted(t.nodes)):
                if n == src:
                    continue
                fs, fn = opt._san(s), opt._san(n)
                terms: dict = {}
                rhs = 0.0

                def add(row, k):
                    nonlocal rhs
                    for var, c in row.coeffs:
                        terms[var] = terms.get(var, 0.0) + k * c
                    rhs += k * row.rhs

                cons = rows[f"cons_u{fu}_v{fv}_{fn}"]
                pcons = rows[f"pcons_{fs}_u{fu}_v{fv}_{fn}"]
                assert cons.sense == pcons.sense == "="
                add(cons, 1.0)
                add(pcons, -1.0)
                for l in t.out_links(n):
                    pslim = rows[f"pslim_{fs}_u{fu}_v{fv}_{fn}_"
                                 f"{opt._san(l.dst)}"]
                    assert pslim.sense == "<="
                    add(pslim, -1.0)
                for l in t.in_links(n):
                    ps = opt.psname(s, u, v, l.src, n)
                    assert lower[ps] == 0.0
                    terms[ps] = terms.get(ps, 0.0) + 1.0
                want = {opt.rname(u, v, l.src, n): 1.0 for l in t.in_links(n)}
                want[opt.pname(s, n)] = -1.0
                assert {k: c for k, c in terms.items() if c != 0.0} == want
                assert rhs == 0.0
                checked += 1
    assert checked == 14245


def _parse_lp(text):
    """Independent minimal reader of the exported LP text: returns
    (constraint names, variable names)."""
    section = None
    rows = []
    vars_seen = set()
    term_re = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
    for line in text.splitlines():
        s = line.strip()
        if s in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = s
            continue
        if section == "Minimize":
            vars_seen.update(t for t in term_re.findall(s) if t != "obj")
        elif section == "Subject To":
            name, body = s.split(":", 1)
            rows.append(name.strip())
            vars_seen.update(term_re.findall(body))
        elif section == "Bounds":
            vars_seen.update(term_re.findall(s))
        elif section == "Binary" and s:
            vars_seen.add(s)
    return rows, vars_seen


def test_lp_export_parse_back_preserves_counts(m_dns):
    text = opt.export_lp(m_dns)
    rows, vars_seen = _parse_lp(text)
    assert len(rows) == len(m_dns.constraints)
    assert rows == sorted(c.name for c in m_dns.constraints)
    assert vars_seen == set(m_dns.variables())


@pytest.mark.pinned
def test_lp_export_is_pinned():
    """The exported model, byte for byte, as the rows were first built;
    their order, names and coefficients must not drift.  Pinned again
    when the link indicators became binary: the text then differed only
    in the 900 R_ lines added under Binary, one per flow and link.  And
    again when flow conservation took its net-flow form: the 30 src_,
    30 snk_ and 65 pfull_ rows gave way to the cons_ rows of each flow's
    source and sink and the pcons_ rows of its sink, as many rows.  And
    again when the cover_ rows, which the others imply
    (`test_cover_rows_follow_from_the_others`), were deleted: the text
    lost exactly its 715 cover_ lines."""
    m = model_for(["dns-tunnel-detect", "assign-egress"])
    text = opt.export_lp(m)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "db893fddcbcd734c758ae6a83f70ed36d780079bf8a277cd76bce65b399b0c0c")
    assert len(m.constraints) == 3903
    assert len(m.variables()) == 2886


def _bundle_bytes(path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_compile_never_builds_rows(tmp_path, monkeypatch, capsys):
    """compile (ST and TE), place and reroute read no row and no column;
    the bundles are the same bytes as those of a compile that may."""
    policies = ["dns-tunnel-detect", "assign-egress"]
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in policies])
    t = topo.example12()
    fixed = {"orphan": "C1", "susp-client": "C1", "blacklist": "C5"}
    kinds = {"st": {}, "te": {"fixed": fixed}}
    for kind, kw in kinds.items():
        rulegen.write_bundle(rulegen.compile(prog, t, **kw),
                             str(tmp_path / f"{kind}-rows"))

    def no_rows(m):
        raise AssertionError("LP rows built on the compile path")

    monkeypatch.setattr(opt, "_rows", no_rows)
    monkeypatch.setattr(opt, "_columns", no_rows)
    for kind, kw in kinds.items():
        bundle = rulegen.compile(prog, t, **kw)
        rulegen.write_bundle(bundle, str(tmp_path / kind))
        assert _bundle_bytes(tmp_path / kind) == \
            _bundle_bytes(tmp_path / f"{kind}-rows")
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(fixed))
    argv = [a for n in policies for a in ("-p", policy_path(n))] + \
        ["-t", os.path.join(TOPO_DIR, "example12.json")]
    assert cli.main(["place", *argv]) == 0
    assert cli.main(["reroute", *argv, "--placement", str(pfile)]) == 0
    capsys.readouterr()
    m = model_for(policies)
    with pytest.raises(AssertionError, match="compile path"):
        iter(m.constraints)
    with pytest.raises(AssertionError, match="compile path"):
        iter(m.columns)


def test_two_reads_yield_equal_rows(monkeypatch, m_dns):
    """Every read of `constraints` generates the rows again and the model
    keeps none of them: two reads yield equal rows, under unique names."""
    reads = []
    rows = opt._rows

    def counting(m):
        reads.append(m)
        return rows(m)

    monkeypatch.setattr(opt, "_rows", counting)
    first = list(iter(m_dns.constraints))
    second = list(iter(m_dns.constraints))
    assert len(reads) == 2
    assert first == second
    names = [c.name for c in first]
    assert len(set(names)) == len(names) == 1983
    assert set(vars(m_dns)) == {f.name for f in dataclasses.fields(m_dns)}


def _certificate_cases(m, sol):
    """(case, model, routing): the solver's own routing, then three broken
    ones: a hop dropped from a flow's walk, a stateful flow sent past the
    owner of the first variable, and every volume ten times its demand,
    which overloads links."""
    rt = sol.routing
    yield "solver", m, rt
    key = next(k for k in sorted(rt) if len(rt[k]) > 2)
    path = rt[key]
    yield "dropped-hop", m, {**rt, key: path[:1] + path[2:]}
    detour = next(_detours(m, sol.placement[min(sol.placement)]), None)
    if detour is not None:
        yield "wrong-owner", m, {**rt, detour[0]: detour[1]}
    flows = {k: (10 * vol, svars) for k, (vol, svars) in m.flows.items()}
    yield "overloaded", dataclasses.replace(m, flows=flows), rt


@pytest.mark.pinned
def test_checker_violations_are_pinned():
    """check_solution's violations, in order, on every corpus policy with
    assign-egress on example12, for the solver's routing and three broken
    ones (`_certificate_cases`), equal those the checker gave when it
    kept a sorted row list (SHA-256 of the JSON list, lhs to 9 places).
    Pinned again for the net-flow conservation rows: each dropped hop's
    src_ violation is now its source's cons_ row, and each wrong-owner
    pfull_ violation its sink's pcons_ row, with the same count.  And
    again when the checker read the column bounds too: the 749 row
    violations are all still listed (their list keeps its old digest),
    and each of the 22 dropped hops adds the R column of its hop over a
    non-link, which the model holds at 0.  And again when the cover_
    rows were deleted: the list is the one before without its 86 cover_
    violations, and every broken routing still breaks another row."""
    got = []
    for name in CORPUS:
        m = model_for([name, "assign-egress"])
        sol = opt.solve_builtin(m)
        for case, model, routing in _certificate_cases(m, sol):
            vs = opt.check_solution(model, sol.placement, routing)
            got.append([name, case, [(v.constraint, round(v.lhs, 9), v.sense,
                                      v.rhs) for v in vs]])
    assert len(got) == 87
    assert sum(len(vs) for _, case, vs in got if case == "solver") == 0
    assert sum(len(vs) for _, _, vs in got) == 685
    assert all(vs for _, case, vs in got if case != "solver")
    assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == (
        "14a5b13b4733107dfd0da5c69dfd8ce009639a28bb023afba16294a0e7c17e17")
    columns = ("R_", "P_", "PS_")
    rows = [[name, case, [v for v in vs if not v[0].startswith(columns)]]
            for name, case, vs in got]
    assert sum(len(vs) for _, _, vs in rows) == 663
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "b749768d5627bda1e9779d0fa0a428c7d5181e4ff152beea73f690a9b4d979cb")
    added = [(case, v[0][:2], v[1:]) for _, case, vs in got for v in vs
             if v[0].startswith(columns)]
    assert added == [("dropped-hop", "R_", (1.0, "=", 0.0))] * 22


@pytest.mark.parametrize("make_topo, budget", [
    (topo.example12, 4096), (lambda: topo.generated(20, 3), 64)],
    ids=["example12", "generated-20-3"])
def test_solver_walks_break_only_the_capacity_of_overloaded_links(
        make_topo, budget):
    """On every corpus policy with assign-egress, the rows the solver's own
    placement and walks break are exactly the capacity rows of the links
    `overloaded_links` reports: the rows admit every walk the router
    gives, including those that pass the source or the sink again."""
    for name in CORPUS:
        m = model_for([name, "assign-egress"], t=make_topo())
        sol = opt.solve_builtin(m, budget=budget)
        vs = opt.check_solution(m, sol.placement, sol.routing)
        assert names(vs) == {
            f"cap_{opt._san(a)}_{opt._san(b)}"
            for (a, b), _, _ in opt.overloaded_links(m.topo, sol.routing)
        }, name


def test_te_mode_fixes_the_placement_columns(m_dns, sol_dns):
    """A TE model has the ST model's rows and columns; only the bounds of
    the placement indicators differ, fixed to 1 on each variable's switch
    and to 0 elsewhere."""
    te = model_for(["dns-tunnel-detect", "assign-egress", "assumption"],
                   fixed=sol_dns.placement)
    assert list(iter(te.constraints)) == list(iter(m_dns.constraints))
    st_cols = list(iter(m_dns.columns))
    te_cols = list(iter(te.columns))
    assert [(c.name, c.cost, c.binary) for c in te_cols] == \
        [(c.name, c.cost, c.binary) for c in st_cols]
    changed = {c.name for c, d in zip(te_cols, st_cols) if c != d}
    places = {opt.pname(s, n) for s in te.state_vars for n in te.topo.nodes}
    assert changed <= places
    bounds = {c.name: (c.lo, c.hi) for c in te_cols}
    for s in te.state_vars:
        for n in te.topo.nodes:
            on = 1.0 if sol_dns.placement[s] == n else 0.0
            assert bounds[opt.pname(s, n)] == (on, on)
    sol = opt.solve_builtin(te)
    assert sol.placement == sol_dns.placement
    # the rerouted traffic still satisfies the full joint model
    assert opt.check_solution(m_dns, sol.placement, sol.routing) == []
    assert opt.check_solution(te, sol.placement, sol.routing) == []


@pytest.mark.parametrize("names, placement, kinds", [
    # last-ttl must run before ttl-change: the TE model once read its
    # ordering rows with the placement terms' signs swapped, and reported
    # 20 ord_ violations the ST model does not have
    (["dns-ttl-change", "assign-egress"],
     {"last-ttl": "C1", "ttl-change": "C5"}, {"cap"}),
    # the two variables are tied: splitting them breaks tied_ rows
    (["spam-detection", "assign-egress"],
     {"mta-mails": "C1", "spam-mta": "C5"}, {"cap", "tied"}),
], ids=["dns-ttl-change", "spam-detection"])
@pytest.mark.pinned
def test_te_checker_equals_st_checker_on_split_placements(names, placement,
                                                          kinds):
    """check_solution gives a routing the same verdict under the TE model
    of its placement as under the ST model, and export_lp of the TE model
    fixes each placement indicator of the placement's switch to 1."""
    st = model_for(names)
    te = model_for(names, fixed=placement)
    sol = opt.solve_builtin(te)
    assert sol.placement == placement
    vs = opt.check_solution(te, placement, sol.routing)
    assert vs == opt.check_solution(st, placement, sol.routing)
    assert {v.constraint.split("_")[0] for v in vs} == kinds
    lines = opt.export_lp(te).splitlines()
    for s, n in placement.items():
        assert f" 1 <= {opt.pname(s, n)} <= 1" in lines
        other = "C6" if n != "C6" else "C1"
        assert f" 0 <= {opt.pname(s, other)} <= 0" in lines


@pytest.mark.parametrize("names, placement", [
    (["conn-affinity", "assign-egress"],
     {"affinity": "C1", "next-replica": "C2"}),
    (["honeypot", "assign-egress"], {"hon-dstport": "C1", "hon-ip": "C2"}),
], ids=["conn-affinity", "honeypot"])
def test_te_routing_under_a_split_group_is_not_exact(names, placement):
    """A fixed placement that splits a tied group breaks its tied_ rows,
    so the TE routing is not exact even where no link is overloaded; the
    same variables on one switch are."""
    te = model_for(names, fixed=placement)
    sol = opt.solve_builtin(te)
    assert opt.overloaded_links(te.topo, sol.routing) == []
    assert sol.exact is False
    vs = opt.check_solution(te, placement, sol.routing)
    assert vs and {v.constraint.split("_")[0] for v in vs} == {"tied"}
    together = dict.fromkeys(placement, "C1")
    assert opt.solve_builtin(model_for(names, fixed=together)).exact is True


@pytest.fixture(scope="module")
def m_fw():
    return model_for(["stateful-fw", "assign-egress"])


@pytest.fixture(scope="module")
def sol_fw(m_fw):
    return opt.solve_builtin(m_fw)


def test_walk_crossing_a_link_twice_breaks_its_r_column(m_fw, sol_fw):
    """Every row admits this walk of flow (1,2), which crosses I1->C1
    twice, but its R column is binary: at most 1."""
    walk = ("I1", "C1", "I1", "C1", "C5", "C6", "C2", "I2")
    assert sol_fw.placement == {"established": "C5"}
    vs = opt.check_solution(m_fw, sol_fw.placement,
                            {**sol_fw.routing, (1, 2): walk})
    assert vs == [opt.Violation(opt.rname(1, 2, "I1", "C1"), 2.0, "<=", 1.0)]


def test_te_model_rejects_a_placement_other_than_its_own(m_fw, sol_fw):
    """A TE model fixes each placement column: the solver's placement
    (established on C5) breaks the model fixed to C6 on both columns."""
    te = model_for(["stateful-fw", "assign-egress"],
                   fixed={"established": "C6"})
    vs = opt.check_solution(te, sol_fw.placement, sol_fw.routing)
    assert vs == [opt.Violation("P_established_C5", 1.0, "<=", 0.0),
                  opt.Violation("P_established_C6", 0.0, ">=", 1.0)]
    assert opt.check_solution(m_fw, sol_fw.placement, sol_fw.routing) == []


def test_hop_over_a_non_link_is_reported_by_column_name(m_fw, sol_fw):
    """The model has no column for a hop over a pair of switches that no
    link joins, so it holds that hop at 0."""
    assert ("I1", "C5") not in m_fw.topo.links
    walk = ("I1", "C5", "C6", "C2", "I2")
    vs = opt.check_solution(m_fw, sol_fw.placement,
                            {**sol_fw.routing, (1, 2): walk})
    assert opt.Violation(opt.rname(1, 2, "I1", "C5"), 1.0, "=", 0.0) in vs
    assert opt.rname(1, 2, "I1", "C5") not in m_fw.variables()


def test_disconnected_topology_is_infeasible():
    t = topo.Topology(
        {"A": topo.Node("A", (1,)), "B": topo.Node("B", (2,))},
        {}, {(1, 2): 1.0})
    t.validate()
    order = deps.order_spec(deps.DependencyGraph(frozenset({"s"}),
                                                 frozenset()))
    demand = psm.StateDemand({(1, 2): ("s",)})
    m = opt.build_milp(t, demand, order)
    with pytest.raises(InfeasibleError):
        opt.solve_builtin(m)


def test_same_switch_flow_pins_state():
    t = topo.Topology(
        {"A": topo.Node("A", (1, 2)), "B": topo.Node("B", ())},
        {("A", "B"): topo.Link("A", "B", 1.0),
         ("B", "A"): topo.Link("B", "A", 1.0)},
        {(1, 2): 1.0})
    t.validate()
    order = deps.order_spec(deps.DependencyGraph(frozenset({"s"}),
                                                 frozenset()))
    demand = psm.StateDemand({(1, 2): ("s",)})
    m = opt.build_milp(t, demand, order)
    assert any(c.name.startswith("pin_s") for c in m.constraints)
    sol = opt.solve_builtin(m)
    assert sol.placement["s"] == "A"
    assert opt.check_solution(m, sol.placement, sol.routing) == []


def _unit_topology(edges):
    """Switches joined both ways by unit-capacity links, with no ports."""
    links = {}
    for a, b in edges:
        links[(a, b)] = topo.Link(a, b, 1.0)
        links[(b, a)] = topo.Link(b, a, 1.0)
    return topo.Topology({n: topo.Node(n) for e in edges for n in e},
                         links, {})


def test_router_comes_back_through_owner_without_reusing_links():
    """c on X needs a on Y first, and d on Y needs c: the flow passes X
    before a has run, comes back to X for c, and must reach Y a second
    time over a link it has not used yet (through Z)."""
    t = _unit_topology([("I", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "X"),
                        ("X", "E")])
    needed = frozenset({"a", "c", "d"})
    owner = {"a": "Y", "c": "X", "d": "Y"}
    dep = frozenset({("a", "c"), ("c", "d")})
    path = opt._route(opt._length_table(t, {}), opt._unloaded(t), "I", "E",
                      needed, owner, dep)
    hops = list(zip(path, path[1:]))
    assert len(set(hops)) == len(hops)
    assert opt.exec_positions(path, needed, owner, dep) == \
        {"a": 2, "c": 3, "d": 5}
    assert path == ("I", "X", "Y", "X", "Z", "Y", "Z", "X", "E")


def test_checker_passes_a_variable_where_it_runs():
    """c on X needs a on Y.  The walk passes X before a has run, so c runs
    only at the second visit to X: the checker's PS values follow
    `exec_positions`, not the first visit to c's owner."""
    t = _unit_topology([("I", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "X"),
                        ("X", "E")])
    path = ("I", "X", "Y", "X", "Z", "Y", "Z", "X", "E")
    m = opt.MILPModel(topo=t, flows={(1, 2): (1.0, ("a", "c"))},
                      state_vars=("a", "c"), dep=frozenset({("a", "c")}))
    placement = {"a": "Y", "c": "X"}
    vals = opt._routing_values(m, placement, {(1, 2): path})
    hops = list(zip(path, path[1:]))
    assert opt.exec_positions(path, ("a", "c"), placement, m.dep) == \
        {"a": 2, "c": 3}
    assert [vals.get(opt.psname("c", 1, 2, *h), 0.0) for h in hops] == \
        [0, 0, 0, 1, 1, 1, 1, 1]
    assert [vals.get(opt.psname("a", 1, 2, *h), 0.0) for h in hops] == \
        [0, 0, 1, 1, 1, 1, 1, 1]


def test_router_takes_the_cheapest_visit_order():
    """a on Y and b on Z are independent.  Visiting Y first costs four
    hops (I Y Z Y E); Z first costs three."""
    t = _unit_topology([("I", "Y"), ("I", "Z"), ("Y", "Z"), ("Y", "E")])
    path = opt._route(opt._length_table(t, {}), opt._unloaded(t), "I", "E",
                      frozenset({"a", "b"}), {"a": "Y", "b": "Z"}, frozenset())
    assert path == ("I", "Z", "Y", "E")


@pytest.mark.pinned
def test_router_equals_the_closure_cost_reference():
    """`_route_flows`, which keeps one length table in step with the
    loads, routes like the closure-cost router it replaced: the same
    walks, the same objective and the same final loads, compared with ==
    on floats.  Seeded random cases on generated topologies with mixed
    capacities and non-empty starting loads, random owners, needed sets
    and dependency relations (cycles included), and stateless flows."""
    rng = random.Random(15)
    routed = revisits = stateless = 0
    for case in range(40):
        t = topo.generated(rng.choice([5, 7, 9]), seed=case)
        for l in t.links.values():
            l.capacity = rng.choice([1.0, 2.5, 4.0, 10.0])
        nodes = sorted(t.nodes)
        svars = [f"s{i}" for i in range(rng.randrange(1, 5))]
        owner = {s: rng.choice(nodes) for s in svars}
        dep = frozenset((a, b) for a in svars for b in svars
                        if a != b and rng.random() < 0.3)
        flows = {}
        for k in sorted(t.demands):
            needed = tuple(s for s in svars if rng.random() < 0.4)
            flows[k] = (rng.choice([0.5, 1.0, 3.0]), needed)
        m = opt.MILPModel(topo=t, flows=flows, state_vars=tuple(svars),
                          dep=dep)
        keys = list(flows)
        rng.shuffle(keys)
        start = {l: rng.choice([0.0, 0.7, 2.0, 9.0])
                 for l in sorted(t.links) if rng.random() < 0.5}
        want_loads, got_loads = dict(start), dict(start)
        want = reference_route_flows(m, owner, keys, want_loads)
        got = opt._route_flows(m, owner, keys, got_loads, opt._unloaded(t))
        assert got == want, case
        assert got_loads == want_loads, case
        if got is not None:
            routed += 1
            for k, path in got[0].items():
                revisits += len(set(path)) < len(path)
                stateless += not flows[k][1]
    assert routed >= 20 and revisits > 0 and stateless > 0, \
        (routed, revisits, stateless)


def _bounding_walk(unloaded, src: str, dst: str) -> list:
    """The links of the unloaded shortest src -> dst walk, whose current
    length bounds `_segment`'s search."""
    tree, n, links = unloaded[1][src], dst, []
    while tree[n] is not None:
        links.append((tree[n], n))
        n = tree[n]
    return links


@pytest.mark.pinned
def test_pruned_search_equals_the_full_search():
    """`_segment`, whose search pushes only the nodes that the unloaded
    distances leave within the bounding walk's current length, finds the
    walk and length (==) of `_search` run without the bound.  Seeded
    cases built to make the bound bite: generated topologies of 12 to 45
    switches, mixed capacities or uniform ones (ties everywhere), light
    to heavy starting loads, `used` sets that cut the bounding walk or
    take random links, a switch that only sends and one that only
    receives (targets no walk reaches)."""
    rng = random.Random("pruned-search")
    seen = {"blocked": 0, "unreachable": 0, "pruned": 0}
    for case in range(40):
        g = topo.generated(rng.randint(12, 45), seed=case)
        uniform = case % 2 == 0
        nodes = {**g.nodes, "X": topo.Node("X"), "Y": topo.Node("Y")}
        links = {**g.links}
        links[("X", "S0")] = topo.Link("X", "S0", 1.0)
        links[("S1", "Y")] = topo.Link("S1", "Y", 1.0)
        for l in links.values():
            l.capacity = 10.0 if uniform else rng.choice([1.0, 2.5, 4.0,
                                                          10.0])
        t = topo.Topology(nodes, links, {})
        heavy = rng.choice([0.5, 5.0, 40.0])
        loads = {l: rng.choice([0.0, heavy / 4, heavy]) for l in sorted(links)
                 if rng.random() < 0.6}
        table = opt._length_table(t, loads)
        unloaded = opt._unloaded(t)
        names = sorted(nodes)
        for _ in range(40):
            src, dst = rng.sample(names, 2)
            walk = _bounding_walk(unloaded, src, dst) \
                if dst in unloaded[1][src] else []
            kind = rng.randrange(4)
            used = (set() if kind == 0 or not walk else
                    {rng.choice(walk)} if kind == 1 else
                    set(walk) if kind == 2 else
                    set(rng.sample(sorted(links), len(links) // 4)))
            best, parent = opt._search(table, src, dst, used)
            want = None
            if dst in best:
                path = [dst]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                want = (path[::-1], best[dst])
            assert opt._segment(table, unloaded, src, dst, used) == want, \
                (case, src, dst)
            seen["blocked"] += bool(used & set(walk))
            seen["unreachable"] += want is None
            seen["pruned"] += want is not None and len(
                opt._search(table, src, dst, used, unloaded)[0]) < len(best)
    assert seen["blocked"] > 500 and seen["unreachable"] > 100 \
        and seen["pruned"] > 300, seen


def _permutation_orders(needed, preds):
    """Reference: every permutation of the sorted variables in which no
    variable comes before one of its prerequisites."""
    for perm in itertools.permutations(sorted(needed)):
        pos = {s: i for i, s in enumerate(perm)}
        if not any(pos[a] > pos[s] for s in perm for a in preds[s]):
            yield perm


def test_dep_orders_equal_the_permutation_filter():
    """The enumeration the search's bounds once read, and still the
    reference for them: the same orders, in the same lexicographic order,
    on seeded random dependency relations over up to 7 variables; the
    relations include cycles (no order), self-dependencies and variables
    not needed."""
    rng = random.Random("dep-orders")
    kinds = set()
    for _ in range(300):
        needed = frozenset(f"s{i}" for i in range(rng.randint(0, 7)))
        names = sorted(needed) + ["x"]
        density = rng.random() * 0.4
        dep = frozenset((a, b) for a in names for b in names
                        if rng.random() < density)
        preds = opt._preds(needed, dep)
        got = list(reference_dep_orders(needed, preds))
        assert got == list(_permutation_orders(needed, preds))
        kinds.add(min(len(got), 2))
    assert kinds == {0, 1, 2}


def test_unpinned_eleven_variable_composition_compiles():
    """Four DNS applications and assign-egress: 11 variables, unpinned,
    budget 64.  The search's bounds take the least chain over the order
    ideals of each flow's variables; when they still filtered all 11!
    permutations the compile never finished, so an alarm turns a hang
    into a failure."""
    names = ["dns-tunnel-detect", "many-ip-domains", "many-domain-ips",
             "dns-ttl-change", "assign-egress"]
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    t = topo.example12()

    def too_slow(signum, frame):
        raise TimeoutError("unpinned compile took over 60 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        bundle = rulegen.compile(prog, t, budget=64)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert len(prog.states) == len(bundle.placement) == 11
    assert rulegen.validate_bundle(bundle, t) == []


def test_routing_json_round_trip(sol_dns):
    rows = opt.routing_to_json(sol_dns.routing)
    assert opt.routing_from_json(rows) == sol_dns.routing
