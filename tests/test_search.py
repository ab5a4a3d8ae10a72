"""Bounded best-first placement search.  `solve_builtin` visits candidates
by an admissible lower bound and prunes the rest; these tests hold it to a
plain loop that routes every candidate of the same product, check the
bound against every routed objective, and pin the tie-break."""

import itertools

import pytest

from snapnet import deps, lang, opt, psm, topo, xfdd


def dns_tunnel(n_subnets: int, watched: int) -> str:
    """DNS-tunnel detection over one host per subnet 10.0.k.0/24; the
    clients of subnet `watched` are monitored."""
    hosts = ", ".join(f"10.0.{k}.2" for k in range(1, n_subnets + 1))
    return f"""
state orphan[2] default False;
state susp-client[1] default 0;
state blacklist[1] default False;
field srcip : ip in {{{hosts}}};
field dstip : ip in {{{hosts}}};
field srcport : int in {{53, 80}};
field dns-rdata : ip in {{10.0.1.2}};

if dstip = 10.0.{watched}.0/24 & srcport = 53 then
    orphan[dstip][dns-rdata] <- True;
    susp-client[dstip]++;
    (if susp-client[dstip] = 3 then blacklist[dstip] <- True else id)
else (if srcip = 10.0.{watched}.0/24 & orphan[srcip][dstip] then
    orphan[srcip][dstip] <- False;
    susp-client[srcip]--
else id)
"""


def egress(n_subnets: int) -> str:
    """Subnet 10.0.k.0/24 leaves through external port k."""
    hosts = ", ".join(f"10.0.{k}.2" for k in range(1, n_subnets + 1))
    rules = " else ".join(f"if dstip = 10.0.{k}.0/24 then outport <- {k}"
                          for k in range(1, n_subnets + 1))
    return f"field dstip : ip in {{{hosts}}};\n{rules} else drop\n"


def dns_model(t):
    n = len(t.external_ports())
    prog = lang.compose_all([lang.parse(dns_tunnel(n, n)),
                             lang.parse(egress(n))])
    order = deps.order_spec_program(prog)
    b = xfdd.Builder(prog, order)
    d = b.prune_vacuous(b.to_xfdd_program())
    return opt.build_milp(t, psm.packet_state_map(b, d, t, order), order)


def reference(m, budget: int):
    """Route every candidate of the product `solve_builtin` searches, in
    enumeration order, with no bound and no abort.  Returns the candidate
    lists, the constant part of every objective, and per candidate its
    placement and (routing, objective), or None when it is infeasible."""
    nodes = sorted(m.topo.nodes)
    groups = m.groups
    exhaustive = len(nodes) ** len(groups) <= budget
    if exhaustive:
        cand = [nodes] * len(groups)
    else:
        short = opt._shortlists(m, groups, nodes, budget)
        cand = [short[g] for g in range(len(groups))]
    flows = opt._flow_order(m)
    base_loads, base_routing, base_obj = {}, {}, 0.0
    if not exhaustive:
        base_routing, base_obj = opt._route_flows(
            m, {}, [k for k in flows if not m.flows[k][1]], base_loads)
        flows = [k for k in flows if m.flows[k][1]]
    out = []
    for combo in itertools.product(*cand):
        placement = {s: n for g, n in zip(groups, combo) for s in g}
        r = opt._route_flows(m, placement, flows, dict(base_loads),
                             obj_so_far=base_obj)
        if r is not None:
            r = ({**base_routing, **r[0]}, r[1])
            # every walk reuses no link and runs every variable its flow needs
            assert all(
                len(set(zip(p, p[1:]))) == len(p) - 1
                and len(opt.exec_positions(p, m.flows[k][1], placement,
                                           m.dep)) == len(m.flows[k][1])
                for k, p in r[0].items()), placement
        out.append((placement, r))
    return groups, cand, flows, base_obj, exhaustive, out


def best_of(out):
    return min((r[1], tuple(sorted(p.items())), p, r[0])
               for p, r in out if r is not None)


CASES = [("example12", None, 4096), ("example12", None, 64),
         ("generated", (6, 1), 4096), ("generated", (6, 2), 4096),
         ("generated", (8, 3), 4096), ("generated", (8, 3), 8),
         ("generated", (10, 4), 27)]


@pytest.fixture(scope="module", params=CASES,
                ids=lambda c: f"{c[0]}{c[1] or ''}-budget{c[2]}")
def case(request):
    name, args, budget = request.param
    t = topo.example12() if args is None else topo.generated(*args)
    m = dns_model(t)
    return m, budget, reference(m, budget)


def test_pruned_search_matches_full_enumeration(case):
    m, budget, (_, cand, _, _, exhaustive, out) = case
    sol = opt.solve_builtin(m, budget=budget)
    obj, _, placement, routing = best_of(out)
    assert sol.placement == placement
    assert sol.routing == routing
    assert sol.objective == obj
    assert sol.exact == (exhaustive
                         and not opt.overloaded_links(m.topo, routing))
    assert sol.candidates == len(out) == len(list(itertools.product(*cand)))
    assert 1 <= sol.examined <= sol.candidates


def test_bound_never_exceeds_routed_objective(case):
    m, _, (groups, cand, flows, base_obj, _, out) = case
    bounds = opt._Bounds(m)
    scored = bounds.candidates(flows, groups, cand, base_obj)
    assert [i for _, i in scored] == list(range(len(out)))
    routed = 0
    for (bound, _), (placement, r) in zip(scored, out):
        if r is None:
            continue
        routed += 1
        assert bound <= r[1] + 1e-9, placement
        # and flow by flow, the bounds of the flows not yet routed
        rest = bounds.suffixes(flows, placement)
        assert rest[-1] == 0.0
        assert base_obj + bounds.flow(flows[0], placement) + rest[0] \
            == pytest.approx(bound)
    assert routed > 0


def test_example12_dns_search_routes_few_candidates():
    sol = opt.solve_builtin(dns_model(topo.example12()))
    assert sol.exact
    assert sol.candidates == 12 ** 3
    assert sol.examined < sol.candidates


def ring(n: int, ports: dict):
    """n switches in a cycle, unit capacities; ports: index -> port."""
    names = [f"N{i}" for i in range(n)]
    links = {}
    for a, b in zip(names, names[1:] + names[:1]):
        links[(a, b)] = topo.Link(a, b, 1.0)
        links[(b, a)] = topo.Link(b, a, 1.0)
    return {x: topo.Node(x, (ports[i],) if i in ports else ())
            for i, x in enumerate(names)}, links


def test_tie_break_prefers_smallest_sorted_placement():
    """On a six-switch ring several placements tie.  a and c are tied,
    and their group is enumerated after b's, so enumeration meets the
    winner (a, c on N0; b on N4) only after another tie: the search must
    keep routing candidates whose bound equals the incumbent.  The
    groups are enumerated in `deps` order, which puts b's first only
    because b must run before a; no flow needs both, so that changes no
    walk.  Groups that no dependency orders come by least name, the
    order the tie-break sorts placements in, and then the first tie met
    is the winner."""
    nodes, links = ring(6, {0: 1, 2: 2, 3: 3})
    t = topo.Topology(nodes, links, {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 1.0})
    t.validate()
    order = deps.order_spec(deps.DependencyGraph(
        frozenset("abc"), frozenset({("a", "c"), ("c", "a"), ("b", "a")})))
    assert order.groups == [["b"], ["a", "c"]]
    demand = psm.StateDemand({(1, 2): ("a", "c"), (1, 3): ("b",)})
    m = opt.build_milp(t, demand, order)
    *_, out = reference(m, 4096)
    obj, _, placement, _ = best_of(out)
    ties = [p for p, r in out if r is not None and r[1] == obj]
    assert len(ties) > 1
    assert ties[0] != placement
    sol = opt.solve_builtin(m)
    assert sol.placement == placement == {"a": "N0", "b": "N4", "c": "N0"}
    assert sol.objective == obj
    assert sol.examined > 1
