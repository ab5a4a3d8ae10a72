"""Bounded best-first placement search.  `solve_builtin` visits candidates
by an admissible lower bound and prunes the rest; these tests hold it to a
plain loop that routes every candidate of the same product, check the
bound against every routed objective and against the enumeration of
dependency orders it replaced, and pin the tie-break, the shortlist size
and an unpinned twelve-variable search."""

import itertools
import random
import re

import pytest

import helpers
from conftest import CORPUS, policy_src
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


def model_of(sources: list, t):
    prog = lang.compose_all([lang.parse(text) for text in sources])
    order = deps.order_spec_program(prog)
    b = xfdd.Builder(prog, order)
    d = b.prune_vacuous(b.to_xfdd_program())
    return opt.build_milp(t, psm.packet_state_map(b, d, t, order), order)


def dns_model(t):
    n = len(t.external_ports())
    return model_of([dns_tunnel(n, n), egress(n)], t)


def renamed(name: str, suffix: str) -> str:
    """Corpus policy `name` with every state variable renamed to its name
    plus `suffix`."""
    text = policy_src(name)
    for var in re.findall(r"^state\s+([\w.-]+)\[", text, re.M):
        text = re.sub(r"(?<![\w.-])" + re.escape(var) + r"(?![\w.-])",
                      var + suffix, text)
    return text


def six_apps_model():
    """dns-tunnel-detect, stateful-fw and heavy-hitter-detection, each
    twice with renamed state, and assign-egress on example12: 12
    variables in 12 groups, and 5 flows that need all 12 in any of 280
    dependency orders."""
    apps = ["dns-tunnel-detect", "stateful-fw", "heavy-hitter-detection"]
    return model_of([renamed(n, suffix) for suffix in ("-a", "-b")
                     for n in apps] + [policy_src("assign-egress")],
                    topo.example12())


def search_space(m, budget: int):
    """What `solve_builtin` searches under `budget`: the groups, their
    candidate lists, the flows it bounds and routes per candidate, and
    whether the product is exhaustive; and, routed once beforehand when
    it is not, the stateless flows' loads, routing and objective."""
    nodes = sorted(m.topo.nodes)
    groups = m.groups
    exhaustive = len(nodes) ** len(groups) <= budget
    if exhaustive:
        cand = [nodes] * len(groups)
    else:
        short = opt._shortlists(opt._Bounds(m), groups, nodes, budget)
        cand = [short[g] for g in range(len(groups))]
    flows = opt._flow_order(m)
    base_loads, base_routing, base_obj = {}, {}, 0.0
    if not exhaustive:
        base_routing, base_obj = opt._route_flows(
            m, {}, [k for k in flows if not m.flows[k][1]], base_loads)
        flows = [k for k in flows if m.flows[k][1]]
    return (groups, cand, flows, exhaustive,
            (base_loads, base_routing, base_obj))


def reference(m, budget: int):
    """Route every candidate of the product `solve_builtin` searches, in
    enumeration order, with no bound and no abort.  Returns the candidate
    lists, the constant part of every objective, and per candidate its
    placement and (routing, objective), or None when it is infeasible."""
    groups, cand, flows, exhaustive, base = search_space(m, budget)
    base_loads, base_routing, base_obj = base
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


@pytest.mark.pinned
def test_shortlist_size_is_the_integer_root():
    """The largest k with k ** groups <= budget, capped at the switch
    count; a float cube root gives 3 for 64, 15 for 4096 and 4 for
    125."""
    for budget, groups, want in [(64, 3, 4), (4096, 3, 16), (125, 3, 5),
                                 (27, 3, 3), (8, 3, 2), (7, 3, 1),
                                 (4096, 12, 2), (1, 2, 1)]:
        assert opt._shortlist_size(budget, groups, 50) == want
    assert opt._shortlist_size(4096, 3, 12) == 12
    assert opt._shortlist_size(10 ** 9, 1, 50) == 50


@pytest.mark.pinned
def test_scale_shortlist_searches_the_whole_budget():
    sol = opt.solve_builtin(dns_model(topo.generated(50, 7)), budget=64)
    assert sol.candidates == 64
    assert 1 <= sol.examined <= sol.candidates


def _searched(m, budget: int) -> tuple:
    """`m` with the product, flows and base objective `solve_builtin`
    bounds under `budget`."""
    groups, cand, flows, _, (_, _, base) = search_space(m, budget)
    return m, groups, cand, flows, base


def _search_models(rng):
    for name, args, budget in CASES:
        t = topo.example12() if args is None else topo.generated(*args)
        yield _searched(dns_model(t), budget)


def _corpus_models(t, budget):
    def models(rng):
        for name in CORPUS:
            yield _searched(model_of([policy_src(name),
                                      policy_src("assign-egress")], t()),
                            budget)
    return models


def _six_apps(rng):
    """Shortlisted example12, with the first four groups on both of their
    switches and the rest on the first: the reference orders every flow
    that needs all twelve variables 280 ways per placement."""
    m, groups, cand, flows, base = _searched(six_apps_model(), 4096)
    assert [len(c) for c in cand] == [2] * 12
    yield (m, groups, [c if g < 4 else c[:1] for g, c in enumerate(cand)],
           flows, base)


def _unreachable_owner(rng):
    """A six-switch ring plus X, which only sends into it, and Y, which
    only receives from it: a flow whose owner sits on either has no
    walk."""
    nodes, links = ring(6, {0: 1, 3: 2})
    nodes.update({x: topo.Node(x, ()) for x in "XY"})
    links[("X", "N1")] = topo.Link("X", "N1", 1.0)
    links[("N4", "Y")] = topo.Link("N4", "Y", 1.0)
    t = topo.Topology(nodes, links, {(1, 2): 1.0, (2, 1): 2.0})
    order = deps.order_spec(deps.DependencyGraph(
        frozenset("ab"), frozenset({("a", "b")})))
    demand = psm.StateDemand({(1, 2): ("a",), (2, 1): ("a", "b")})
    yield _searched(opt.build_milp(t, demand, order), 4096)


def _random_posets(rng):
    """Seeded dependency relations over up to six variables, with cycles
    (no order) and self-dependencies, in random groups on random
    candidate switches; volumes include 0."""
    t = topo.generated(8, 3)
    nodes = sorted(t.nodes)
    demands = sorted(t.demands.items())[:10]
    for _ in range(40):
        names = [f"s{i}" for i in range(rng.randint(1, 6))]
        density = rng.random() * 0.5
        dep = frozenset((a, b) for a in names for b in names
                        if rng.random() < density)
        n_groups = rng.randint(1, len(names))
        groups = [names[g::n_groups] for g in range(n_groups)]
        flows = {k: (rng.choice([0.0, vol, 2.5]),
                     tuple(rng.sample(names, rng.randint(0, len(names)))))
                 for k, vol in demands}
        m = opt.MILPModel(topo=t, flows=flows, state_vars=tuple(names),
                          groups=tuple(groups), dep=dep)
        cand = [rng.sample(nodes, rng.randint(1, 3)) for _ in groups]
        yield m, groups, cand, list(flows), rng.choice([0.0, 1.25])


BOUND_MODELS = {
    "search-cases": _search_models,
    "corpus-example12": _corpus_models(topo.example12, 4096),
    "corpus-generated20": _corpus_models(lambda: topo.generated(20, 3), 64),
    "six-apps": _six_apps,
    "unreachable-owner": _unreachable_owner,
    "random-posets": _random_posets,
}


@pytest.mark.parametrize("kind", BOUND_MODELS)
@pytest.mark.pinned
def test_bound_tables_equal_the_enumeration_reference(kind):
    """`_Bounds.candidates` and `_Bounds.flow`, a dynamic program over
    order ideals, give exactly (==) the floats of the enumeration of
    every dependency order they replaced (`helpers.reference_candidates`,
    `helpers.reference_flow_bound`): over the product the search bounds,
    and per flow on seeded random placements, which may split a group."""
    rng = random.Random(f"bounds:{kind}")
    seen = {"stateless": 0, "inf": 0, "most orders": 0}
    for m, groups, cand, flows, base in BOUND_MODELS[kind](rng):
        bounds = opt._Bounds(m)
        dist = helpers.reference_distances(m.topo)
        want = helpers.reference_candidates(m, dist, flows, groups, cand,
                                            base)
        assert bounds.candidates(flows, groups, cand, base) == want
        seen["inf"] += sum(bound == float("inf") for bound, _ in want)
        nodes = sorted(m.topo.nodes)
        for _ in range(4):
            placement = {s: rng.choice(nodes) for s in m.state_vars}
            for k, (_, svars) in m.flows.items():
                want = helpers.reference_flow_bound(m, dist, k, placement)
                assert bounds.flow(k, placement) == want, (k, placement)
                seen["stateless"] += not svars
                seen["inf"] += want == float("inf")
        needed = [frozenset(svars) for _, svars in m.flows.values()]
        seen["most orders"] = max([seen["most orders"]] + [
            len(list(helpers.reference_dep_orders(n, opt._preds(n, m.dep))))
            for n in needed])
    assert (seen["stateless"] > 0) == kind.startswith(("corpus", "random"))
    assert (seen["inf"] > 0) == (kind in ("unreachable-owner",
                                          "random-posets"))
    assert seen["most orders"] >= (280 if kind == "six-apps" else 1)


def test_unpinned_six_app_search_is_pinned():
    """The twelve-variable composition searched, not pinned, on example12
    at budget 4096: 2 shortlisted switches per group, and every variable
    lands on C5.  Each flow's bound used to list its dependency orders
    (280 for 5 flows), which took seconds per compile."""
    sol = opt.solve_builtin(six_apps_model(), budget=4096)
    assert sol.placement == {s + suffix: "C5" for suffix in ("-a", "-b")
                             for s in ["orphan", "susp-client", "blacklist",
                                       "established", "hh-counter",
                                       "heavy-hitter"]}
    assert sol.objective == 12.399999999999972
    assert sol.exact is False
    assert sol.candidates == 4096
    assert sol.examined == 4
