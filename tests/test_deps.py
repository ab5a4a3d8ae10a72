"""State-variable dependency analysis and test-ordering tests."""

import random

from snapnet import deps, lang

from conftest import policy_src


def test_reads_writes():
    prog = lang.parse(
        "state s[1] default 0;\nstate t[1] default 0;\n"
        "field a : small in {0, 1};\n"
        "if s[0] = 1 then t[0] <- 1 else id")
    assert deps.reads(prog.body) == {"s"}
    assert deps.writes(prog.body) == {"t"}


def test_counter_is_both_read_and_write():
    prog = lang.parse("state s[1] default 0;\ns[0]++")
    assert deps.reads(prog.body) == {"s"}
    assert deps.writes(prog.body) == {"s"}


def test_seq_crosses_reads_with_later_writes():
    prog = lang.parse(
        "state s[1] default 0;\nstate t[1] default 0;\n"
        "(if s[0] = 1 then id else drop); t[0] <- 1")
    g = deps.st_dep(prog.body)
    assert ("s", "t") in g.edges
    assert ("t", "s") not in g.edges


def test_atomic_ties_touched_variables():
    prog = lang.parse(
        "state s[1] default 0;\nstate t[1] default 0;\n"
        "atomic { s[0] <- 1; t[0] <- 2 }")
    g = deps.st_dep(prog.body)
    assert ("s", "t") in g.edges and ("t", "s") in g.edges
    spec = deps.order_spec(g)
    assert ["s", "t"] in spec.groups


def test_dns_tunnel_order():
    prog = lang.parse(policy_src("dns-tunnel-detect"))
    spec = deps.order_spec_program(prog)
    assert spec.groups == [["orphan"], ["susp-client"], ["blacklist"]]
    assert spec.dep == frozenset({("orphan", "susp-client"),
                                  ("susp-client", "blacklist")})
    r = spec.state_rank
    assert r["orphan"] < r["susp-client"] < r["blacklist"]


def test_tied_pair_in_many_ip_domains():
    prog = lang.parse(policy_src("many-ip-domains"))
    spec = deps.order_spec_program(prog)
    assert ["domain-ip-pair", "num-of-domains"] in spec.groups
    assert ("domain-ip-pair", "mal-ip-list") in spec.dep
    assert ("num-of-domains", "mal-ip-list") in spec.dep


def test_undeclared_but_unused_vars_still_ranked():
    prog = lang.parse("state s[1] default 0;\nstate t[1] default 0;\nid")
    spec = deps.order_spec_program(prog)
    assert set(spec.state_rank) == {"s", "t"}


def _random_graph(rng):
    n = rng.randrange(2, 7)
    nodes = [f"v{i}" for i in range(n)]
    edges = set()
    for _ in range(rng.randrange(0, 2 * n)):
        edges.add((rng.choice(nodes), rng.choice(nodes)))
    return deps.DependencyGraph(frozenset(nodes), frozenset(edges))


def test_rank_is_a_total_order_consistent_with_deps():
    """Totality, antisymmetry, and transitivity of the rank comparator,
    plus agreement with every cross-group dependency edge, checked on
    ten thousand random variable triples."""
    rng = random.Random(60)
    triples = 0
    while triples < 10_000:
        g = _random_graph(rng)
        spec = deps.order_spec(g)
        rank = spec.state_rank
        # every dependency edge is respected by the rank
        for (a, b) in spec.dep:
            assert rank[a] < rank[b]
        # ranks are distinct: totality and antisymmetry are immediate
        assert len(set(rank.values())) == len(rank)
        nodes = sorted(g.nodes)
        for _ in range(200):
            x, y, z = (rng.choice(nodes) for _ in range(3))
            # totality
            assert rank[x] < rank[y] or rank[y] < rank[x] or x == y
            # antisymmetry
            if rank[x] < rank[y]:
                assert not rank[y] < rank[x]
            # transitivity
            if rank[x] < rank[y] and rank[y] < rank[z]:
                assert rank[x] < rank[z]
            triples += 1


def test_order_spec_is_deterministic():
    prog = lang.parse(policy_src("sidejacking"))
    a = deps.order_spec_program(prog)
    b = deps.order_spec_program(prog)
    assert a.groups == b.groups and a.state_rank == b.state_rank


def test_test_key_orders_field_before_state():
    from snapnet import xfdd
    prog = lang.parse(policy_src("dns-tunnel-detect"))
    spec = deps.order_spec_program(prog)
    tf = xfdd.TFieldValue("dstip", 0)
    ts = xfdd.TStateTest("orphan", lang.Lit(0), lang.Lit(1))
    assert xfdd.test_key(spec, tf) < xfdd.test_key(spec, ts)


def test_to_dot_lists_nodes_and_edges():
    prog = lang.parse(policy_src("dns-tunnel-detect"))
    g = deps.st_dep_program(prog)
    dot = deps.to_dot(g)
    assert '"orphan" -> "susp-client";' in dot
    assert dot.startswith("digraph")
