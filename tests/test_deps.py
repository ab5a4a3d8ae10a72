"""State-variable dependency analysis and test-ordering tests."""

import hashlib
import random

import pytest

from snapnet import deps, lang

from conftest import ALL_POLICIES, policy_src
from helpers import random_policy


def test_reads_writes():
    prog = lang.parse(
        "state s[1] default 0;\nstate t[1] default 0;\n"
        "field a : small in {0, 1};\n"
        "if s[0] = 1 then t[0] <- 1 else id")
    reads, writes, _ = deps._walk(prog.body)
    assert reads == {"s"}
    assert writes == {"t"}


def test_counter_is_both_read_and_write():
    prog = lang.parse("state s[1] default 0;\ns[0]++")
    reads, writes, _ = deps._walk(prog.body)
    assert reads == {"s"}
    assert writes == {"s"}


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


def _pinned_graph(rng):
    """1-8 variables, edges drawn with replacement: cycles and self-loops
    are common."""
    nodes = [f"v{i}" for i in range(rng.randrange(1, 9))]
    edges = {(rng.choice(nodes), rng.choice(nodes))
             for _ in range(rng.randrange(0, 3 * len(nodes)))}
    return deps.DependencyGraph(frozenset(nodes), frozenset(edges))


@pytest.mark.pinned
def test_dependency_analysis_is_pinned():
    """`st_dep`'s nodes and edges and `order_spec`'s groups, dependency
    pairs and ranks over every `ALL_POLICIES` program, seeded
    `random_policy` programs and seeded random graphs.  The digest was
    computed with the per-node `reads`/`writes` walks, Tarjan's SCCs and
    the heap-ordered Kahn pass that `_walk` and the reachability closure
    replaced."""
    h = hashlib.sha256()

    def record(*items):
        h.update(repr(items).encode())
        h.update(b"\n")

    def record_spec(spec):
        record(spec.groups, sorted(spec.dep), sorted(spec.state_rank.items()))

    for name in ALL_POLICIES:
        g = deps.st_dep_program(lang.parse(policy_src(name)))
        record(name, sorted(g.nodes), sorted(g.edges))
        record_spec(deps.order_spec(g))
    rng = random.Random("deps:pinned")
    for _ in range(1000):
        g = deps.st_dep(random_policy(rng, 4))
        record(sorted(g.nodes), sorted(g.edges))
    for _ in range(10_000):
        record_spec(deps.order_spec(_pinned_graph(rng)))
    assert h.hexdigest() == (
        "3dfd7f3d32aa5fa1de498e77d8793a4f"
        "395e63a30a4a77d95557e61c9aa6a03f")
