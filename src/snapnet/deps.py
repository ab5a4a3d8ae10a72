"""State dependency analysis.

Builds the read-before-write dependency graph over state variables,
condenses it into SCCs (tied groups), topologically orders the groups,
and ranks the variables; `xfdd.test_key` orders diagram tests by that rank.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import lang
from .values import canon_key


# ------------------------------------------------------------ reads/writes

def reads(p) -> set:
    if isinstance(p, lang.StateTest):
        return {p.var}
    if isinstance(p, (lang.Incr, lang.Decr)):
        return {p.var}          # reads the old value before bumping it
    if isinstance(p, lang.Neg):
        return reads(p.p)
    if isinstance(p, (lang.Or, lang.And, lang.Par, lang.Seq)):
        return reads(p.p) | reads(p.q)
    if isinstance(p, lang.If):
        return reads(p.cond) | reads(p.then) | reads(p.els)
    if isinstance(p, lang.Atomic):
        return reads(p.p)
    return set()


def writes(p) -> set:
    if lang.is_state_op(p):
        return {p.var}
    if isinstance(p, lang.Neg):
        return writes(p.p)
    if isinstance(p, (lang.Or, lang.And, lang.Par, lang.Seq)):
        return writes(p.p) | writes(p.q)
    if isinstance(p, lang.If):
        return writes(p.cond) | writes(p.then) | writes(p.els)
    if isinstance(p, lang.Atomic):
        return writes(p.p)
    return set()


# ------------------------------------------------------------ graph

@dataclass
class DependencyGraph:
    nodes: frozenset
    edges: frozenset           # ordered pairs (s, t): t written after reading s


def st_dep(p, extra_vars: set | None = None) -> DependencyGraph:
    """Edge rules: seq crosses reads of p with writes of q; an if-condition's
    reads cross both branches' writes; atomic ties everything it touches."""

    def go(n) -> set:
        if isinstance(n, lang.Par):
            return go(n.p) | go(n.q)
        if isinstance(n, lang.Seq):
            return ({(s, t) for s in reads(n.p) for t in writes(n.q)}
                    | go(n.p) | go(n.q))
        if isinstance(n, lang.If):
            wr = writes(n.then) | writes(n.els)
            return ({(s, t) for s in reads(n.cond) for t in wr}
                    | go(n.then) | go(n.els))
        if isinstance(n, lang.Atomic):
            touched = reads(n.p) | writes(n.p)
            return {(s, t) for s in touched for t in touched}
        if isinstance(n, (lang.Or, lang.And)):
            return go(n.p) | go(n.q)
        if isinstance(n, lang.Neg):
            return go(n.p)
        return set()

    edges = go(p)
    nodes = reads(p) | writes(p) | {v for e in edges for v in e}
    if extra_vars:
        nodes |= extra_vars
    return DependencyGraph(frozenset(nodes), frozenset(edges))


def st_dep_program(prog: lang.Program) -> DependencyGraph:
    return st_dep(prog.policy, extra_vars=set(prog.states))


# ------------------------------------------------------------ SCC / order

def _tarjan(nodes: list, succ: dict) -> list:
    """Iterative Tarjan; returns SCCs as lists (reverse topological order)."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


@dataclass
class OrderSpec:
    dep: frozenset             # ordered cross-SCC pairs (s, t)
    state_rank: dict           # variable -> int, respecting dep
    groups: list               # tied groups (SCCs) as sorted lists, in order


def expr_key(e) -> tuple:
    if isinstance(e, lang.Lit):
        return (0, canon_key(e.value))
    if isinstance(e, lang.FieldRef):
        return (1, e.name)
    if isinstance(e, lang.TupleExpr):
        return (2,) + tuple(expr_key(x) for x in e.items)
    raise TypeError(f"not an expr: {e!r}")


def order_spec(g: DependencyGraph) -> OrderSpec:
    nodes = sorted(g.nodes)
    succ = {}
    for s, t in sorted(g.edges):
        succ.setdefault(s, []).append(t)
    sccs = _tarjan(nodes, succ)

    comp_of = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i

    # condensation edges + Kahn with lexicographic-min tie-break
    cond_succ = {i: set() for i in range(len(sccs))}
    indeg = {i: 0 for i in range(len(sccs))}
    for s, t in g.edges:
        a, b = comp_of[s], comp_of[t]
        if a != b and b not in cond_succ[a]:
            cond_succ[a].add(b)
            indeg[b] += 1
    heap = [(sccs[i][0], i) for i in indeg if indeg[i] == 0]
    heapq.heapify(heap)
    topo = []
    while heap:
        _, i = heapq.heappop(heap)
        topo.append(i)
        for j in sorted(cond_succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (sccs[j][0], j))
    assert len(topo) == len(sccs), "condensation must be acyclic"

    groups = [sccs[i] for i in topo]
    state_rank = {}
    rank = 0
    for comp in groups:
        for v in comp:            # already sorted lexicographically
            state_rank[v] = rank
            rank += 1

    dep = set()
    for s, t in g.edges:
        if comp_of[s] != comp_of[t]:
            dep.add((s, t))

    return OrderSpec(dep=frozenset(dep), state_rank=state_rank,
                     groups=groups)


def order_spec_program(prog: lang.Program) -> OrderSpec:
    return order_spec(st_dep_program(prog))


# ------------------------------------------------------------ export

def to_dot(g: DependencyGraph) -> str:
    lines = ["digraph deps {"]
    for v in sorted(g.nodes):
        lines.append(f'  "{v}";')
    for s, t in sorted(g.edges):
        lines.append(f'  "{s}" -> "{t}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
