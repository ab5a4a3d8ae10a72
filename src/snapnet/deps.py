"""State dependency analysis.

Builds the read-before-write dependency graph over state variables in one
walk of the program, ties the variables that reach each other into groups,
orders the groups, and ranks the variables; `xfdd.test_key` orders diagram
tests by that rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .values import canon_key


# ------------------------------------------------------------ graph

@dataclass
class DependencyGraph:
    nodes: frozenset
    edges: frozenset           # ordered pairs (s, t): t written after reading s


def _walk(p) -> tuple:
    """(reads, writes, edges) of p, in one post-order pass.  Edge rules:
    seq crosses the reads of p with the writes of q; an if-condition's
    reads cross both branches' writes; atomic ties everything it
    touches.  A counter reads the old value before bumping it."""
    if isinstance(p, lang.StateTest):
        return {p.var}, set(), set()
    if isinstance(p, (lang.Incr, lang.Decr)):
        return {p.var}, {p.var}, set()
    if isinstance(p, lang.StateSet):
        return set(), {p.var}, set()
    if isinstance(p, (lang.Neg, lang.Atomic)):
        kids = [_walk(p.p)]
    elif isinstance(p, (lang.Or, lang.And, lang.Par, lang.Seq)):
        kids = [_walk(p.p), _walk(p.q)]
    elif isinstance(p, lang.If):
        kids = [_walk(p.cond), _walk(p.then), _walk(p.els)]
    else:
        return set(), set(), set()
    rd, wr, edges = (set().union(*part) for part in zip(*kids))
    if isinstance(p, lang.Seq):
        edges |= {(s, t) for s in kids[0][0] for t in kids[1][1]}
    elif isinstance(p, lang.If):
        edges |= {(s, t) for s in kids[0][0] for t in kids[1][1] | kids[2][1]}
    elif isinstance(p, lang.Atomic):
        edges |= {(s, t) for s in rd | wr for t in rd | wr}
    return rd, wr, edges


def st_dep(p, extra_vars: set | None = None) -> DependencyGraph:
    rd, wr, edges = _walk(p)
    return DependencyGraph(frozenset(rd | wr | (extra_vars or set())),
                           frozenset(edges))


def st_dep_program(prog: lang.Program) -> DependencyGraph:
    return st_dep(prog.policy, extra_vars=set(prog.states))


# ------------------------------------------------------------ order

@dataclass
class OrderSpec:
    dep: frozenset             # ordered cross-group pairs (s, t)
    state_rank: dict           # variable -> int, respecting dep
    groups: list               # tied groups as sorted lists, in order


def expr_key(e) -> tuple:
    if isinstance(e, lang.Lit):
        return (0, canon_key(e.value))
    if isinstance(e, lang.FieldRef):
        return (1, e.name)
    if isinstance(e, lang.TupleExpr):
        return (2,) + tuple(expr_key(x) for x in e.items)
    raise TypeError(f"not an expr: {e!r}")


def order_spec(g: DependencyGraph) -> OrderSpec:
    """A tied group is a class of variables that reach each other along
    the edges; the groups are ordered by taking, again and again, the
    ready group (every group that reaches it already taken) with the
    least first member.  Variables rank in that order, and by name
    within a group."""
    succ: dict = {v: [] for v in g.nodes}
    for s, t in g.edges:
        succ[s].append(t)
    reach = {}                 # v -> the variables reachable from v, v too
    for v in g.nodes:
        seen, todo = {v}, [v]
        while todo:
            for t in succ[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach[v] = seen
    group_of = {v: tuple(sorted(w for w in reach[v] if v in reach[w]))
                for v in g.nodes}
    above = {grp: {group_of[v] for v in g.nodes if grp[0] in reach[v]} - {grp}
             for grp in group_of.values()}
    groups: list = []
    taken: set = set()
    for _ in above:
        grp = min(x for x in above if x not in taken and above[x] <= taken)
        groups.append(list(grp))
        taken.add(grp)
    order = [v for grp in groups for v in grp]
    return OrderSpec(
        dep=frozenset(e for e in g.edges if group_of[e[0]] != group_of[e[1]]),
        state_rank={v: rank for rank, v in enumerate(order)},
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
