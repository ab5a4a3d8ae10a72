"""Joint state placement and routing.

`build_milp` collects the placement problem: flows with their volumes and
needed state variables, the dependency and tie relations, and, in TE mode,
the fixed placement.  Its mixed-integer model over per-flow link
indicators (R, binary: each flow takes one walk), placement indicators
(P, binary), and processed-flow fractions (PS) has the same rows in both
modes; TE mode only fixes the bounds of each P to 0 or 1.  That model,
rows and column bounds alike, is the one definition of a valid routing.
Its rows (`_rows`) and columns (`_columns`) are generated flow by flow
each time they are read, and no one keeps them: `check_solution` walks
each once, keeping only violations, and `export_lp` (CPLEX-LP text for
external solvers) sorts them by name.  The built-in solver never reads
them: it handles desk-scale instances with a search over per-group
placements (all of them, or a shortlist under a budget).  It visits
placements best-first by an admissible lower bound on their objective,
routes the flows of each one it visits one after another, and stops once
the next bound exceeds the best objective found.  In TE mode it only
routes, under the fixed placement.  A flow's walk visits the owners of its
variables in a dependency-respecting order and never reuses a link
(`_route`); `exec_positions` says where each variable runs on it, for the
router, the checker and rule generation alike.

Variable naming (deterministic):
    R_u{u}_v{v}_{i}_{j}       1 iff the one walk of (u,v) crosses (i,j)
    P_{s}_{n}                 1 iff state variable s lives on switch n
    PS_{s}_u{u}_v{v}_{i}_{j}  fraction of (u,v) on (i,j) that has passed s

Row families (`_rows`): `cons_`, `loop_`, `pin_` per flow; `pslim_`,
`cover_`, `pcons_`, `ord_` per flow and needed variable; `cap_`, `place_`,
`tied_` across flows.  Conservation is in net-flow form, one row per node
n, so a walk may pass its source or sink again: R in - out is [n = sink] -
[n = source], and PS in - out + P(s, n) is [n = sink].  HiGHS solves the
exported text in `tests/test_oracle.py`, against the built-in solver.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .errors import InfeasibleError, InputError


# A pass over a model's rows names a few hundred nodes, ports and state
# variables millions of times; the cache is bounded, so it cannot grow with
# the process.
@lru_cache(maxsize=4096, typed=True)
def _san(x) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", str(x))


def rname(u, v, i, j) -> str:
    return f"R_u{_san(u)}_v{_san(v)}_{_san(i)}_{_san(j)}"


def pname(s, n) -> str:
    return f"P_{_san(s)}_{_san(n)}"


def psname(s, u, v, i, j) -> str:
    return f"PS_{_san(s)}_u{_san(u)}_v{_san(v)}_{_san(i)}_{_san(j)}"


# ---------------------------------------------------------------- model

@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple            # ((var, coef), ...), vars unique
    sense: str               # "<=" | ">=" | "="
    rhs: float


@dataclass(frozen=True)
class Column:
    name: str
    cost: float | None       # objective coefficient; None: not in it
    lo: float
    hi: float
    binary: bool


class _Stream:
    """A model's rows or columns as a sized, re-iterable view: every
    iteration generates them again with `gen` (`_rows` or `_columns`),
    and `len` counts them.  Nothing keeps them, so code that wants them
    in a list sorts `iter(view)`: `sorted` and `list` call `len` first,
    which would generate everything twice."""

    def __init__(self, gen, m: MILPModel):
        self.gen = gen
        self.m = m

    def __iter__(self):
        return self.gen(self.m)

    def __len__(self) -> int:
        return sum(1 for _ in self.gen(self.m))


@dataclass
class MILPModel:
    """The placement problem, plus its LP rows and columns on demand.

    The fields are all `solve_builtin` reads.  `constraints` and
    `columns` are views that generate the rows (`_rows`) and the columns
    (`_columns`) again on every read, and keep none of them.  A `fixed`
    placement (state var -> switch) makes it a TE-mode model: routing
    only, with each placement column bounded to its value under the
    placement; the rows are the same as without it."""
    topo: object
    flows: dict                                 # (u,v) -> (demand, vars tuple)
    state_vars: tuple = ()
    groups: tuple = ()                          # variables placed together
    dep: frozenset = frozenset()
    fixed: dict | None = None                   # TE-mode placement

    @property
    def constraints(self) -> _Stream:
        """Every Constraint, generated again on each iteration."""
        return _Stream(_rows, self)

    @property
    def columns(self) -> _Stream:
        """Every Column, generated again on each iteration."""
        return _Stream(_columns, self)

    def variables(self) -> list:
        return sorted(c.name for c in self.columns)


@dataclass(frozen=True)
class Violation:
    constraint: str
    lhs: float
    sense: str
    rhs: float


@dataclass
class Solution:
    placement: dict          # state var -> switch id
    routing: dict            # (u,v) -> walk (node, ...)
    objective: float
    exact: bool              # exhaustive search, routing never congested
    candidates: int = 1      # placements in the searched product
    examined: int = 1        # candidates whose routing was started


# ---------------------------------------------------------------- build

def build_milp(topo, demand, order, fixed: dict | None = None) -> MILPModel:
    """demand: psm.StateDemand; order: deps.OrderSpec.  A `fixed`
    placement (state var -> switch) selects TE mode and fixes the bounds
    of the placement indicators; it must place every state variable, and
    only those, on a switch of `topo` (`InputError` otherwise).  Without
    it the placement is searched (ST mode).

    Cheap: it collects each flow's volume and needed variables and the
    state variables in rank order.  The LP rows are generated only when
    they are read (see `MILPModel`)."""
    state_vars = tuple(sorted(order.state_rank, key=lambda s:
                              (order.state_rank[s], s)))
    if fixed is not None:
        for s in state_vars:
            if fixed.get(s) not in topo.nodes:
                raise InputError(f"placement has no known switch for state "
                                 f"variable {s!r} (got {fixed.get(s)!r})")
        extra = sorted(set(fixed) - set(state_vars))
        if extra:
            raise InputError(f"placement names {extra[0]!r}, which is not "
                             f"a declared state variable")
    flows = {}
    for (u, v), vol in sorted(topo.demands.items()):
        flows[(u, v)] = (vol, tuple(demand.states_for(u, v)))
    return MILPModel(topo=topo, flows=flows, state_vars=state_vars,
                     groups=tuple(order.groups), dep=order.dep,
                     fixed=dict(fixed) if fixed is not None else None)


def _columns(m: MILPModel):
    """Generate the columns of `m`, each once: per moving flow and link its
    R column, with volume/capacity in the objective, and the PS column of
    each variable the flow needs; then the P columns.  The one place the
    modes differ: in TE mode each P column is fixed, to 1 on the switch of
    `m.fixed` and 0 elsewhere."""
    topo = m.topo
    links = sorted(topo.links.items())
    for (u, v), (vol, svars) in m.flows.items():
        if topo.node_of_port(u) == topo.node_of_port(v):
            continue
        for (i, j), link in links:
            yield Column(rname(u, v, i, j), vol / link.capacity, 0.0, 1.0,
                         True)
            for s in svars:
                yield Column(psname(s, u, v, i, j), None, 0.0, 1.0, False)
    for s in m.state_vars:
        for n in topo.nodes:
            lo, hi = ((0.0, 1.0) if m.fixed is None
                      else (float(m.fixed[s] == n),) * 2)
            yield Column(pname(s, n), None, lo, hi, True)


def _rows(m: MILPModel):
    """Generate the constraint rows of `m`: each flow's rows, flow by flow,
    then the capacity, placement and tie rows.  Each row is built on its
    own and kept by no one.  The rows are the same in both modes."""
    topo = m.topo
    nodes = sorted(topo.nodes)
    links = sorted(topo.links)
    in_of: dict = {n: [] for n in nodes}
    out_of: dict = {n: [] for n in nodes}
    for (i, j) in links:
        out_of[i].append((i, j))
        in_of[j].append((i, j))

    def constraint(name, coeffs: dict, sense: str, rhs: float) -> Constraint:
        items = tuple(sorted((k, c) for k, c in coeffs.items() if c != 0.0))
        return Constraint(name, items, sense, float(rhs))

    def net(cols: dict, n) -> dict:
        """In-flow minus out-flow at node n over the link columns `cols`."""
        row = {cols[l]: 1.0 for l in in_of[n]}
        for l in out_of[n]:
            row[cols[l]] = row.get(cols[l], 0.0) - 1.0
        return row

    moving = []                 # (u, v, volume) of flows leaving their switch
    for (u, v), (vol, svars) in m.flows.items():
        src = topo.node_of_port(u)
        snk = topo.node_of_port(v)
        fu, fv = _san(u), _san(v)

        if src == snk:
            # degenerate flow: never leaves its switch, so any needed state
            # must be placed there
            for s in svars:
                yield constraint(f"pin_{_san(s)}_u{fu}_v{fv}",
                                 {pname(s, src): 1.0}, "=", 1.0)
            continue

        moving.append((u, v, vol))
        rvars = {(i, j): rname(u, v, i, j) for (i, j) in links}
        # net flow: one walk from the source to the sink, passing any node
        for n in nodes:
            yield constraint(f"cons_u{fu}_v{fv}_{_san(n)}", net(rvars, n),
                             "=", (n == snk) - (n == src))
        # a node may be entered once per execution phase: stateless flows
        # follow simple paths, stateful flows may detour back for a variable
        # whose prerequisites were satisfied on a later switch
        visits = 1.0 if not svars else float(len(svars) + 1)
        for n in nodes:
            row = {rvars[l]: 1.0 for l in in_of[n]}
            if row:
                yield constraint(f"loop_u{fu}_v{fv}_{_san(n)}", row, "<=",
                                 visits)

        for s in svars:
            fs = _san(s)
            psvars = {l: psname(s, u, v, *l) for l in links}
            for (i, j), name in psvars.items():
                yield constraint(
                    f"pslim_{fs}_u{fu}_v{fv}_{_san(i)}_{_san(j)}",
                    {name: 1.0, rvars[(i, j)]: -1.0}, "<=", 0.0)
            # a switch hosting s must see the whole flow (waived at the
            # ingress switch, where the flow starts out)
            for n in nodes:
                if n == src:
                    continue
                row = {rvars[l]: 1.0 for l in in_of[n]}
                row[pname(s, n)] = -1.0
                yield constraint(f"cover_{fs}_u{fu}_v{fv}_{_san(n)}", row,
                                 ">=", 0.0)
            # processed-flow conservation: s's owner processes the flow,
            # and all of it arrives at the sink processed
            for n in nodes:
                yield constraint(f"pcons_{fs}_u{fu}_v{fv}_{_san(n)}",
                                 {**net(psvars, n), pname(s, n): 1.0}, "=",
                                 n == snk)

        # ordering: when the flow needs both s and t with s before t, the
        # switch hosting t must only see flow that already passed s
        for (s, t) in sorted(m.dep):
            if s not in svars or t not in svars:
                continue
            for n in nodes:
                row = {psname(s, u, v, i, j): 1.0 for (i, j) in in_of[n]}
                row[pname(s, n)] = 1.0
                row[pname(t, n)] = -1.0
                yield constraint(
                    f"ord_{_san(s)}_{_san(t)}_u{fu}_v{fv}_{_san(n)}",
                    row, ">=", 0.0)

    if moving:
        for (i, j) in links:
            yield constraint(
                f"cap_{_san(i)}_{_san(j)}",
                {rname(u, v, i, j): vol for u, v, vol in moving}, "<=",
                topo.links[(i, j)].capacity)

    for s in m.state_vars:
        yield constraint(f"place_{_san(s)}",
                         {pname(s, n): 1.0 for n in nodes}, "=", 1.0)
    for group in m.groups:
        for s, t in itertools.combinations(group, 2):
            for n in nodes:
                yield constraint(f"tied_{_san(s)}_{_san(t)}_{_san(n)}",
                                 {pname(s, n): 1.0, pname(t, n): -1.0},
                                 "=", 0.0)


# ---------------------------------------------------------------- export

def _fmt_terms(coeffs) -> str:
    parts = []
    for var, c in coeffs:
        if not parts:
            parts.append(f"{c:.12g} {var}" if c >= 0
                         else f"- {-c:.12g} {var}")
        elif c >= 0:
            parts.append(f"+ {c:.12g} {var}")
        else:
            parts.append(f"- {-c:.12g} {var}")
    return " ".join(parts) if parts else "0 "


def export_lp(m: MILPModel) -> str:
    cols = sorted(iter(m.columns), key=lambda c: c.name)
    out = ["Minimize"]
    obj_terms = tuple((c.name, c.cost) for c in cols if c.cost is not None)
    out.append(" obj: " + _fmt_terms(obj_terms))
    out.append("Subject To")
    for c in sorted(iter(m.constraints), key=lambda c: c.name):
        out.append(f" {c.name}: {_fmt_terms(c.coeffs)} {c.sense} "
                   f"{c.rhs:.12g}")
    out.append("Bounds")
    for c in cols:
        out.append(f" {c.lo:.12g} <= {c.name} <= {c.hi:.12g}")
    binaries = [f" {c.name}" for c in cols if c.binary]
    if binaries:
        out += ["Binary", *binaries]
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- solve

def _adjacency(topo) -> dict:
    """Node -> [(next node, capacity)] over its out-links in link order:
    the one adjacency that the router's length table and the search's
    bounds (and so its shortlists) are built from."""
    return {n: [(l.dst, l.capacity) for l in topo.out_links(n)]
            for n in topo.nodes}


def _distances(lengths: dict, source: str) -> dict:
    """Cheapest distance from `source` to every reachable node, where
    `lengths` maps each node to its [(next node, link length)]."""
    dist = {source: 0.0}
    pq = [(0.0, source)]
    while pq:
        d, n = heapq.heappop(pq)
        if d > dist[n]:
            continue
        for m, w in lengths[n]:
            d2 = d + w
            if d2 < dist.get(m, float("inf")):
                dist[m] = d2
                heapq.heappush(pq, (d2, m))
    return dist


# The router, `exec_positions` and the bounds ask for the same few sets of
# variables again and again.  Bounded; callers must not mutate the result.
@lru_cache(maxsize=1024)
def _preds(needed: frozenset, dep: frozenset) -> dict:
    """Variable -> the variables of `needed` that must be visited first."""
    return {s: frozenset(a for (a, b) in dep if b == s and a in needed)
            for s in needed}


def exec_positions(path, needed, owner: dict, dep) -> dict:
    """Position along the walk `path` where each variable of `needed`
    runs: the first visit to its owner at which every prerequisite has
    already run.  A variable that never runs is left out."""
    preds = _preds(frozenset(needed), dep)
    done: dict = {}
    for i, n in enumerate(path):
        changed = True
        while changed:
            changed = False
            for s in needed:
                if s not in done and owner.get(s) == n \
                        and all(p in done for p in preds[s]):
                    done[s] = i
                    changed = True
    return done


def _length(capacity: float, load: float) -> float:
    """The router's length of a link: (1/c)(1 + load/c)."""
    return (1.0 / capacity) * (1.0 + load / capacity)


def _length_table(topo, loads: dict) -> dict:
    """Node -> [[next node, length]] over its out-links in link order, each
    length `_length` of the link's capacity and its load in `loads`."""
    return {n: [[m, _length(c, loads.get((n, m), 0.0))] for m, c in out]
            for n, out in _adjacency(topo).items()}


def _segment(table: dict, src: str, dst: str, used: set):
    """Cheapest src->dst path over links not in `used`, with the lengths
    of `table` (see `_length_table`); deterministic: the heap orders
    (distance, node), and a path replaces a node's best only when it is
    shorter by more than 1e-15."""
    heappop, heappush = heapq.heappop, heapq.heappush
    inf = float("inf")
    best = {src: 0.0}
    parent: dict = {src: None}
    pq = [(0.0, src)]
    while pq:
        d, n = heappop(pq)
        if d > best[n]:
            continue
        if n == dst:
            path = []
            while n is not None:
                path.append(n)
                n = parent[n]
            return list(reversed(path)), d
        for m, w in table[n]:
            if used and (n, m) in used:
                continue
            d2 = d + w
            if d2 < best.get(m, inf) - 1e-15:
                best[m] = d2
                parent[m] = n
                heappush(pq, (d2, m))
    return None


def _route(table: dict, src: str, snk: str, needed: frozenset, owner: dict,
           dep: frozenset):
    """Cheapest walk src->snk on which every variable of `needed` runs
    (see `exec_positions`), with the link lengths of `table` (see
    `_length_table`).  The walk may revisit a switch between execution
    phases but never reuses a directed link: the link indicators are
    binary.  For every order of visits to the owners' switches in which
    each visit runs a variable, chain per-phase cheapest paths over the
    links not used yet, and keep the least (cost, walk); a flow that needs
    no variable is one cheapest src->snk path.  Not memoized: the lengths
    follow the current loads, and a candidate's routing must not depend on
    which candidates the search routed before it."""
    if not needed:
        seg = _segment(table, src, snk, set())
        return tuple(seg[0]) if seg else None

    preds = _preds(needed, dep)

    def visit_orders(visits: list):
        done = set(exec_positions(visits, needed, owner, dep))
        if len(done) == len(needed):
            yield visits + [snk]
        for n in sorted({owner[s] for s in needed - done
                         if preds[s] <= done}):
            yield from visit_orders(visits + [n])

    best = None
    for visits in visit_orders([src]):
        used: set = set()
        path = [src]
        total = 0.0
        for tgt in visits[1:]:
            if path[-1] == tgt:
                continue
            seg = _segment(table, path[-1], tgt, used)
            if seg is None:
                break
            nodes, d = seg
            used.update(zip(nodes, nodes[1:]))
            total += d
            path.extend(nodes[1:])
        else:
            if len(exec_positions(path, needed, owner, dep)) == len(needed) \
                    and (best is None or (total, tuple(path)) < best):
                best = (total, tuple(path))
    return best[1] if best else None


def _route_flows(m: MILPModel, placement: dict, flow_keys: list,
                 loads: dict, obj_so_far: float = 0.0,
                 abort_above: float | None = None,
                 rest: list | None = None):
    """Route the given flows (in order) on top of `loads`, mutating it.
    Returns (routing, objective) or None if some flow cannot be routed or
    the running objective already exceeds `abort_above`.  `rest[i]`, when
    given, is a lower bound on what the flows after the i-th add to the
    objective; routing also stops once the running objective plus that
    bound exceeds `abort_above`.  One length table serves every flow: a
    routed flow's volume updates the lengths of the links it crosses."""
    topo = m.topo
    table = _length_table(topo, loads)
    entry = {(n, e[0]): e for n, row in table.items() for e in row}
    routing = {}
    obj = obj_so_far
    for i, (u, v) in enumerate(flow_keys):
        vol, svars = m.flows[(u, v)]
        src = topo.node_of_port(u)
        snk = topo.node_of_port(v)
        if src == snk:
            if any(placement.get(s) != src for s in svars):
                return None
            routing[(u, v)] = (src,)
            continue
        path = _route(table, src, snk, frozenset(svars), placement, m.dep)
        if path is None:
            return None
        routing[(u, v)] = path
        for link in zip(path, path[1:]):
            c = topo.links[link].capacity
            loads[link] = load = loads.get(link, 0.0) + vol
            entry[link][1] = _length(c, load)
            obj += vol / c
        if abort_above is not None and (
                obj > abort_above + 1e-12
                or rest is not None and obj + rest[i] > abort_above + 1e-9):
            return None
    return routing, obj


def overloaded_links(topo, routing: dict) -> list:
    """[((a, b), load, capacity)] for every link whose load under
    `routing` ({(u,v): walk}, each flow carrying its demand in `topo`)
    exceeds its capacity, sorted by link."""
    loads: dict = {}
    for (u, v), path in routing.items():
        vol = topo.demands[(u, v)]
        for a, b in zip(path, path[1:]):
            loads[(a, b)] = loads.get((a, b), 0.0) + vol
    return [(l, load, topo.links[l].capacity)
            for l, load in sorted(loads.items())
            if load > topo.links[l].capacity + 1e-9]


def _flow_order(m: MILPModel) -> list:
    return sorted(m.flows, key=lambda k: (-m.flows[k][0], k))


class _Grid:
    """The placements of itertools.product(*cands): column c holds, per
    placement, the switch cands[c] gives it.  `leg` is the distance
    between two columns in every placement, computed once per grid over
    the two columns' switches and shared by every flow that asks.  The
    flows bounded on one grid map their variables to its columns alike."""

    def __init__(self, dist: dict, cands: list):
        self.dist = dist
        self.cands = list(cands)
        self.radix = [len(c) for c in cands]
        self.size = math.prod(self.radix)
        self._at: dict = {}
        self._legs: dict = {}
        self.prefixes: dict = {}         # see `_Bounds._prefixes`

    def column(self, switch) -> int:
        """A column holding `switch` in every placement: one more column
        of a single switch, which leaves the placements as they are."""
        c = self._at.get(switch)
        if c is None:
            c = self._at[switch] = len(self.cands)
            self.cands.append([switch])
            self.radix.append(1)
        return c

    def leg(self, a: int, b: int) -> list:
        v = self._legs.get((a, b))
        if v is None:
            dist, inf = self.dist, float("inf")
            ca, cb = self.cands[a], self.cands[b]
            if a == b:
                table = [dist[x].get(x, inf) for x in ca]
            elif a < b:
                table = [dist[x].get(y, inf) for x in ca for y in cb]
            else:
                table = [dist[x].get(y, inf) for y in cb for x in ca]
            v = self._legs[(a, b)] = _spread(table, {a, b}, self.radix)
        return v


def _spread(table: list, keep, radix: list) -> list:
    """`table`, a list over the product of radix[p] for the positions p in
    `keep`, as a list over the product of every radix: each element takes
    the entry of its digits at `keep`.  Built from the last position out,
    one block per digit prefix at `keep`."""
    blocks = [[x] for x in table]
    for p in reversed(range(len(radix))):
        r = radix[p]
        if p in keep:
            blocks = [list(itertools.chain.from_iterable(blocks[i:i + r]))
                      for i in range(0, len(blocks), r)]
        else:
            blocks = [b * r for b in blocks]
    return blocks[0]


def _least(vectors: list, size: int) -> list:
    """Entry-wise least of `vectors`, all inf when there are none."""
    if not vectors:
        return [float("inf")] * size
    out = vectors[0]
    for v in vectors[1:]:
        out = [x if x <= y else y for x, y in zip(out, v)]
    return out


class _Bounds:
    """Admissible lower bounds on what a flow adds to the objective.

    A routed flow walks from its ingress switch through the owners of its
    variables, in an order that respects their dependencies, to its egress
    switch, and adds volume/capacity for every link it crosses.  No routing
    of it is therefore cheaper than its volume times the cheapest chain
    src -> owner(s1) -> ... -> owner(sk) -> snk over those orders, with
    1/capacity as the length of a link.

    `table` finds that chain for every placement of a product at once, by
    dynamic programming over the order ideals of the flow's variables
    (Held-Karp restricted to ideals): the state (ideal I, last variable s)
    holds the cheapest prefix that runs the variables of I and ends at s,
    and extends to (I + {t}, t) by one distance.  Rounding is monotone, so
    adding after taking the least gives the same float as taking the least
    after adding: every entry equals the least over the orders of the
    chain summed left to right from the source."""

    def __init__(self, m: MILPModel):
        topo = m.topo
        lengths = {n: [(nxt, 1.0 / c) for nxt, c in out]
                   for n, out in _adjacency(topo).items()}
        self.dist = {n: _distances(lengths, n) for n in sorted(topo.nodes)}
        self.dep = m.dep
        self.flows = {k: (vol, topo.node_of_port(k[0]),
                          topo.node_of_port(k[1]), svars)
                      for k, (vol, svars) in m.flows.items()}
        self._layers: dict = {}

    def _ideals(self, needed: frozenset) -> list:
        """The DP's states over `needed`, one layer per ideal size: layer k
        lists (t, prev) for each state (ideal of k + 1 variables, last
        variable t), where prev indexes the states of layer k - 1 that it
        extends.  Built once per set of variables."""
        layers = self._layers.get(needed)
        if layers is None:
            preds = _preds(needed, self.dep)
            states = [(frozenset({t}), t) for t in sorted(needed)
                      if preds[t] <= {t}]
            layers = [[(t, ()) for _, t in states]]
            for _ in range(len(needed) - 1):
                grown: dict = {}
                for i, (done, _) in enumerate(states):
                    for t in sorted(needed - done):
                        if preds[t] - {t} <= done:
                            grown.setdefault((done | {t}, t), []).append(i)
                states = list(grown)
                layers.append([(t, tuple(prev))
                               for (_, t), prev in grown.items()])
            self._layers[needed] = layers
        return layers

    def table(self, key, grid: _Grid, col: dict) -> list:
        """Bound for flow `key` under every placement of `grid`, where its
        variable s sits on column col[s]; inf where no walk exists, which
        makes the placement infeasible."""
        vol, src, snk, svars = self.flows[key]
        here, there = grid.column(src), grid.column(snk)
        if svars:
            last, cur = self._prefixes(grid, col, here, frozenset(svars))
            best = _least([list(map(add, v, grid.leg(c, there)))
                           for v, c in zip(cur, last)], grid.size)
        else:
            best = grid.leg(here, there)
        inf = float("inf")
        return [vol * x if x < inf else x for x in best]

    def _prefixes(self, grid: _Grid, col: dict, here: int,
                  needed: frozenset) -> tuple:
        """The last layer of the DP from column `here` over `needed`: the
        column of each state's last variable, and its cheapest prefix per
        placement.  Only the current layer is kept while it runs; the
        result is kept on `grid`, for every flow from the same switch that
        needs the same variables."""
        memo = grid.prefixes.get((here, needed))
        if memo is None:
            layers = self._ideals(needed)
            last = [col[t] for t, _ in layers[0]]
            cur = [grid.leg(here, c) for c in last]
            for layer in layers[1:]:
                nxt = [col[t] for t, _ in layer]
                cur = [_least([cur[i] if last[i] == c else
                               list(map(add, cur[i], grid.leg(last[i], c)))
                               for i in prev], grid.size)
                       for c, (_, prev) in zip(nxt, layer)]
                last = nxt
            memo = grid.prefixes[(here, needed)] = (last, cur)
        return memo

    def flow(self, key, placement: dict) -> float:
        """Bound for flow `key` under `placement`."""
        return self.table(key, *self._point(placement))[0]

    def suffixes(self, flow_keys: list, placement: dict) -> list:
        """Entry i bounds the flows after the i-th: `rest` of
        `_route_flows`."""
        grid, col = self._point(placement)
        out = [0.0] * len(flow_keys)
        for i in range(len(flow_keys) - 1, 0, -1):
            out[i - 1] = out[i] + self.table(flow_keys[i], grid, col)[0]
        return out

    def _point(self, placement: dict) -> tuple:
        """A grid of the one placement `placement`, with a column per
        variable, and the column of each variable."""
        names = list(placement)
        return (_Grid(self.dist, [[placement[s]] for s in names]),
                {s: c for c, s in enumerate(names)})

    def candidates(self, flow_keys: list, groups: list, cand: list,
                   base: float) -> list:
        """(base + bound of `flow_keys`, index) for every candidate of
        itertools.product(*cand), where cand[g] lists the switches group
        g may take.  A flow's bound depends only on the switches of the
        groups its variables belong to, so flows are summed per set of
        groups into a table over those groups' switches, and a
        candidate's bound adds one table entry per set."""
        group_of = {s: g for g, members in enumerate(groups) for s in members}
        by_set: dict = {}
        for k in flow_keys:
            gs = tuple(sorted({group_of[s] for s in self.flows[k][3]}))
            by_set.setdefault(gs, []).append(k)
        radix = [len(c) for c in cand]
        out = [base] * math.prod(radix)
        for gs, keys in by_set.items():
            grid = _Grid(self.dist, [cand[g] for g in gs])
            col = {s: c for c, g in enumerate(gs) for s in groups[g]}
            table = list(map(sum, zip(*[self.table(k, grid, col)
                                        for k in keys])))
            out = list(map(add, out, _spread(table, gs, radix)))
        return list(zip(out, itertools.count()))


def _nth_combo(i: int, cand: list) -> list:
    """The i-th element of itertools.product(*cand)."""
    out = []
    for c in reversed(cand):
        i, r = divmod(i, len(c))
        out.append(c[r])
    return out[::-1]


def solve_builtin(m: MILPModel, budget: int = 4096) -> Solution:
    """Search placements of tied groups over switches (exhaustively when
    the space fits in `budget`, otherwise over each group's
    `_shortlist_size` best switches, ranked by detour times demand),
    routing flows sequentially for each candidate.

    Candidates are visited best-first by an admissible lower bound on
    their objective (`_Bounds`), tabulated for every candidate before any
    is routed: one table per flow over the switches of the groups it
    touches, filled by dynamic programming over the order ideals of its
    variables.  Ties go in enumeration order, and the search
    stops at the first whose bound exceeds the best objective found.  A
    candidate's routing also stops once its running objective plus the
    bound of its unrouted flows exceeds it.  Only a strictly larger bound
    prunes, so the answer is the least (objective, sorted placement) over
    every candidate, as full enumeration would give.  A TE-mode model
    (`m.fixed` set) is routed under its placement, without a search.
    Deterministic.  A `budget` below 1 is an `InputError`."""
    if budget < 1:
        raise InputError(f"search budget {budget} is below 1")
    topo = m.topo
    nodes = sorted(topo.nodes)

    if m.fixed is not None:
        placement = dict(m.fixed)
        loads: dict = {}
        r = _route_flows(m, placement, _flow_order(m), loads)
        if r is None:
            raise InfeasibleError(
                "no order-respecting routing under the fixed placement")
        routing, obj = r
        return Solution(placement, routing, obj,
                        exact=not overloaded_links(topo, routing))

    groups = m.groups
    total = len(nodes) ** len(groups) if groups else 1
    exhaustive = total <= budget

    bounds = _Bounds(m)
    if exhaustive:
        cand = [nodes] * len(groups)
    else:
        short = _shortlists(bounds, groups, nodes, budget)
        cand = [short[g] for g in range(len(groups))]

    # flows whose path never depends on placement can be routed once
    flows = _flow_order(m)
    base_loads: dict = {}
    base_routing: dict = {}
    base_obj = 0.0
    if not exhaustive:
        r = _route_flows(m, {}, [k for k in flows if not m.flows[k][1]],
                         base_loads)
        if r is None:
            raise InfeasibleError("a stateless flow has no path")
        base_routing, base_obj = r
        flows = [k for k in flows if m.flows[k][1]]

    scored = bounds.candidates(flows, groups, cand, base_obj)
    scored.sort()
    best = None
    examined = 0
    for bound, i in scored:
        if bound == float("inf") or (best is not None
                                     and bound > best[0][0] + 1e-9):
            break
        examined += 1
        placement = {}
        for gi, node in enumerate(_nth_combo(i, cand)):
            for s in groups[gi]:
                placement[s] = node
        r = _route_flows(m, placement, flows, dict(base_loads),
                         obj_so_far=base_obj,
                         abort_above=best[0][0] if best else None,
                         rest=bounds.suffixes(flows, placement))
        if r is None:
            continue
        routing, obj = r
        key = (obj, tuple(sorted(placement.items())))
        if best is None or key < best[0]:
            best = (key, placement, {**base_routing, **routing})
    if best is None:
        raise InfeasibleError("no placement admits an order-respecting "
                              "routing for every flow")
    (obj, _), placement, routing = best
    return Solution(placement, routing, obj,
                    exact=exhaustive and not overloaded_links(topo, routing),
                    candidates=len(scored), examined=examined)


def _shortlist_size(budget: int, groups: int, switches: int) -> int:
    """The most switches k, at least 1 and at most `switches`, such that
    k ** groups <= budget, in integer arithmetic: a float root falls short
    (64 ** (1/3) is 3.9999999999999996)."""
    k = 1
    while k < switches and (k + 1) ** groups <= budget:
        k += 1
    return k


def _shortlists(bounds: _Bounds, groups: list, nodes: list,
                budget: int) -> dict:
    """Per-group candidate switches ranked by detour times demand, the
    first `_shortlist_size` of them.  A detour src -> n -> snk is measured
    in the bounds' distances (`_Bounds.dist`, 1/capacity per link): on
    equal capacities that ranks switches as hop counts would, and on
    unequal ones it follows the objective's link length."""
    k = _shortlist_size(budget, len(groups), len(nodes))
    out = {}
    for gi, group in enumerate(groups):
        gset = set(group)
        score = {n: 0.0 for n in nodes}
        for vol, src, snk, svars in bounds.flows.values():
            if not gset & set(svars):
                continue
            for n in nodes:
                d1 = bounds.dist[src].get(n)
                d2 = bounds.dist[n].get(snk)
                if d1 is None or d2 is None:
                    score[n] += 1e9
                else:
                    score[n] += max(vol, 1e-9) * (d1 + d2)
        ranked = sorted(nodes, key=lambda n: (score[n], n))
        out[gi] = ranked[:k]
    return out


# ---------------------------------------------------------------- check

CHECK_TOL = 1e-9            # slack `check_solution` allows on rows and bounds


def _routing_values(m: MILPModel, placement: dict, routing: dict) -> dict:
    """Expand (Placement, Routing) into a full variable assignment.  A
    walk adds 1 to R per crossing of a link, and has passed a variable
    (PS) on every link after the position where `exec_positions` runs
    it."""
    vals: dict = {}
    for s in m.state_vars:
        for n in sorted(m.topo.nodes):
            vals[pname(s, n)] = 1.0 if placement.get(s) == n else 0.0
    for (u, v), path in routing.items():
        _, svars = m.flows.get((u, v), (0.0, ()))
        ran = exec_positions(path, svars, placement, m.dep)
        for k, (a, b) in enumerate(zip(path, path[1:])):
            key = rname(u, v, a, b)
            vals[key] = vals.get(key, 0.0) + 1.0
            for s, i in ran.items():
                if i <= k:
                    k2 = psname(s, u, v, a, b)
                    vals[k2] = vals.get(k2, 0.0) + 1.0
    return vals


def check_solution(m: MILPModel, placement: dict, routing: dict) -> list:
    """Independent re-verification of a placement and routing against the
    model, in one pass over its rows and one over its columns.  Violations
    are the rows that do not hold (capacity rows like any other), the
    values outside their column's bounds (a link crossed twice breaks its
    binary R column; in TE mode, a placement other than `m.fixed` breaks
    its P columns) and the values on columns the model lacks, such as a
    hop over a non-link.  Sorted by name; empty means ok."""
    vals = _routing_values(m, placement, routing)
    out = []
    for c in m.constraints:
        lhs = sum(coef * vals.get(var, 0.0) for var, coef in c.coeffs)
        ok = (lhs <= c.rhs + CHECK_TOL if c.sense == "<=" else
              lhs >= c.rhs - CHECK_TOL if c.sense == ">=" else
              abs(lhs - c.rhs) <= CHECK_TOL)
        if not ok:
            out.append(Violation(c.name, lhs, c.sense, c.rhs))
    for c in m.columns:
        x = vals.pop(c.name, 0.0)
        if x > c.hi + CHECK_TOL:
            out.append(Violation(c.name, x, "<=", c.hi))
        elif x < c.lo - CHECK_TOL:
            out.append(Violation(c.name, x, ">=", c.lo))
    # what is left names no column: the model holds it at 0
    out.extend(Violation(name, x, "=", 0.0) for name, x in vals.items())
    return sorted(out, key=lambda v: v.constraint)


# ---------------------------------------------------------------- JSON

def routing_to_json(routing: dict) -> list:
    return [{"u": u, "v": v, "nodes": list(routing[(u, v)])}
            for (u, v) in sorted(routing)]


def routing_from_json(rows: list) -> dict:
    """Inverse of `routing_to_json`; ValueError for a walk that is not a
    non-empty list of switch names or a flow listed twice."""
    out: dict = {}
    for r in rows:
        u, v, nodes = r["u"], r["v"], r["nodes"]
        if not (isinstance(nodes, list) and nodes
                and all(isinstance(n, str) for n in nodes)):
            raise ValueError(f"flow ({u},{v}): walk {nodes!r} is not a "
                             "non-empty list of switch names")
        if (u, v) in out:
            raise ValueError(f"flow ({u},{v}) is listed twice")
        out[(u, v)] = tuple(nodes)
    return out
