"""Shared test utilities: the semantics equations as an isinstance
chain, the router's former closure-cost Dijkstra, a Builder whose
sequencing split restricts both halves and joins them as the split did
before its ITE walk and decides a test wherever it meets one, the
placement search's former enumeration of dependency orders and its
former per-switch shortlist loop, a diagram
builder without computed tables, a program's flow demand map as a
compile's P1-P3 give it, the benchmark workloads' programs, a
brute-force diagram walker (independent of
the compiler's own machinery), a random policy generator over a
small universe of fields, values, and state variables, a line
topology with two ports on one switch, random packets and the canonical
forms in which the simulator's and the interpreter's emissions and
cells are compared, and a probe that reads the simulator's state after
one interleaved schedule."""

import heapq
import importlib.util
import itertools
import pathlib
import random
import sys

from snapnet import deps, interp, lang, opt, psm, rulegen, simnet, xfdd
from snapnet.topo import Link, Node, Topology
from snapnet.errors import EvalError, RaceError, UnsupportedCompositionError
from snapnet.values import canon_key, test_match, values_equal


# ---------------------------------------------------------------- reference

def reference_expr(e, pkt):
    """An expression's value on a packet, as one isinstance chain."""
    if isinstance(e, lang.Lit):
        return e.value
    if isinstance(e, lang.FieldRef):
        if e.name not in pkt:
            raise EvalError(f"unknown field {e.name!r}")
        return pkt[e.name]
    if isinstance(e, lang.TupleExpr):
        return tuple(reference_expr(x, pkt) for x in e.items)
    raise EvalError(f"not an expression: {e!r}")


def reference_index(e, pkt) -> tuple:
    v = reference_expr(e, pkt)
    return v if isinstance(e, lang.TupleExpr) else (v,)


def reference_eval(p, m, pkt):
    """The semantics equations as one isinstance chain, walked on every
    call, that recomputes each result packet's key: the specification
    that `interp.eval` and `interp.eval_program`, which compile a policy
    into closures and hand each packet's key down, are checked against."""
    def one(q):
        return {interp.pkt_key(q): q}

    R = interp.EvalResult
    if isinstance(p, lang.Id):
        return R(m, one(pkt), ())
    if isinstance(p, lang.Drop):
        return R(m, {}, ())
    if isinstance(p, lang.Test):
        if p.field not in pkt:
            raise EvalError(f"unknown field {p.field!r}")
        ok = test_match(pkt[p.field], p.value)
        return R(m, one(pkt) if ok else {}, ())
    if isinstance(p, lang.StateTest):
        cell = m.get(p.var, reference_index(p.index, pkt))
        ok = values_equal(cell, reference_expr(p.rhs, pkt))
        return R(m, one(pkt) if ok else {}, (("R", p.var),))
    if isinstance(p, lang.Mod):
        if p.field not in pkt:
            raise EvalError(f"unknown field {p.field!r}")
        new = dict(pkt)
        new[p.field] = p.value
        return R(m, one(new), ())
    if isinstance(p, lang.StateSet):
        m2 = m.set(p.var, reference_index(p.index, pkt),
                   reference_expr(p.rhs, pkt))
        return R(m2, one(pkt), (("W", p.var),))
    if isinstance(p, (lang.Incr, lang.Decr)):
        idx = reference_index(p.index, pkt)
        delta = 1 if isinstance(p, lang.Incr) else -1
        m2 = m.set(p.var, idx, interp._incr_value(m.get(p.var, idx), delta))
        return R(m2, one(pkt), (("W", p.var),))
    if isinstance(p, lang.Neg):
        r = reference_eval(p.p, m, pkt)
        if r is interp.UNDEFINED:
            return interp.UNDEFINED
        mine = one(pkt)
        out = {k: v for k, v in mine.items() if k not in r.packets}
        return R(m, out, r.log)
    if isinstance(p, lang.Or):
        r1 = reference_eval(p.p, m, pkt)
        r2 = reference_eval(p.q, m, pkt)
        if r1 is interp.UNDEFINED or r2 is interp.UNDEFINED:
            return interp.UNDEFINED
        return R(m, {**r1.packets, **r2.packets}, r1.log + r2.log)
    if isinstance(p, lang.And):
        r1 = reference_eval(p.p, m, pkt)
        r2 = reference_eval(p.q, m, pkt)
        if r1 is interp.UNDEFINED or r2 is interp.UNDEFINED:
            return interp.UNDEFINED
        out = {k: v for k, v in r1.packets.items() if k in r2.packets}
        return R(m, out, r1.log + r2.log)
    if isinstance(p, lang.Par):
        r1 = reference_eval(p.p, m, pkt)
        r2 = reference_eval(p.q, m, pkt)
        if r1 is interp.UNDEFINED or r2 is interp.UNDEFINED:
            return interp.UNDEFINED
        if not interp.consistent(r1.log, r2.log):
            return interp.UNDEFINED
        return R(interp.merge(m, r1.store, r2.store),
                 {**r1.packets, **r2.packets}, r1.log + r2.log)
    if isinstance(p, lang.Seq):
        r1 = reference_eval(p.p, m, pkt)
        if r1 is interp.UNDEFINED:
            return interp.UNDEFINED
        runs = []
        for k in sorted(r1.packets):
            r = reference_eval(p.q, r1.store, r1.packets[k])
            if r is interp.UNDEFINED:
                return interp.UNDEFINED
            runs.append(r)
        for i in range(len(runs)):
            for j in range(i + 1, len(runs)):
                if not interp.consistent(runs[i].log, runs[j].log):
                    return interp.UNDEFINED
        if not runs:
            return R(r1.store, {}, r1.log)
        packets = {}
        log = r1.log
        for r in runs:
            packets.update(r.packets)
            log = log + r.log
        return R(interp.merge_many(r1.store, [r.store for r in runs]),
                 packets, log)
    if isinstance(p, lang.If):
        rc = reference_eval(p.cond, m, pkt)
        if rc is interp.UNDEFINED:
            return interp.UNDEFINED
        branch = p.then if rc.packets else p.els
        rb = reference_eval(branch, m, pkt)
        if rb is interp.UNDEFINED:
            return interp.UNDEFINED
        return R(rb.store, rb.packets, rc.log + rb.log)
    if isinstance(p, lang.Atomic):
        return reference_eval(p.p, m, pkt)
    raise EvalError(f"not a policy: {p!r}")


# ---------------------------------------------------------------- router

def reference_segment(topo, src: str, dst: str, used: set, cost):
    """Cheapest src->dst path over links not in `used`, with `cost(link)`
    asked again for every link it relaxes, as `opt._segment` was written
    before it read a length table."""
    best = {src: 0.0}
    parent: dict = {src: None}
    pq = [(0.0, src)]
    while pq:
        d, n = heapq.heappop(pq)
        if d > best.get(n, float("inf")):
            continue
        if n == dst:
            path = []
            while n is not None:
                path.append(n)
                n = parent[n]
            return list(reversed(path)), d
        for l in topo.out_links(n):
            if (n, l.dst) in used:
                continue
            d2 = d + cost(l)
            if d2 < best.get(l.dst, float("inf")) - 1e-15:
                best[l.dst] = d2
                parent[l.dst] = n
                heapq.heappush(pq, (d2, l.dst))
    return None


def reference_route(topo, src: str, snk: str, needed: frozenset,
                    owner: dict, dep: frozenset, loads: dict):
    """`opt._route` as it was before the length table: every flow, stateless
    or not, chains `reference_segment` over every visit order, with a link
    cost computed from `loads` on each relaxation."""
    def cost(link) -> float:
        c = link.capacity
        return (1.0 / c) * (1.0 + loads.get((link.src, link.dst), 0.0) / c)

    preds = opt._preds(needed, dep)

    def visit_orders(visits: list):
        done = set(opt.exec_positions(visits, needed, owner, dep))
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
            seg = reference_segment(topo, path[-1], tgt, used, cost)
            if seg is None:
                break
            nodes, d = seg
            used.update(zip(nodes, nodes[1:]))
            total += d
            path.extend(nodes[1:])
        else:
            if len(opt.exec_positions(path, needed, owner, dep)) \
                    == len(needed) \
                    and (best is None or (total, tuple(path)) < best):
                best = (total, tuple(path))
    return best[1] if best else None


def reference_route_flows(m, placement: dict, flow_keys: list, loads: dict):
    """The routing loop of `opt._route_flows`, without its early abort,
    over `reference_route`: route the flows in order on top of `loads`,
    mutating it.  (routing, objective), or None at the first flow that
    cannot be routed."""
    topo = m.topo
    routing = {}
    obj = 0.0
    for (u, v) in flow_keys:
        vol, svars = m.flows[(u, v)]
        src = topo.node_of_port(u)
        snk = topo.node_of_port(v)
        if src == snk:
            if any(placement.get(s) != src for s in svars):
                return None
            routing[(u, v)] = (src,)
            continue
        path = reference_route(topo, src, snk, frozenset(svars), placement,
                               m.dep, loads)
        if path is None:
            return None
        routing[(u, v)] = path
        for a, b in zip(path, path[1:]):
            loads[(a, b)] = loads.get((a, b), 0.0) + vol
            obj += vol / topo.links[(a, b)].capacity
    return routing, obj


# ---------------------------------------------------------------- bounds

def reference_dep_orders(needed: frozenset, preds: dict):
    """Every order of the variables in `needed` that lists each one after
    its prerequisites in `preds` (other than itself), in lexicographic
    order: a prefix grows by each variable, in sorted order, whose
    prerequisites it already holds.  `opt._Bounds` enumerated these before
    it took the least chain by dynamic programming over order ideals."""
    def grow(prefix: tuple, done: frozenset):
        if len(prefix) == len(needed):
            yield prefix
        for s in sorted(needed - done):
            if preds[s] - {s} <= done:
                yield from grow(prefix + (s,), done | {s})
    return grow((), frozenset())


def reference_distances(topo) -> dict:
    """Switch -> {switch: cheapest distance} with 1/capacity as the length
    of a link, as `opt._Bounds` kept them before the dynamic program: a
    plain Dijkstra per source, with none of the code it checks."""
    def distances(source: str) -> dict:
        dist = {source: 0.0}
        pq = [(0.0, source)]
        while pq:
            d, n = heapq.heappop(pq)
            if d > dist[n]:
                continue
            for l in topo.out_links(n):
                d2 = d + 1.0 / l.capacity
                if d2 < dist.get(l.dst, float("inf")):
                    dist[l.dst] = d2
                    heapq.heappush(pq, (d2, l.dst))
        return dist

    return {n: distances(n) for n in sorted(topo.nodes)}


def reference_flow_bound(m, dist, key, placement: dict) -> float:
    """`opt._Bounds.flow` as it was written before the dynamic program:
    the least chain src -> owner(s1) -> ... -> snk over every dependency
    order of the flow's variables, each summed left to right, times the
    flow's volume; inf when no walk exists.  `dist` is
    `reference_distances(m.topo)`."""
    vol, svars = m.flows[key]
    src = m.topo.node_of_port(key[0])
    snk = m.topo.node_of_port(key[1])
    needed = frozenset(svars)
    best = float("inf")
    for order in reference_dep_orders(needed, opt._preds(needed, m.dep)):
        total, cur = 0.0, src
        for s in order:
            total += dist[cur].get(placement[s], float("inf"))
            cur = placement[s]
        best = min(best, total + dist[cur].get(snk, float("inf")))
    return best if best == float("inf") else vol * best


def reference_candidates(m, dist, flow_keys: list, groups: list,
                         cand: list, base: float) -> list:
    """`opt._Bounds.candidates` as it was written before the dynamic
    program: one `reference_flow_bound` per flow and placement of the
    groups it touches, summed per set of groups, then per candidate."""
    group_of = {s: g for g, members in enumerate(groups) for s in members}
    by_set: dict = {}
    for k in flow_keys:
        gs = tuple(sorted({group_of[s] for s in m.flows[k][1]}))
        by_set.setdefault(gs, []).append(k)
    tables = []
    for gs, keys in by_set.items():
        table = []
        for combo in itertools.product(*(cand[g] for g in gs)):
            placement = {s: n for g, n in zip(gs, combo) for s in groups[g]}
            table.append(sum(reference_flow_bound(m, dist, k, placement)
                             for k in keys))
        tables.append((gs, table))
    radix = [len(c) for c in cand]
    out = []
    for i, digits in enumerate(itertools.product(*map(range, radix))):
        bound = base
        for gs, table in tables:
            j = 0
            for g in gs:
                j = j * radix[g] + digits[g]
            bound += table[j]
        out.append((bound, i))
    return out


def reference_shortlists(bounds, groups: list, nodes: list,
                         budget: int) -> dict:
    """`opt._shortlists` as it was written before it scored every switch
    of a flow in one list pass: a loop over the flows of each group and,
    per flow, over the switches, adding each one's detour to a dict of
    scores."""
    k = opt._shortlist_size(budget, len(groups), len(nodes))
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


# ---------------------------------------------------------------- join

class RestrictJoinBuilder(xfdd.Builder):
    """A Builder that joins as the Builder did before its split put its
    test over the halves as they were built and before the conditional
    walked its predicate; kept only to check the Builder against.
      * The sequencing split restricts each half to its half of t and
        joins them by unchecked union, or, where restricting would only
        put t on top of both halves (`_lead`), puts t on top of both with
        the drop leaf restrict gives the other half joined into every
        leaf.
      * `if a then p else q` is `(a;p) + (!a;q)`: both sequenced, joined
        by unchecked union, and `!a` flips each id leaf to drop and each
        drop leaf to id.
      * `+` keeps a bare drop beside other outcomes.
      * A test is decided where it is met: `_ctx2` rules out a side only
        when adding its fact contradicts the path facts, the pair walk
        first refines each operand's top under them (`refine`), and the
        split leaves a test the facts imply to the refining join."""

    def __init__(self, prog, order):
        super().__init__(prog, order)
        self._drop_memo: dict = {}  # node -> node + drop

    def _translate(self, p):
        if isinstance(p, lang.Neg):
            return self.neg(self._translate(p.p))
        if isinstance(p, lang.If):
            dc = self._translate(p.cond)
            dt = self.seq(dc, self._translate(p.then))
            de = self.seq(self.neg(dc), self._translate(p.els))
            return self._apply(dt, de, self.empty_ctx(), frozenset.union)
        return super()._translate(p)

    def neg(self, d: int) -> int:
        def flip(elems):
            elems = self._merge_by_effect(elems)
            if elems == {()}:
                return {xfdd.DROP_SEQ}
            if elems == {xfdd.DROP_SEQ}:
                return {()}
            raise ValueError("negation of a non-predicate diagram")

        return self._map_leaves(d, flip)

    def plus(self, d1: int, d2: int) -> int:
        d = self._apply(self._annotate(d1), self._annotate(d2),
                        self.empty_ctx(), self._join)
        return self._map_leaves(d, lambda elems: {
            e.atoms if isinstance(e, xfdd.AnnotatedSeq) else e
            for e in elems})

    def _ctx2(self, ctx, t):
        try:
            hi = ctx.add(t, True)
        except xfdd.Contradiction:
            hi = None
        try:
            lo = ctx.add(t, False)
        except xfdd.Contradiction:
            lo = None
        if hi is None and lo is None:
            raise xfdd.Contradiction(xfdd.format_test(t))
        return hi, lo

    def refine(self, d: int, ctx) -> int:
        a = self.arena
        while not a.is_leaf(d):
            dec = ctx.imply(a.test_of(d))
            if dec is None:
                return d
            d = a.hi(d) if dec else a.lo(d)
        return d

    def _apply(self, d1, d2, ctx, leaves):
        return super()._apply(self.refine(d1, ctx), self.refine(d2, ctx),
                              ctx, leaves)

    def _split(self, t, ctx, fhi, flo):
        chi, clo = self._ctx2(ctx, t)
        if chi is None:
            return flo(clo)
        if clo is None:
            return fhi(chi)
        hi, lo = fhi(chi), flo(clo)
        led = self._lead(t, ctx, hi, lo)
        if led is not None:
            return led
        return self._apply(self.restrict(hi, t, True),
                           self.restrict(lo, t, False), ctx,
                           frozenset.union)

    def _tops(self, t, d: int) -> bool:
        """restrict(d, t, _) would only put t on top of d."""
        n = self.arena.nodes[d]
        if n[0] == "L":
            return (isinstance(t, xfdd.TStateTest)
                    or not xfdd._pure_drop_elems(n[1]))
        return self.key(t) < self.key(n[1])

    def _lead(self, t, ctx, hi: int, lo: int):
        """The restrict-and-join of hi and lo when t is open under ctx and
        restrict would only put t on top of each; None otherwise."""
        if (ctx.imply(t) is not None
                or not (self._tops(t, hi) and self._tops(t, lo))):
            return None
        return self.arena.branch(t, self._with_drop(hi),
                                 self._with_drop(lo))

    def _with_drop(self, d: int) -> int:
        """d with every leaf joined with the drop leaf."""
        return self._map_leaves(d, lambda elems: elems | {xfdd.DROP_SEQ},
                                self._drop_memo)

    def restrict(self, d: int, t, polarity: bool) -> int:
        """d where t has `polarity`, the drop leaf elsewhere, with t at
        its place in the test order."""
        a = self.arena
        dl = self.drop_leaf()

        def wrap(x: int) -> int:
            return (a.branch(t, x, dl) if polarity else a.branch(t, dl, x))

        if a.is_leaf(d):
            # drop absorbs field tests, but a state test is a store read the
            # run still performs; keep it so read tracking sees it
            if (xfdd._pure_drop_elems(a.elems(d))
                    and not isinstance(t, xfdd.TStateTest)):
                return d
            return wrap(d)
        t1 = a.test_of(d)
        if t1 == t:
            if polarity:
                return a.branch(t1, a.hi(d), dl)
            return a.branch(t1, dl, a.lo(d))
        if self.key(t) < self.key(t1):
            return wrap(d)
        return a.branch(t1, self.restrict(a.hi(d), t, polarity),
                        self.restrict(a.lo(d), t, polarity))


class Forgetful(dict):
    """A table that keeps nothing: every lookup misses."""

    def __setitem__(self, key, value):
        pass

    def setdefault(self, key, default=None):
        return default


class UncachedBuilder(xfdd.Builder):
    """A Builder whose computed tables never store, so every leaf
    function runs again on every call and each leaf map starts afresh;
    kept only to check the tables against."""

    def __init__(self, prog, order):
        super().__init__(prog, order)
        for name, table in list(vars(self).items()):
            if isinstance(table, dict):
                setattr(self, name, Forgetful())


# ---------------------------------------------------------------- walker

def perfbench_module(name: str):
    """`perfbench/<name>.py`, loaded once."""
    key = "perfbench_" + name
    if key in sys.modules:
        return sys.modules[key]
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "perfbench" / f"{name}.py")
    spec = importlib.util.spec_from_file_location(key, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[key] = module       # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def workload_inputs():
    """`perfbench/inputs.py`, the benchmark workloads' seeded inputs."""
    return perfbench_module("inputs")


def workload_programs() -> list:
    """The programs of the four benchmark workloads, seed 1, as
    `perfbench/inputs.py` builds them."""
    inputs = workload_inputs()
    lit = inputs.draw_literals(1)
    return [inputs.build_program(w, lit) for w in inputs.WORKLOADS.values()]


# a packet from port 1 writes `seen`, so the flows from port 1, (1, 2)
# included, visit its owner, and the others, (2, 1) included, need not
SEEN_FROM_PORT_1 = """state seen[1] default False;
field srcip : ip in {10.0.0.1, 10.0.0.2};
field dst : small in {1, 2, 3};
(if inport = 1 then seen[srcip] <- True else id);
if dst = 1 then outport <- 1 else if dst = 2 then outport <- 2
else outport <- 3
"""


def two_port_line() -> Topology:
    """The line S1-S3-S2, where S1 exposes ports 1 and 2 and S2 port 3:
    links of capacity 10, and a demand of 1 between every two ports."""
    nodes = {"S1": Node("S1", (1, 2)), "S3": Node("S3", ()),
             "S2": Node("S2", (3,))}
    links = {}
    for a, b in [("S1", "S3"), ("S3", "S2")]:
        links[(a, b)] = Link(a, b, 10.0)
        links[(b, a)] = Link(b, a, 10.0)
    t = Topology(nodes, links, {(u, v): 1.0 for u in (1, 2, 3)
                                for v in (1, 2, 3) if u != v})
    t.validate()
    return t


def demand_map(prog, t) -> tuple:
    """(order, flow demand map) of `prog` on topology `t`: P1, P2 and P3
    of a compile."""
    order = deps.order_spec_program(prog)
    nodes, root = rulegen.diagram(prog, order)
    return order, psm.packet_state_map(nodes, root, t, order, prog)


def eval_test(t, store, pkt):
    if isinstance(t, xfdd.TFieldValue):
        return test_match(pkt[t.field], t.value)
    if isinstance(t, xfdd.TFieldField):
        return values_equal(pkt[t.f1], pkt[t.f2])
    if isinstance(t, xfdd.TStateTest):
        idx = reference_index(t.index, pkt)
        return values_equal(store.get(t.var, idx),
                            reference_expr(t.rhs, pkt))
    raise TypeError(t)


def apply_seq(atoms, store, pkt):
    """Run one leaf action sequence; returns (store, packet-or-None)."""
    pkt = dict(pkt)
    for a in atoms:
        if a is xfdd.DROP:
            return store, None
        if isinstance(a, lang.Mod):
            pkt[a.field] = a.value
        elif isinstance(a, lang.StateSet):
            store = store.set(a.var, reference_index(a.index, pkt),
                              reference_expr(a.rhs, pkt))
        elif isinstance(a, (lang.Incr, lang.Decr)):
            idx = reference_index(a.index, pkt)
            old = store.get(a.var, idx)
            delta = 1 if isinstance(a, lang.Incr) else -1
            store = store.set(a.var, idx, old + delta)
        else:
            raise TypeError(a)
    return store, pkt


def eval_xfdd(arena, root, store, pkt):
    """Walk to a leaf, run every action sequence, merge the results.
    Returns (store, {pkt_key: packet})."""
    i = root
    while not arena.is_leaf(i):
        i = arena.hi(i) if eval_test(arena.test_of(i), store, pkt) else arena.lo(i)
    outs = {}
    stores = []
    for e in sorted(arena.elems(i), key=xfdd.elem_key):
        st2, p2 = apply_seq(e, store, pkt)
        stores.append(st2)
        if p2 is not None:
            outs[interp.pkt_key(p2)] = p2
    return interp.merge_many(store, stores), outs


# ---------------------------------------------------------------- universe

UNIVERSE_SRC = """
state s[1] default 0;
state t[1] default 0;
field a : small in {0, 1};
field b : small in {0, 1};
field c : small in {0, 1};
"""


def universe_prog():
    return lang.parse(UNIVERSE_SRC + "\nid")


def all_packets(prog):
    doms = [sorted(prog.domain_of(f) if prog.domain_of(f) else [0, 1],
                   key=repr) for f in ("a", "b", "c")]
    pkts = []
    for va, vb, vc in itertools.product(*doms):
        pkts.append({"a": va, "b": vb, "c": vc, "inport": 0, "outport": 0})
    return pkts


def all_stores(prog, indices=(0,)):
    """Every store that holds 0 or 1 in each cell of s and t at an index
    of `indices`."""
    st0 = interp.Store.initial(prog)
    cells = [(var, (i,)) for var in ("s", "t") for i in indices]
    stores = []
    for vals in itertools.product((0, 1), repeat=len(cells)):
        st = st0
        for (var, idx), v in zip(cells, vals):
            st = st.set(var, idx, v)
        stores.append(st)
    return stores


def random_policy(rng: random.Random, depth: int, counters: bool = True,
                  field_index: bool = False):
    """A random policy over the universe; with `field_index` each state
    index is drawn like a right-hand side (a literal or a field), else it
    is 0 and takes no draw."""
    fields = ["a", "b", "c"]
    svars = ["s", "t"]

    def expr():
        r = rng.random()
        if r < 0.5:
            return lang.Lit(rng.choice([0, 1]))
        return lang.FieldRef(rng.choice(fields))

    def index():
        return expr() if field_index else lang.Lit(0)

    def pred(d):
        r = rng.random()
        if d <= 0 or r < 0.35:
            k = rng.randrange(4)
            if k == 0:
                return lang.Id()
            if k == 1:
                return lang.Drop()
            if k == 2:
                return lang.Test(rng.choice(fields), rng.choice([0, 1]))
            return lang.StateTest(rng.choice(svars), index(), expr())
        k = rng.randrange(3)
        if k == 0:
            return lang.Neg(pred(d - 1))
        if k == 1:
            return lang.Or(pred(d - 1), pred(d - 1))
        return lang.And(pred(d - 1), pred(d - 1))

    def pol(d):
        r = rng.random()
        if d <= 0 or r < 0.3:
            k = rng.randrange(6)
            if k == 0:
                return lang.Mod(rng.choice(fields), rng.choice([0, 1]))
            if k in (2, 3) and counters:
                cls = lang.Incr if k == 2 else lang.Decr
                return cls(rng.choice(svars), index())
            if k in (1, 2, 3):
                return lang.StateSet(rng.choice(svars), index(), expr())
            return pred(1)
        k = rng.randrange(4)
        if k == 0:
            return lang.Par(pol(d - 1), pol(d - 1))
        if k == 1:
            return lang.Seq(pol(d - 1), pol(d - 1))
        if k == 2:
            return lang.If(pred(d - 1), pol(d - 1), pol(d - 1))
        return lang.Atomic(pol(d - 1))

    return pol(depth)


# ---------------------------------------------------------------- simulation

def gen_packet(prog, rng, ports):
    """A random packet: each field from its domain, or a port when it has
    none, then the port it enters at, drawn in that order."""
    pkt = {}
    for f in prog.field_names():
        d = prog.domain_of(f)
        pkt[f] = rng.choice(d) if d else rng.choice(ports)
    port = rng.choice(ports)
    pkt["inport"] = port
    return port, pkt


def canon_emissions(pairs):
    """(port, packet) pairs as a sorted list of canonical keys."""
    return sorted((p, tuple(sorted((f, canon_key(v)) for f, v in b.items())))
                  for p, b in pairs)


def oracle_emissions(result):
    """The interpreter's output packets as `canon_emissions` gives the
    simulator's."""
    return sorted((q["outport"],
                   tuple(sorted((f, canon_key(v)) for f, v in q.items())))
                  for q in result.packets.values())


def aggregate_oracle(store):
    """An interpreter store's cells: var -> index key -> canonical value."""
    return {var: {k: canon_key(v) for k, (i, v) in store.cells[var].items()}
            for var in store.cells}


def aggregate_net(net):
    """A simulator's cells as `aggregate_oracle` gives the interpreter's."""
    return {var: {k: canon_key(v) for k, v in m.items()}
            for var, m in net.aggregate_state().items()}


# ---------------------------------------------------------------- probes

def race_probe(net: simnet.SimNetwork, scenario: dict) -> dict:
    """Inject the scenario's packets under one interleaved schedule and
    report whether the observed pair of state cells describes a single
    packet.  scenario keys: packets [(port, pkt), ...], vars (v1, v2),
    index (tuple), fields (f1, f2)."""
    for port, pkt in scenario["packets"]:
        net.inject(port, pkt, mode="interleaved")
    net.run()
    v1, v2 = scenario["vars"]
    f1, f2 = scenario["fields"]
    key = tuple(canon_key(x) for x in scenario["index"])
    state = net.aggregate_state()
    got1 = state.get(v1, {}).get(key)
    got2 = state.get(v2, {}).get(key)
    consistent = any(
        got1 is not None and got2 is not None
        and values_equal(got1, pkt[f1]) and values_equal(got2, pkt[f2])
        for _, pkt in scenario["packets"])
    return {"consistent": consistent, "values": (got1, got2)}
