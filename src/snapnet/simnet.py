"""Discrete-event network simulator for deployment bundles.

Loads a deployment bundle onto a topology and executes injected packets
under the distributed protocol described in the rule generator.  Each
state variable has one cell table, at the default of the bundle's
declarations (`DeploymentBundle.states`) until written, which only the
variable's owner reads and writes.  Each switch walks its own fragment
of the program diagram (`rulegen.split_xfdd` cuts it at load) until a
leaf or a node it does not hold; the packet body in flight is the entry
packet, state operations run at their owners (opportunistically when an
owner is passed en route), and field modifications are applied once no
state operations remain.  A final copy is emitted at the switch that owns
its egress port, and elsewhere sent to the next hop its flow's rule gives
(`DeploymentBundle.rules`); a blocked one follows its group
(`DeploymentBundle.groups`).  With neither, `SimNetwork._fallback_next`
sends it one hop toward its target, outside the compiled plan.

Each node of the diagram is compiled once, at load, into a step whose
test kind is decided then, from the interpreter's own closures
(`interp._matcher`, `_expr_key`, `_index`); a state test compares
canonical keys.  A leaf's action sequences are compiled the first time
a copy reaches the leaf, into their state operations' positions, owners
and index and right-hand-side closures.  No step refers to the network,
so a network no longer referenced is freed at once.

Two execution modes:
  * serialized — each injected packet (and all its forked copies) is
    driven to emission or drop before the next injection starts;
  * interleaved — injections enqueue and the event loop advances one
    switch-visit per event, with a seeded deterministic tie-break among
    concurrent events, so cross-packet interleavings are reproducible.

Per-switch processing is atomic: one packet's walk of a switch's fragment,
and the leaf actions it runs there, is never interleaved with another
packet's on the same switch.  Links deliver in FIFO order with a uniform
latency of one tick.  A copy may cross switches x (state variables + 1)
links, as many as the model's `loop_` rows let a walk enter its switches;
one more (rules that forward in a loop) is an `EvalError`.

The event trace (`SimNetwork.trace`: one `TraceEvent` holding a copy of the
packet per step) is recorded only when the network is built with
`events=True`, as `snapnet simulate --events` does; otherwise it stays an
empty list.  Counters are always kept, each an int or a dict keyed by
switch or by link (a, b): `injected` packets, `hops` sent, per switch
`processed` packet visits, `state_reads` and `state_writes`, and per link
`link_sent` packets and `link_max_queue`, the deepest its queue has been.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass

from . import lang, rulegen, xfdd
from .errors import EvalError, InputError
from .interp import _expr, _expr_key, _incr_value, _index, _matcher, pkt_key
from .shape import check
from .values import canon_key, value_from_json, value_to_json


# ---------------------------------------------------------------- network

@dataclass
class TraceEvent:
    time: int
    switch: str
    packet: dict
    kind: str             # ingress | hop | state-read | state-write |
    detail: object = None  # emit | drop | fork | tag


DONE = "done"


@dataclass(slots=True)
class _Copy:
    """One in-flight packet copy: the entry packet and the header the
    protocol (see `rulegen`) carries with it from switch to switch, and
    strips at egress.  `inport` is the port the packet entered at;
    `outport` its egress port, None until a group tags the copy with a
    path or its effect is final.  `resume` is where processing resumes:
    ("node", nid) mid-diagram, ("leaf", nid, elem, offset) while action
    sequence `elem` of leaf `nid` runs, `offset` being its lowest state
    operation still to run, or DONE once the effect is final.  `done`
    holds the state operations already run out of order at owners passed
    en route; `emitter` is False for forked copies that only carry state
    updates; `hops` counts the links crossed since injection, forks
    included."""
    body: dict
    inport: int
    outport: object
    resume: object
    done: set
    emitter: bool
    hops: int


# how `SimNetwork._run_nodes` decides a step
_LEAF, _FIELD, _FIELDS, _STATE = range(4)


def _step(node) -> tuple:
    """A diagram node as a pre-dispatched step, built once from the
    interpreter's closures: (kind, field or var, matcher or (index,
    rhs key), hi, lo), or for a field-field test (kind, f1, f2, hi, lo).
    A test of no known kind keeps its test, to raise if a copy meets it."""
    if node[0] == "leaf":
        return (_LEAF, None, None, None, None)
    test, hi, lo = node[1], node[2], node[3]
    t = type(test)
    if t is xfdd.TFieldValue:
        return (_FIELD, test.field, _matcher(test.value), hi, lo)
    if t is xfdd.TFieldField:
        return (_FIELDS, test.f1, test.f2, hi, lo)
    if t is xfdd.TStateTest:
        return (_STATE, test.var, (_index(test.index), _expr_key(test.rhs)),
                hi, lo)
    return (None, None, test, hi, lo)


def _sequence(elem: tuple, placement: dict) -> tuple:
    """An action sequence compiled once: (state ops, dropped, mods).  Each
    state operation is (position, owner, var, index, rhs, delta), with
    rhs None for ++ and --, and `mods` the (field, value) pairs of its
    modifications in order."""
    ops = []
    for k, a in enumerate(elem):
        if lang.is_state_op(a):
            t = type(a)
            ops.append((k, placement[a.var], a.var, _index(a.index),
                        _expr(a.rhs) if t is lang.StateSet else None,
                        1 if t is lang.Incr else -1))
    mods = tuple((a.field, a.value) for a in elem if type(a) is lang.Mod)
    return tuple(ops), bool(elem) and elem[-1] is xfdd.DROP, mods


def _final(seq: tuple, body: dict):
    """The packet action sequence `seq` leaves of `body`, None if it drops."""
    _, dropped, mods = seq
    if dropped:
        return None
    out = dict(body)
    for field, value in mods:
        out[field] = value
    return out


class SimNetwork:
    def __init__(self, bundle: rulegen.DeploymentBundle, topo,
                 seed: int = 0, events: bool = False):
        self.bundle = bundle
        self.topo = topo
        self.seed = seed
        # switch -> nid -> node, the fragment the switch walks
        self.frags = rulegen.split_xfdd(bundle.nodes, bundle.root,
                                        bundle.placement, topo)
        # nid -> step, one per diagram node; a fragment decides membership
        self._steps = {nid: _step(node) for nid, node in bundle.nodes.items()}
        self._sequences: dict = {}         # leaf nid -> compiled sequences
        self._ports = {sid: frozenset(n.external_ports)
                       for sid, n in topo.nodes.items()}
        # var -> canonical index key -> (index, value), at the var's owner
        self.cells = {s: {} for s in bundle.states}
        self.defaults = {s: d.default for s, d in bundle.states.items()}
        self._default_keys = {s: canon_key(v)
                              for s, v in self.defaults.items()}
        self.max_hops = len(topo.nodes) * (len(bundle.placement) + 1)
        self.clock = 0
        self.events = events
        self.trace: list = []              # TraceEvents, only with events
        self.injected = 0
        self.processed = dict.fromkeys(topo.nodes, 0)
        self.state_reads = dict.fromkeys(topo.nodes, 0)
        self.state_writes = dict.fromkeys(topo.nodes, 0)
        self.link_sent = dict.fromkeys(topo.links, 0)
        self.link_max_queue = dict.fromkeys(topo.links, 0)
        self.emissions: list = []          # (port, packet)
        self._wrr: dict = {}
        self._events: list = []            # heap of (time, tb, serial, fn)
        self._serial = 0
        self._linkq: dict = {}             # (a, b) -> fifo list
        self._fallback: dict = {}          # (sid, target) -> next hop
        self._mode = "serialized"

    # -- bookkeeping

    def _tiebreak(self, serial: int) -> int:
        h = hashlib.blake2b(f"{self.seed}:{serial}".encode(),
                            digest_size=8).digest()
        return int.from_bytes(h, "big")

    def _schedule(self, t: int, fn):
        """Serialized mode runs one packet at a time, so its events need
        no tie-break."""
        self._serial += 1
        tb = 0 if self._mode == "serialized" else self._tiebreak(self._serial)
        heapq.heappush(self._events, (t, tb, self._serial, fn))

    def _log(self, sid: str, body: dict, kind: str, detail=None):
        self.trace.append(TraceEvent(self.clock, sid, dict(body),
                                     kind, detail))

    @property
    def hops(self) -> int:
        """Packet copies sent over links so far."""
        return sum(self.link_sent.values())

    # -- state cells

    def _cell(self, var: str, idx: tuple):
        slot = self.cells[var].get(tuple(map(canon_key, idx)))
        return slot[1] if slot is not None else self.defaults[var]

    def _store(self, var: str, idx: tuple, value):
        k = tuple(map(canon_key, idx))
        tab = self.cells[var]
        if canon_key(value) == self._default_keys[var]:
            tab.pop(k, None)
        else:
            tab[k] = (idx, value)

    def aggregate_state(self) -> dict:
        """Each variable's cells: var -> index key -> value."""
        return {s: {k: v for k, (_, v) in tab.items()}
                for s, tab in self.cells.items()}

    # -- injection / event loop

    def inject(self, port: int, pkt: dict, mode: str = "serialized"):
        """Serialized mode runs the packet (and every forked copy) to
        completion and returns the packets it emitted; interleaved mode
        enqueues the injection for a later run()."""
        if mode not in ("serialized", "interleaved"):
            raise ValueError(f"unknown mode {mode!r}")
        self._mode = mode
        sid = self.topo.node_of_port(port)
        copy = _Copy(dict(pkt), port, None, ("node", self.bundle.root),
                     set(), True, 0)
        self.injected += 1
        if self.events:
            self._log(sid, pkt, "ingress", port)
        before = len(self.emissions)
        self._schedule(self.clock, lambda: self._process(sid, copy))
        if mode == "serialized":
            self.run()
            return self.emissions[before:]
        return []

    def run(self):
        while self._events:
            t, _, _, fn = heapq.heappop(self._events)
            self.clock = max(self.clock, t)
            fn()

    # -- forwarding

    def _send(self, a: str, b: str, copy: _Copy):
        link = (a, b)
        copy.hops += 1
        if copy.hops > self.max_hops:
            raise EvalError(f"a packet from port {copy.inport} "
                            f"crossed {self.max_hops} links and loops on "
                            f"{a}->{b}")
        q = self._linkq.setdefault(link, [])
        q.append(copy)
        self.link_sent[link] += 1
        if len(q) > self.link_max_queue[link]:
            self.link_max_queue[link] = len(q)
        if self.events:
            self._log(a, copy.body, "hop", (a, b))
        self._schedule(self.clock + 1, lambda: self._deliver(link))

    def _deliver(self, link):
        # explicit per-link FIFO: delivery order equals send order
        q = self._linkq[link]
        assert q, "delivery event with empty link queue"
        copy = q.pop(0)
        self._process(link[1], copy)

    def _fallback_next(self, sid: str, target: str) -> str:
        key = (sid, target)
        hop = self._fallback.get(key)
        if hop is None:
            # deterministic BFS from target over reversed links
            dist = {target: 0}
            frontier = [target]
            while frontier:
                nxt = []
                for n in frontier:
                    for l in self.topo.in_links(n):
                        if l.src not in dist:
                            dist[l.src] = dist[n] + 1
                            nxt.append(l.src)
                frontier = sorted(nxt)
            best = None
            for l in self.topo.out_links(sid):
                d = dist.get(l.dst)
                if d is not None and (best is None or (d, l.dst) < best):
                    best = (d, l.dst)
            if best is None:
                raise EvalError(f"switch {sid} cannot reach {target}")
            hop = best[1]
            self._fallback[key] = hop
        return hop

    def _swrr(self, sid: str, u: int, key, rows: tuple) -> tuple:
        """Deterministic weighted round-robin over a rule group; each
        resume point `key` keeps its own turn in its variable's group."""
        weights = [w for w, _, _ in rows]
        total = sum(weights)
        if total <= 0:
            weights = [1.0] * len(rows)
            total = float(len(rows))
        cur = self._wrr.setdefault((sid, u, key), [0.0] * len(rows))
        for i, w in enumerate(weights):
            cur[i] += w
        pick = max(range(len(rows)), key=lambda i: (cur[i], -i))
        cur[pick] -= total
        return rows[pick]

    def _forward_blocked(self, sid: str, copy: _Copy, var: str):
        """Send a copy waiting on `var` toward the variable's owner."""
        u, key = copy.inport, copy.resume
        rows = self.bundle.groups[sid].get((u, var))
        if rows:
            chosen = None
            if copy.outport is not None:
                for row in rows:
                    if row[1] == copy.outport:
                        chosen = row
                        break
            if chosen is None:
                chosen = self._swrr(sid, u, key, rows)
                copy.outport = chosen[1]
                if self.events:
                    self._log(sid, copy.body, "tag", (key, chosen[1]))
            self._send(sid, chosen[2], copy)
            return
        copy.outport = None
        owner = self.bundle.placement[var]
        self._send(sid, self._fallback_next(sid, owner), copy)

    # -- per-switch execution (atomic)

    def _process(self, sid: str, copy: _Copy):
        """Resume a copy where its key says: route it once final, walk the
        fragment from a node, or run the action sequence's state
        operations this switch owns and forward the copy with the rest."""
        self.processed[sid] += 1
        key = copy.resume
        if key == DONE:
            self._route_final(sid, copy)
        elif key[0] == "node":
            self._run_nodes(sid, copy, key[1])
        else:
            self._run_leaf(sid, copy)

    def _run_nodes(self, sid: str, copy: _Copy, nid: int):
        """Walk the switch's fragment from node `nid` down to a leaf, which
        forks the copy, or to a node the switch does not hold, where the
        copy is tagged with that resume point and forwarded."""
        frag = self.frags[sid]
        steps = self._steps
        body = copy.body
        while True:
            if nid not in frag:
                copy.resume = ("node", nid)
                self._forward_blocked(sid, copy, steps[nid][1])
                return
            kind, arg, test, hi, lo = steps[nid]
            # a packet without the tested field fails as in the reference
            # interpreter
            if kind is _FIELD:
                try:
                    value = body[arg]
                except KeyError:
                    raise EvalError(f"unknown field {arg!r}") from None
                ok = test(value)
            elif kind is _STATE:
                index, rhs = test
                idx = index(body)
                slot = self.cells[arg].get(tuple(map(canon_key, idx)))
                cell = (canon_key(slot[1]) if slot is not None
                        else self._default_keys[arg])
                self.state_reads[sid] += 1
                if self.events:
                    self._log(sid, body, "state-read", (arg, idx))
                ok = cell == rhs(body)
            elif kind is _LEAF:
                self._fork(sid, copy, nid)
                return
            elif kind is _FIELDS:
                try:
                    ok = canon_key(body[arg]) == canon_key(body[test])
                except KeyError as e:
                    raise EvalError(f"unknown field {e.args[0]!r}") from None
            else:
                raise EvalError(f"cannot evaluate test {test!r}")
            nid = hi if ok else lo

    def _sequences_of(self, nid: int) -> tuple:
        """Leaf `nid`'s action sequences, each compiled (`_sequence`) the
        first time a copy reaches the leaf."""
        seqs = self._sequences.get(nid)
        if seqs is None:
            placement = self.bundle.placement
            seqs = self._sequences[nid] = tuple(
                _sequence(elem, placement)
                for elem in self.bundle.nodes[nid][1])
        return seqs

    def _fork(self, sid: str, copy: _Copy, nid: int):
        """One copy per action sequence; copies whose output packet would
        duplicate an earlier copy's only carry state updates.  A leaf of
        one sequence goes on with the copy itself."""
        seqs = self._sequences_of(nid)
        if len(seqs) == 1:
            copy.resume = ("leaf", nid, 0, 0)
            self._run_leaf(sid, copy)
            return
        seen: set = set()
        copies = []
        for ei, seq in enumerate(seqs):
            emitter = True
            final = _final(seq, copy.body)
            if final is not None:
                key = pkt_key(final)
                emitter = key not in seen
                seen.add(key)
            copies.append(_Copy(dict(copy.body), copy.inport, copy.outport,
                                ("leaf", nid, ei, 0), set(), emitter,
                                copy.hops))
        if self.events:
            self._log(sid, copy.body, "fork", (nid, len(copies)))
        for c in copies:
            self._run_leaf(sid, c)

    def _run_leaf(self, sid: str, copy: _Copy):
        _, nid, ei, _ = copy.resume
        seq = self._sequences_of(nid)[ei]
        body = copy.body
        done = copy.done
        blocked = None      # (position, var): the first op owned elsewhere
        for k, owner, var, index, rhs, delta in seq[0]:
            if k in done:
                continue
            if owner != sid:
                if blocked is None:
                    blocked = (k, var)
                continue
            idx = index(body)
            if rhs is not None:
                val = rhs(body)
            else:
                val = _incr_value(self._cell(var, idx), delta)
            self._store(var, idx, val)
            self.state_writes[sid] += 1
            if self.events:
                self._log(sid, body, "state-write", (var, idx, val))
            done.add(k)
        if blocked is not None:
            copy.resume = ("leaf", nid, ei, blocked[0])
            self._forward_blocked(sid, copy, blocked[1])
            return
        final = _final(seq, body)
        if final is None or not copy.emitter:
            if self.events:
                self._log(sid, body, "drop",
                          "dropped" if final is None else "duplicate-copy")
            return
        copy.body = final
        copy.outport = final.get("outport")
        copy.resume = DONE
        self._route_final(sid, copy)

    def _route_final(self, sid: str, copy: _Copy):
        v = copy.outport
        if v in self._ports[sid]:
            # header stripped: the emitted packet is the bare body
            self.emissions.append((v, dict(copy.body)))
            if self.events:
                self._log(sid, copy.body, "emit", v)
            return
        try:
            target = self.topo.node_of_port(v)
        except KeyError:
            if self.events:
                self._log(sid, copy.body, "drop", f"unknown egress port {v}")
            return
        hop = self.bundle.rules[sid].get((copy.inport, v))
        if hop is None:
            hop = self._fallback_next(sid, target)
        self._send(sid, hop, copy)


# ---------------------------------------------------------------- loading

def load(bundle, topo, seed: int = 0, events: bool = False) -> SimNetwork:
    """bundle: a DeploymentBundle or a bundle directory path.  `events`
    records the event trace in `SimNetwork.trace`.  A bundle that fails
    `rulegen.validate_bundle` raises InputError, checked once: by
    `load_bundle` for a directory, here for a bundle in memory."""
    if isinstance(bundle, str):
        bundle = rulegen.load_bundle(bundle, topo)
    else:
        rulegen.require_valid(bundle, topo)
    return SimNetwork(bundle, topo, seed=seed, events=events)


# ---------------------------------------------------------------- traces

def trace_to_json(events: list) -> list:
    return [{"time": e.time, "switch": e.switch, "kind": e.kind,
             "detail": repr(e.detail),
             "packet": {f: value_to_json(v) for f, v in e.packet.items()}}
            for e in events]


# a trace line; `value_from_json` reads each packet value
TRACE_LINE = {"port": int, "packet": dict}


def read_trace(path: str, topo, fields: dict) -> list:
    """Trace input: JSON lines, each of shape `TRACE_LINE`, with an
    external port of `topo` and each packet value in its JSON form
    (`values.value_to_json`); InputError naming the line, and the packet
    field whose value is bad, if one is not, if a value lies outside its
    field's declared domain (`fields`: name -> `lang.FieldDecl`, as in
    `DeploymentBundle.fields`), or if the packet's `inport` is not the
    line's `port`."""
    ports = set(topo.external_ports())
    # the compiler drops tests that these domains decide, so a packet
    # outside one could leave where the interpreter drops it
    domains = {f: {canon_key(v) for v in d.domain}
               for f, d in fields.items() if d.domain is not None}
    out = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                d = check(json.loads(line), TRACE_LINE)
                port = d["port"]
                if port not in ports:
                    raise InputError(f"no switch exposes port {port}")
                pkt = {}
                for field, v in d["packet"].items():
                    try:
                        pkt[field] = value_from_json(v)
                    except (OverflowError, ValueError) as e:
                        raise InputError(f"packet.{field}: {e}") from e
                    if (field in domains
                            and canon_key(pkt[field]) not in domains[field]):
                        raise InputError(f"packet.{field} {v!r} is not in "
                                         "the declared domain")
                # the diagram tests `inport`, the rules route from `port`
                if pkt.get("inport", port) != port:
                    raise InputError(f"packet.inport {d['packet']['inport']!r}"
                                     f" is not the line's port {port}")
                out.append((port, pkt))
            except json.JSONDecodeError as e:
                raise InputError(f"trace line {n}: {e.msg}") from e
            except ValueError as e:
                raise InputError(f"trace line {n}: {e}") from e
    return out
