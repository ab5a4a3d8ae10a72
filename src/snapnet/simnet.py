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
from .interp import _incr_value, eval_expr, eval_index, pkt_key
from .shape import check
from .values import (canon_key, test_match, value_from_json, value_to_json,
                     values_equal)


# ---------------------------------------------------------------- network

@dataclass
class TraceEvent:
    time: int
    switch: str
    packet: dict
    kind: str             # ingress | hop | state-read | state-write |
    detail: object = None  # emit | drop | fork | tag


DONE = "done"


@dataclass
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


class SimNetwork:
    def __init__(self, bundle: rulegen.DeploymentBundle, topo,
                 seed: int = 0, events: bool = False):
        self.bundle = bundle
        self.topo = topo
        self.seed = seed
        # switch -> nid -> node, the fragment the switch walks
        self.frags = rulegen.split_xfdd(bundle.nodes, bundle.root,
                                        bundle.placement, topo)
        # var -> canonical index key -> (index, value), at the var's owner
        self.cells = {s: {} for s in bundle.states}
        self.defaults = {s: d.default for s, d in bundle.states.items()}
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
        if self._mode == "serialized":
            return 0
        h = hashlib.blake2b(f"{self.seed}:{serial}".encode(),
                            digest_size=8).digest()
        return int.from_bytes(h, "big")

    def _schedule(self, t: int, fn):
        self._serial += 1
        heapq.heappush(self._events,
                       (t, self._tiebreak(self._serial), self._serial, fn))

    def _log(self, sid: str, body: dict, kind: str, detail=None):
        self.trace.append(TraceEvent(self.clock, sid, dict(body),
                                     kind, detail))

    @property
    def hops(self) -> int:
        """Packet copies sent over links so far."""
        return sum(self.link_sent.values())

    # -- state cells

    def _cell(self, var: str, idx: tuple):
        slot = self.cells[var].get(tuple(canon_key(x) for x in idx))
        return slot[1] if slot is not None else self.defaults[var]

    def _store(self, var: str, idx: tuple, value):
        k = tuple(canon_key(x) for x in idx)
        tab = self.cells[var]
        if values_equal(value, self.defaults[var]):
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
        nodes = self.frags[sid]
        body = copy.body
        while True:
            node = nodes.get(nid)
            if node is None:
                copy.resume = ("node", nid)
                self._forward_blocked(sid, copy,
                                      self.bundle.nodes[nid][1].var)
                return
            if node[0] == "leaf":
                self._fork(sid, copy, nid)
                return
            test = node[1]
            if isinstance(test, xfdd.TStateTest):
                idx = eval_index(test.index, body)
                cell = self._cell(test.var, idx)
                self.state_reads[sid] += 1
                if self.events:
                    self._log(sid, body, "state-read", (test.var, idx))
                ok = values_equal(cell, eval_expr(test.rhs, body))
            # a packet without the tested field fails as in the reference
            # interpreter
            elif isinstance(test, xfdd.TFieldValue):
                try:
                    ok = test_match(body[test.field], test.value)
                except KeyError:
                    raise EvalError(f"unknown field {test.field!r}") from None
            elif isinstance(test, xfdd.TFieldField):
                try:
                    ok = values_equal(body[test.f1], body[test.f2])
                except KeyError as e:
                    raise EvalError(f"unknown field {e.args[0]!r}") from None
            else:
                raise EvalError(f"cannot evaluate test {test!r}")
            nid = node[2] if ok else node[3]

    def _final_packet(self, elem: tuple, body: dict):
        """(dropped, final packet) preview for one action sequence."""
        if elem and elem[-1] is xfdd.DROP:
            return True, None
        out = dict(body)
        for a in elem:
            if isinstance(a, lang.Mod):
                out[a.field] = a.value
        return False, out

    def _fork(self, sid: str, copy: _Copy, nid: int):
        """One copy per action sequence; copies whose output packet would
        duplicate an earlier copy's only carry state updates."""
        elems = self.bundle.nodes[nid][1]
        many = len(elems) > 1
        seen: set = set()
        copies = []
        for ei, elem in enumerate(elems):
            emitter = True
            if many:
                dropped, final = self._final_packet(elem, copy.body)
                if not dropped:
                    key = pkt_key(final)
                    emitter = key not in seen
                    seen.add(key)
            copies.append(_Copy(dict(copy.body), copy.inport, copy.outport,
                                ("leaf", nid, ei, 0), set(), emitter,
                                copy.hops))
        if many and self.events:
            self._log(sid, copy.body, "fork", (nid, len(copies)))
        for c in copies:
            self._run_leaf(sid, c)

    def _run_leaf(self, sid: str, copy: _Copy):
        _, nid, ei, _ = copy.resume
        elem = self.bundle.nodes[nid][1][ei]
        placement = self.bundle.placement
        done = copy.done
        pending = [k for k, a in enumerate(elem)
                   if lang.is_state_op(a) and k not in done]
        for k in pending[:]:
            a = elem[k]
            if placement[a.var] != sid:
                continue
            idx = eval_index(a.index, copy.body)
            if isinstance(a, lang.StateSet):
                val = eval_expr(a.rhs, copy.body)
            else:
                val = _incr_value(self._cell(a.var, idx),
                                  1 if isinstance(a, lang.Incr) else -1)
            self._store(a.var, idx, val)
            self.state_writes[sid] += 1
            if self.events:
                self._log(sid, copy.body, "state-write", (a.var, idx, val))
            done.add(k)
            pending.remove(k)
        if pending:
            copy.resume = ("leaf", nid, ei, pending[0])
            self._forward_blocked(sid, copy, elem[pending[0]].var)
            return
        dropped, final = self._final_packet(elem, copy.body)
        if dropped or not copy.emitter:
            if self.events:
                self._log(sid, copy.body, "drop",
                          "dropped" if dropped else "duplicate-copy")
            return
        copy.body = final
        copy.outport = final.get("outport")
        copy.resume = DONE
        self._route_final(sid, copy)

    def _route_final(self, sid: str, copy: _Copy):
        v = copy.outport
        ports = self.topo.nodes[sid].external_ports
        if v in ports:
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
