"""Network topology model and JSON format.

Nodes are switches; a subset are edge switches exposing external (one-big-
switch) port numbers.  Links are directed with capacities; demands are
volumes between external port pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InputError
from .shape import check


@dataclass
class Node:
    id: str
    external_ports: tuple = ()


@dataclass
class Link:
    src: str
    dst: str
    capacity: float


@dataclass
class Topology:
    nodes: dict                     # id -> Node
    links: dict                     # (src, dst) -> Link
    demands: dict                   # (u, v) -> volume  (external port pairs)

    def external_ports(self) -> list:
        out = []
        for n in sorted(self.nodes):
            out.extend(self.nodes[n].external_ports)
        return sorted(out)

    def node_of_port(self, port: int) -> str:
        # cached like _adjacency; the first node in sorted order wins
        cache = getattr(self, "_port_cache", None)
        if cache is None or cache[0] != len(self.nodes):
            owner: dict = {}
            for n in sorted(self.nodes):
                for p in self.nodes[n].external_ports:
                    owner.setdefault(p, n)
            cache = (len(self.nodes), owner)
            self._port_cache = cache
        if port not in cache[1]:
            raise KeyError(f"no node exposes external port {port}")
        return cache[1][port]

    def _adjacency(self) -> tuple:
        # treated as immutable after construction; cache keyed on size
        cache = getattr(self, "_adj_cache", None)
        if cache is None or cache[0] != len(self.links):
            out: dict = {n: [] for n in self.nodes}
            inn: dict = {n: [] for n in self.nodes}
            for (s, d) in sorted(self.links):
                out[s].append(self.links[(s, d)])
                inn[d].append(self.links[(s, d)])
            cache = (len(self.links), out, inn)
            self._adj_cache = cache
        return cache

    def out_links(self, node: str) -> list:
        return self._adjacency()[1][node]

    def in_links(self, node: str) -> list:
        return self._adjacency()[2][node]

    def validate(self):
        """ValueError unless the topology is well formed: switch ids are
        strings; ports are non-negative ints (not bools), exposed once,
        and at least one; links join two distinct known nodes with a finite positive
        capacity; demands join known ports with a finite volume >= 0."""
        if not self.nodes:
            raise ValueError("empty topology")
        for sid in self.nodes:
            if not isinstance(sid, str):
                raise ValueError(f"switch id {sid!r} is not a string")
        seen_ports = set()
        for n in self.nodes.values():
            for p in n.external_ports:
                _check_port(p, f"switch {n.id} external port")
                if p in seen_ports:
                    raise ValueError(f"external port {p} exposed twice")
                seen_ports.add(p)
        if not seen_ports:
            raise ValueError("topology exposes no external ports")
        for (s, d), l in self.links.items():
            if s not in self.nodes or d not in self.nodes or s == d:
                raise ValueError(f"link {s}->{d} does not join two distinct "
                                 "known switches")
            if not (math.isfinite(l.capacity) and l.capacity > 0):
                raise ValueError(f"link {s}->{d} capacity must be finite "
                                 "and positive")
        for (u, v), vol in self.demands.items():
            _check_port(u, "demand port")
            _check_port(v, "demand port")
            if u not in seen_ports or v not in seen_ports:
                raise ValueError(f"demand ({u},{v}) uses unknown port")
            if not (math.isfinite(vol) and vol >= 0):
                raise ValueError(f"demand ({u},{v}) volume must be finite "
                                 "and >= 0")


def _check_port(p, what: str) -> None:
    # bool is a subclass of int, and JSON's true is no port
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"{what} {p!r} is not an int")
    # the language has no negative literal: no program could name it
    if p < 0:
        raise ValueError(f"{what} {p} is negative")


# the topology file, as `to_json` writes it
TOPOLOGY = {
    "nodes": [{"id": str, "external_ports?": [int]}],
    "links": [{"from": str, "to": str, "capacity": float,
               "bidirectional?": bool}],
    "demands": [{"u": int, "v": int, "volume": float}],
}


def from_json(data: dict) -> Topology:
    """The topology `data` describes; InputError if it is malformed (not
    of shape `TOPOLOGY`, or a switch, link or demand listed twice) or
    fails `Topology.validate`.  A link listed from a to b overrides the
    b->a link that a bidirectional entry implies."""
    try:
        nodes, links, listed, demands = {}, {}, set(), {}
        for n in check(data, TOPOLOGY)["nodes"]:
            if n["id"] in nodes:
                raise ValueError(f"switch {n['id']!r} listed twice")
            nodes[n["id"]] = Node(n["id"], tuple(n.get("external_ports", [])))
        for l in data["links"]:
            a, b, cap = l["from"], l["to"], float(l["capacity"])
            if (a, b) in listed:
                raise ValueError(f"link {a}->{b} listed twice")
            listed.add((a, b))
            links[(a, b)] = Link(a, b, cap)
            if l.get("bidirectional", True) and (b, a) not in links:
                links[(b, a)] = Link(b, a, cap)
        for d in data["demands"]:
            if (d["u"], d["v"]) in demands:
                raise ValueError(f"demand ({d['u']},{d['v']}) listed twice")
            demands[(d["u"], d["v"])] = float(d["volume"])
        t = Topology(nodes, links, demands)
        t.validate()
    except ValueError as e:
        raise InputError(f"topology: {e}") from e
    return t


def load(path: str) -> Topology:
    with open(path) as f:
        return from_json(json.load(f))


def to_json(t: Topology) -> dict:
    # emit directed links explicitly for byte-stable round trips
    return {
        "nodes": [{"id": n.id, "external_ports": list(n.external_ports)}
                  for _, n in sorted(t.nodes.items())],
        "links": [{"from": l.src, "to": l.dst, "capacity": l.capacity,
                   "bidirectional": False}
                  for _, l in sorted(t.links.items())],
        "demands": [{"u": u, "v": v, "volume": vol}
                    for (u, v), vol in sorted(t.demands.items())],
    }


def example12() -> Topology:
    """The twelve-switch evaluation topology: two ingress edges (I1, I2),
    four department edges (D1-D4), six core switches (C1-C6)."""
    nodes = {}
    for name, ports in [("I1", (1,)), ("I2", (2,)),
                        ("D1", (3,)), ("D2", (4,)), ("D3", (5,)),
                        ("D4", (6,)),
                        ("C1", ()), ("C2", ()), ("C3", ()),
                        ("C4", ()), ("C5", ()), ("C6", ())]:
        nodes[name] = Node(name, ports)
    pairs = [("I1", "C1"), ("I2", "C2"),
             ("D1", "C1"), ("D2", "C2"), ("D3", "C5"),
             ("D4", "C5"), ("D4", "C6"),
             ("C1", "C5"), ("C1", "C3"), ("C3", "C5"),
             ("C2", "C6"), ("C2", "C4"), ("C4", "C6"),
             ("C3", "C4"), ("C5", "C6")]
    links = {}
    for s, d in pairs:
        links[(s, d)] = Link(s, d, 10.0)
        links[(d, s)] = Link(d, s, 10.0)
    demands = {}
    ports = [1, 2, 3, 4, 5, 6]
    for u in ports:
        for v in ports:
            if u != v:
                demands[(u, v)] = 1.0
    t = Topology(nodes, links, demands)
    t.validate()
    return t


EDGE_FRACTION = 0.7     # share of a generated topology's switches at its edge
LINK_CAPACITY = 10.0    # capacity of each generated link


def generated(n_switches: int, seed: int = 7) -> Topology:
    """Random connected topology of links of capacity `LINK_CAPACITY`
    (10.0); the lowest-degree `EDGE_FRACTION` (0.7) of the switches, and
    at least two, become edges, each exposing one external port.  Every
    ordered pair of edge ports has a demand of `LINK_CAPACITY` over twice
    the number of edge ports, in abstract units: an edge switch must sink
    one flow from every other edge over as few as two links, so the
    all-pairs demand fits the link capacities with room to spare."""
    import random
    rng = random.Random(seed)
    names = [f"S{i}" for i in range(n_switches)]
    links = {}

    def add(a, b):
        links[(a, b)] = Link(a, b, LINK_CAPACITY)
        links[(b, a)] = Link(b, a, LINK_CAPACITY)

    # random spanning tree, then extra chords
    order = names[:]
    rng.shuffle(order)
    for i in range(1, len(order)):
        add(order[i], rng.choice(order[:i]))
    extra = n_switches  # average degree ~4
    for _ in range(extra):
        a, b = rng.sample(names, 2)
        if (a, b) not in links:
            add(a, b)

    degree = {n: 0 for n in names}
    for (s, _) in links:
        degree[s] += 1
    by_degree = sorted(names, key=lambda n: (degree[n], n))
    n_edge = max(2, int(round(EDGE_FRACTION * n_switches)))
    edge_nodes = by_degree[:n_edge]

    nodes = {}
    port = 1
    for n in names:
        if n in edge_nodes:
            nodes[n] = Node(n, (port,))
            port += 1
        else:
            nodes[n] = Node(n, ())
    ports = [nodes[n].external_ports[0] for n in edge_nodes]
    demand_volume = LINK_CAPACITY / (2 * max(1, len(ports)))
    demands = {}
    for u in ports:
        for v in ports:
            if u != v:
                demands[(u, v)] = demand_volume
    t = Topology(nodes, links, demands)
    t.validate()
    return t
