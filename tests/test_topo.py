"""Topology model tests."""

import os

import pytest

from snapnet import topo
from snapnet.errors import InputError
from snapnet.topo import Link, Node, Topology

from conftest import TOPO_DIR


def test_example12_shape():
    t = topo.example12()
    assert len(t.nodes) == 12
    assert t.external_ports() == [1, 2, 3, 4, 5, 6]
    assert t.node_of_port(6) == "D4"
    with pytest.raises(KeyError):
        t.node_of_port(7)
    # every link is paired with its reverse
    for (s, d) in t.links:
        assert (d, s) in t.links
    assert len(t.demands) == 30


def test_json_round_trip():
    t = topo.example12()
    again = topo.from_json(topo.to_json(t))
    assert again.nodes == t.nodes
    assert again.links == t.links
    assert again.demands == t.demands


def test_committed_example12_matches_builtin():
    """The CLI tests read the committed topology file and the library
    tests call example12(); both must be the same network."""
    t = topo.load(os.path.join(TOPO_DIR, "example12.json"))
    ref = topo.example12()
    assert t.nodes == ref.nodes
    assert t.links == ref.links
    assert t.demands == ref.demands


def test_bidirectional_default_in_json():
    """A link is bidirectional unless it says otherwise, and a link listed
    from B to A sets B->A, before or after an A-B entry implies it."""
    nodes = [{"id": "A", "external_ports": [1]},
             {"id": "B", "external_ports": [2]}]
    demands = [{"u": 1, "v": 2, "volume": 1}]
    ab = {"from": "A", "to": "B", "capacity": 5}
    t = topo.from_json({"nodes": nodes, "links": [ab], "demands": demands})
    assert ("B", "A") in t.links
    assert t.links[("A", "B")].capacity == 5.0
    ba = {"from": "B", "to": "A", "capacity": 3, "bidirectional": False}
    for links in ([ab, ba], [ba, ab]):
        t = topo.from_json({"nodes": nodes, "links": links,
                            "demands": demands})
        assert t.links[("A", "B")].capacity == 5.0
        assert t.links[("B", "A")].capacity == 3.0


def test_validate_rejects_bad_inputs():
    a = Node("A", (1,))
    b = Node("B", (1,))  # duplicate port
    with pytest.raises(ValueError):
        Topology({"A": a, "B": b}, {}, {}).validate()
    with pytest.raises(ValueError):
        Topology({"A": a}, {("A", "X"): Link("A", "X", 1.0)}, {}).validate()
    with pytest.raises(ValueError):
        Topology({"A": a}, {("A", "A"): Link("A", "A", 0.0)}, {}).validate()
    with pytest.raises(ValueError, match="two distinct known switches"):
        Topology({"A": a}, {("A", "A"): Link("A", "A", 1.0)}, {}).validate()
    with pytest.raises(ValueError):
        Topology({"A": a}, {}, {(1, 9): 1.0}).validate()
    with pytest.raises(ValueError):
        Topology({"A": a}, {}, {(1, 1): -1.0}).validate()
    with pytest.raises(ValueError):
        Topology({}, {}, {}).validate()
    with pytest.raises(ValueError):
        Topology({"A": Node("A")}, {}, {}).validate()   # no external port
    two = {"A": Node("A", (1,)), "B": Node("B", (2,))}
    for cap in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="capacity"):
            Topology(two, {("A", "B"): Link("A", "B", cap)}, {}).validate()
    for vol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="volume"):
            Topology(two, {}, {(1, 2): vol}).validate()
    for port in (1.9, 1.0, True, "1"):
        with pytest.raises(ValueError, match="not an int"):
            Topology(two, {}, {(port, 2): 1.0}).validate()
        with pytest.raises(ValueError, match="not an int"):
            Topology({"A": Node("A", (port,))}, {}, {}).validate()
    with pytest.raises(ValueError, match="not a string"):
        Topology({5: Node(5, (1,)), "B": Node("B", (2,))}, {}, {}).validate()
    # what only the JSON form can say wrong
    for data, what in ((_two_switches(a=5), "not a string"),
                       (_two_switches(capacity=True), "not a number"),
                       (_two_switches(capacity="10"), "not a number"),
                       (_two_switches(volume="1e0"), "not a number"),
                       (_two_switches(volume=False), "not a number"),
                       (_two_switches(again=3, u=3), "listed twice"),
                       (_two_switches(demands=2), "listed twice")):
        with pytest.raises(InputError, match=what):
            topo.from_json(data)
    for kind, key in (("nodes", "ports"), ("links", "capcity"),
                      ("demands", "vol")):
        data = _two_switches()
        data[kind][0][key] = 3
        with pytest.raises(InputError, match=f"unknown key '{key}' in a"):
            topo.from_json(data)


def _two_switches(a="A", capacity=10, volume=1, again=None, u=1,
                  demands=1) -> dict:
    """Switches `a` (port 1) and B (port 2), linked, with a demand from
    port u to port 2 listed `demands` times, and switch `a` listed a
    second time with port `again` if given."""
    nodes = [{"id": a, "external_ports": [1]},
             {"id": "B", "external_ports": [2]}]
    if again is not None:
        nodes.append({"id": a, "external_ports": [again]})
    return {"nodes": nodes,
            "links": [{"from": a, "to": "B", "capacity": capacity}],
            "demands": [{"u": u, "v": 2, "volume": volume}] * demands}


def test_adjacency():
    t = topo.example12()
    outs = {l.dst for l in t.out_links("C1")}
    ins = {l.src for l in t.in_links("C1")}
    assert outs == ins == {"I1", "D1", "C3", "C5"}


def test_generated_is_connected_and_feasible():
    for n in (8, 20, 50):
        t = topo.generated(n)
        t.validate()
        assert len(t.nodes) == n
        # connectivity by BFS over directed links
        start = next(iter(t.nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for l in t.out_links(x):
                if l.dst not in seen:
                    seen.add(l.dst)
                    frontier.append(l.dst)
        assert seen == set(t.nodes)
        ports = t.external_ports()
        assert len(ports) == max(2, round(0.7 * n))
        assert len(t.demands) == len(ports) * (len(ports) - 1)


def test_generated_default_volume_scales_down():
    t = topo.generated(20)
    vol = next(iter(t.demands.values()))
    cap = next(iter(t.links.values())).capacity
    assert vol == cap / (2 * len(t.external_ports()))


def test_generated_is_deterministic_per_seed():
    a = topo.generated(10, seed=3)
    b = topo.generated(10, seed=3)
    c = topo.generated(10, seed=4)
    assert topo.to_json(a) == topo.to_json(b)
    assert topo.to_json(a) != topo.to_json(c)
