"""Flow-to-state demand mapping tests."""

import hashlib
import json
from ipaddress import IPv4Address

import pytest

from snapnet import deps, lang, psm, rulegen, topo
from snapnet.xfdd import TFieldField, TFieldValue

from conftest import CORPUS, policy_src
from helpers import demand_map


def demand_for(names):
    prog = lang.compose_all([lang.parse(policy_src(n)) for n in names])
    return prog, demand_map(prog, topo.example12())[1]


def test_dns_tunnel_demand_shape():
    """Traffic toward the DNS-server port needs all three variables; reply
    traffic from it needs only the two consulted on the return path."""
    _, dem = demand_for(["dns-tunnel-detect", "assign-egress", "assumption"])
    ports = [1, 2, 3, 4, 5, 6]
    for u in ports:
        if u == 6:
            continue
        assert dem.states_for(u, 6) == ("orphan", "susp-client", "blacklist")
    for v in ports:
        if v == 6:
            continue
        assert dem.states_for(6, v) == ("orphan", "susp-client")


def test_states_listed_in_dependency_order():
    _, dem = demand_for(["dns-tunnel-detect", "assign-egress", "assumption"])
    for states in dem.flows.values():
        idx = [("orphan", "susp-client", "blacklist").index(s)
               for s in states]
        assert idx == sorted(idx)


def test_stateless_flows_absent():
    prog = lang.parse(policy_src("assign-egress"))
    _, dem = demand_map(prog, topo.example12())
    assert dem.flows == {}


def test_unconstrained_ingress_charges_all_ports():
    prog = lang.parse("state s[1] default 0;\ns[0]++; outport <- 3")
    _, dem = demand_map(prog, topo.example12())
    for u in [1, 2, 3, 4, 5, 6]:
        assert dem.states_for(u, 3) == ("s",)
        for v in [1, 2, 4, 5, 6]:
            assert dem.states_for(u, v) == ()


def test_json_lines_sorted_and_complete():
    _, dem = demand_for(["dns-tunnel-detect", "assign-egress", "assumption"])
    rows = dem.to_json_lines()
    keys = [(r["u"], r["v"]) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == len(dem.flows)
    for r in rows:
        assert tuple(r["states"]) == dem.states_for(r["u"], r["v"])


def bundle_map(tmp_path, prog, t, order, budget=4096):
    """The flow map of `prog`'s bundle, written and loaded again, walked
    under the bundle's own declarations and not under `prog`."""
    rulegen.write_bundle(rulegen.compile(prog, t, budget=budget),
                         str(tmp_path))
    loaded = rulegen.load_bundle(str(tmp_path), t)
    declared = lang.Program(loaded.states, loaded.fields, None, lang.Id())
    return psm.packet_state_map(loaded.nodes, loaded.root, t, order,
                                declared)


@pytest.mark.pinned
def test_flow_maps_are_pinned_and_read_from_a_bundle(tmp_path):
    """The flow -> variables map of every corpus policy composed with
    assign-egress, on example12 and on generated(20, 3), hashes to the
    digest the walk over the builder's arena gave before P3 read the
    numbered diagram.  Each compile's bundle, written and loaded again,
    holds the diagram and the declarations that give the same map."""
    h = hashlib.sha256()
    g20 = topo.generated(20, 3)
    for name in CORPUS:
        prog = lang.compose_all([lang.parse(policy_src(n))
                                 for n in (name, "assign-egress")])
        for t, budget in ((topo.example12(), 4096), (g20, 64)):
            order, demand = demand_map(prog, t)
            h.update(json.dumps(demand.to_json_lines(), sort_keys=True)
                     .encode() + b"\n")
            out = tmp_path / f"{name}-{len(t.nodes)}"
            assert bundle_map(out, prog, t, order, budget) == demand, (
                name, len(t.nodes))
    assert h.hexdigest() == (
        "9bfb6f1c8a1beb878b6c3baf13d0de81e8b8443829d7507054b284e9fedb7958")


def test_bundle_domains_bound_the_flow_map(tmp_path):
    """With `field inport : int in {1, 2};` prepended to stateful-fw, the
    compile charges 12 flows.  The walk over its bundle gives the same 12
    under the bundle's declarations, which hold that domain; without any
    domain it charges 36."""
    prog = lang.compose_all([
        lang.parse("field inport : int in {1, 2};\n"
                   + policy_src("stateful-fw")),
        lang.parse(policy_src("assign-egress"))])
    t = topo.example12()
    order, demand = demand_map(prog, t)
    assert len(demand.flows) == 12
    assert bundle_map(tmp_path, prog, t, order) == demand
    loaded = rulegen.load_bundle(str(tmp_path), t)
    assert len(psm.packet_state_map(loaded.nodes, loaded.root, t, order,
                                    None).flows) == 36


def test_a_side_that_contradicts_its_path_charges_no_flow():
    """Under dstip = 10.0.0.1 and srcip != 10.0.0.1, `imply` leaves
    dstip = srcip open, yet its hi side contradicts the path: a bundle's
    diagram may branch there, and the leaf on that side, which no packet
    reaches, charges no flow.  Walked from the field-field test alone,
    the same leaf charges s to every flow to port 2."""
    prog = lang.parse("field srcip;\nfield dstip;\nstate s[1] default 0;\nid")
    a1 = IPv4Address("10.0.0.1")
    write = (lang.StateSet("s", lang.Lit(0), lang.Lit(1)),
             lang.Mod("outport", 2))
    nodes = {0: ("branch", TFieldValue("dstip", a1), 1, 4),
             1: ("branch", TFieldValue("srcip", a1), 4, 2),
             2: ("branch", TFieldField("dstip", "srcip"), 3, 4),
             3: ("leaf", (write,)),
             4: ("leaf", ((),))}
    t = topo.example12()
    order = deps.order_spec_program(prog)
    assert psm.packet_state_map(nodes, 0, t, order, prog).flows == {}
    assert psm.packet_state_map(nodes, 2, t, order, prog).flows == {
        (u, 2): ("s",) for u in t.external_ports()}
