"""Distributed data-plane generation.

Says which part of the compiled program diagram each switch runs
(`split_xfdd`), defines the in-network header protocol that lets a
packet's processing resume on the next switch, and emits per-switch
routing tables: each flow's rules follow its one designated walk, and
packets whose egress is not yet known select among the candidate walks
in proportion to the flows' demands.

Execution protocol (shared with the simulator):
  * The packet body in flight is the ENTRY packet: branch tests and the
    canonical leaf state operations are all expressed relative to it, so
    field modifications are deferred until the packet's effect is final.
  * A switch executes diagram nodes from its fragment until it reaches a
    node it does not hold (a state test on a foreign variable); it then
    tags the packet with that resume point and forwards it toward the
    variable's owner, by the switch's group for the packet's inport and
    that variable (every resume point of one variable shares it).
  * Reaching a leaf forks one copy per action sequence.  Copies whose
    final output packet would duplicate another copy's are marked
    non-emitting; they only carry state updates.
  * A copy executes its action sequence's state operations at their
    owners: whichever switch it stands on runs those it owns (they
    address distinct variables, so their order does not matter) and
    forwards it toward the owner of the lowest one left.  Once none
    remain, the field modifications are applied, the egress port is
    final, and the packet is routed to it and emitted with the header
    stripped.
The simulator carries the header with the entry packet as one record,
`simnet._Copy`, whose docstring gives its fields.  A bundle says each
fact once: the program's declarations (`program.snap`), the placement
and the dependency relation (`placement.json`), the pruned and numbered
diagram (`diagram.json`) and the walks (`routing.json`), as
`write_bundle` says.  `load_bundle` derives each switch's rules and
waiting-packet groups from them as a compile does (`gen_routing`): a
rule is a flow's next hop, and a walk's last switch, which owns the
flow's egress port, has none.  The simulator cuts each switch's
fragment from the diagram and the placement.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

from . import deps, lang, opt, psm, shape, xfdd
from .errors import InputError, ParseError


@dataclass
class DeploymentBundle:
    """A compiled deployment.  The rules and groups follow from the other
    fields (`gen_routing`), so a written bundle leaves them out."""
    mode: str
    placement: dict              # state var -> switch id
    routing: dict                # (u, v) -> walk (node, ...)
    nodes: dict                  # nid -> node, the whole program diagram
    root: int
    rules: dict                  # switch id -> {(u, v): next hop}
    groups: dict                 # switch id -> {(u, var): ((w, v, next), ...)}
    states: dict                 # the program's declarations
    fields: dict                 # (`lang.Program.states`, `.fields`)
    dep: frozenset               # `deps.OrderSpec.dep`: pairs (s, t)
    objective: float = 0.0
    exact: bool = False


# ---------------------------------------------------------------- numbering

def number_nodes(arena: xfdd.Arena, root: int) -> tuple:
    """Stable global ids: pre-order traversal, high branch first.  Returns
    (nodes, root_id) with nodes: nid -> ("branch", test, hi, lo) or
    ("leaf", (elem, ...)) with elements in canonical order."""
    nid_of: dict = {}
    order: list = []

    def visit(i: int):
        if i in nid_of:
            return
        nid_of[i] = len(order)
        order.append(i)
        if not arena.is_leaf(i):
            visit(arena.hi(i))
            visit(arena.lo(i))

    visit(root)
    nodes: dict = {}
    for i in order:
        nid = nid_of[i]
        if arena.is_leaf(i):
            elems = tuple(sorted(arena.elems(i), key=xfdd.elem_key))
            nodes[nid] = ("leaf", elems)
        else:
            nodes[nid] = ("branch", arena.test_of(i),
                          nid_of[arena.hi(i)], nid_of[arena.lo(i)])
    return nodes, nid_of[root]


def diagram(prog: lang.Program, order) -> tuple:
    """The program diagram every phase after P2 reads: built, race-checked,
    pruned of tests no outcome depends on, and numbered (`number_nodes`)."""
    b = xfdd.Builder(prog, order)
    return number_nodes(b.arena, b.prune_vacuous(b.to_xfdd_program()))


# ---------------------------------------------------------------- splitting

def split_xfdd(nodes: dict, root: int, placement: dict, topo) -> dict:
    """Per-switch fragments (nid -> node): the nodes a switch walks.  An
    ingress switch holds the stateless prefix from the root; the owner of
    a variable holds every maximal subdiagram rooted at one of its state
    tests, continuing through stateless nodes and its own state tests
    down to the leaves and the next foreign state test, where a packet
    waits for that test's owner.  A leaf's state operations run wherever
    the packet's copy stands, at their owners, so leaves need no other
    holder."""
    frags: dict = {sid: {} for sid in topo.nodes}

    def expand(sid: str, nid: int):
        frag = frags[sid]
        if nid in frag:
            return
        node = nodes[nid]
        if (node[0] == "branch" and isinstance(node[1], xfdd.TStateTest)
                and placement.get(node[1].var) != sid):
            return                      # foreign boundary: resume point
        frag[nid] = node
        if node[0] == "branch":
            expand(sid, node[2])
            expand(sid, node[3])

    for sid in topo.nodes:
        if topo.nodes[sid].external_ports:
            expand(sid, root)
    for nid, node in nodes.items():
        if node[0] == "branch" and isinstance(node[1], xfdd.TStateTest):
            expand(placement[node[1].var], nid)
    return frags


# ---------------------------------------------------------------- routing

def gen_routing(routing: dict, placement: dict, demand, topo, dep) -> tuple:
    """(rules, groups), each switch -> table, from one pass over the hops
    of each walk of `routing` ({(u, v): walk}).  A packet that comes back
    to a switch leaves it the later way, so `dict(hops)` gives each switch
    its hop.

    A rule, keyed (obs_inport, obs_outport), is the flow's next hop; the
    walk's last switch, which emits on v, has none.  A group, keyed
    (obs_inport, state variable), has a row (demand, v, next hop) for
    each flow (u, v) that visits the switch before its stop at the
    variable's owner (`opt.exec_positions`).  A packet blocked at any
    resume point of the variable picks a row in proportion to the
    demands and is tagged with the path identifier (u, v).  The flows
    run in sorted order, so each group's rows are in order of v."""
    rules: dict = {sid: {} for sid in topo.nodes}
    groups: dict = {sid: {} for sid in topo.nodes}
    for (u, v), walk in sorted(routing.items()):
        hops = list(zip(walk, walk[1:]))
        for a, b in dict(hops).items():
            if a != walk[-1]:
                rules[a][(u, v)] = b
        w = topo.demands.get((u, v), 0.0)
        for s, stop in opt.exec_positions(walk, demand.states_for(u, v),
                                          placement, dep).items():
            for a, b in dict(hops[:stop]).items():
                groups[a].setdefault((u, s), []).append((w, v, b))
    return rules, {sid: {k: tuple(rows) for k, rows in table.items()}
                   for sid, table in groups.items()}


# ---------------------------------------------------------------- pipeline

def compile(prog: lang.Program, topo, fixed: dict | None = None,
            budget: int = 4096,
            phase_times: dict | None = None) -> DeploymentBundle:
    """End-to-end pipeline: dependency order (P1), the numbered diagram
    (P2, `diagram`), flow demand mapping (P3), placement/routing (P4, P5)
    and rule generation (P6); no phase after P2 sees the builder.
    `fixed` forces a placement and selects TE mode (traffic-engineering
    reruns and controlled experiments); without it the placement is
    searched (ST mode) under `budget`.  The bundle's `mode` records which.
    Recompiling identical inputs yields an identical bundle."""
    times = phase_times if phase_times is not None else {}

    t0 = time.monotonic()
    order = deps.order_spec_program(prog)
    times["P1"] = time.monotonic() - t0

    t0 = time.monotonic()
    nodes, root = diagram(prog, order)
    times["P2"] = time.monotonic() - t0

    t0 = time.monotonic()
    demand = psm.packet_state_map(nodes, root, topo, order, prog)
    times["P3"] = time.monotonic() - t0

    t0 = time.monotonic()
    m = opt.build_milp(topo, demand, order, fixed=fixed)
    times["P4"] = time.monotonic() - t0

    t0 = time.monotonic()
    sol = opt.solve_builtin(m, budget=budget)
    times["P5"] = time.monotonic() - t0

    t0 = time.monotonic()
    rules, groups = gen_routing(sol.routing, sol.placement, demand, topo,
                                m.dep)
    times["P6"] = time.monotonic() - t0

    return DeploymentBundle(mode="ST" if fixed is None else "TE",
                            placement=dict(sol.placement),
                            routing=sol.routing, nodes=nodes, root=root,
                            rules=rules, groups=groups, states=prog.states,
                            fields=prog.fields, dep=m.dep,
                            objective=sol.objective, exact=sol.exact)


# ---------------------------------------------------------------- dot

def bundle_dot(nodes: dict, root: int) -> str:
    lines = ["digraph xfdd {", "  node [shape=box];"]

    def fmt_atom(x) -> str:
        if x is xfdd.DROP:
            return "drop"
        return lang.pretty_policy(x)

    for nid in sorted(nodes):
        node = nodes[nid]
        if node[0] == "leaf":
            label = "{" + "; ".join(
                ", ".join(fmt_atom(a) for a in elem) or "id"
                for elem in node[1]) + "}"
            lines.append(f'  n{nid} [shape=ellipse, label="{label}"];')
        else:
            lines.append(
                f'  n{nid} [label="{xfdd.format_test(node[1])}"];')
    for nid in sorted(nodes):
        node = nodes[nid]
        if node[0] == "branch":
            lines.append(f"  n{nid} -> n{node[2]} [style=solid];")
            lines.append(f"  n{nid} -> n{node[3]} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- bundle IO

def _diagram_to_json(nodes: dict, root: int) -> dict:
    """diagram.json: each distinct test and atom once, in the `tests` and
    `atoms` tables in order of first use in node-id order, and the nodes
    by id, each naming its test or atoms by table index.  A node's id is
    its position in `nodes`."""
    tests: dict = {}
    atoms: dict = {}
    rows = []
    for nid in range(len(nodes)):
        node = nodes[nid]
        if node[0] == "leaf":
            rows.append({"kind": "leaf", "elems": [
                [atoms.setdefault(a, len(atoms)) for a in elem]
                for elem in node[1]]})
        else:
            rows.append({"kind": "branch",
                         "test": tests.setdefault(node[1], len(tests)),
                         "hi": node[2], "lo": node[3]})
    return {"root": root,
            "tests": [xfdd.to_json(t, xfdd.TEST) for t in tests],
            "atoms": [xfdd.to_json(a, xfdd.ATOM) for a in atoms],
            "nodes": rows}


# placement.json and diagram.json, as `write_bundle` writes them
PLACEMENT = {"mode": {"ST", "TE"}, "objective": float, "exact": bool,
             "placement": {str: str}, "dep": [(str, str)]}
DIAGRAM = {"root": int, "tests": [xfdd.TEST], "atoms": [xfdd.ATOM],
           "nodes": [shape.Tagged("kind", {
               "leaf": (dict, {"elems": [[int]]}),
               "branch": (dict, {"test": int, "hi": int, "lo": int})})]}


def _diagram_from_json(d: dict) -> dict:
    """The root and the nodes (id -> node) of a `DIAGRAM`, each table
    entry decoded once, so leaves share their atoms; ValueError naming
    a table entry whose value is bad, an index that is not one of its
    table's, and a leaf with no action sequence."""
    shape.check(d, DIAGRAM)

    def decoded(name, table) -> list:
        out = []
        for i, x in enumerate(d[name]):
            try:
                out.append(xfdd.from_json(x, table))
            except (OverflowError, ValueError) as e:
                raise ValueError(f"{name}[{i}]: {e}") from e
        return out

    tests = decoded("tests", xfdd.TEST)
    atoms = decoded("atoms", xfdd.ATOM)

    def entry(table, name, i, where):
        if not 0 <= i < len(table):
            raise ValueError(f"{where} {i} is not an index of the "
                             f"{len(table)} {name}")
        return table[i]

    nodes = {}
    for nid, n in enumerate(d["nodes"]):
        if n["kind"] == "leaf":
            if not n["elems"]:
                raise ValueError(f"nodes[{nid}].elems is empty: a leaf has "
                                 "at least one action sequence")
            nodes[nid] = ("leaf", tuple(
                tuple(entry(atoms, "atoms", k, f"nodes[{nid}].elems[{e}][{j}]")
                      for j, k in enumerate(elem))
                for e, elem in enumerate(n["elems"])))
        else:
            nodes[nid] = ("branch", entry(tests, "tests", n["test"],
                                          f"nodes[{nid}].test"),
                          n["hi"], n["lo"])
    return {"root": d["root"], "nodes": nodes}


def _dump(path: str, obj: dict) -> None:
    """Write `obj` as JSON with sorted keys and no spaces, each item of a
    top-level list on a line of its own."""
    compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    fields = []
    for key in sorted(obj):
        value = obj[key]
        fields.append(compact(key) + ":" + (
            "[\n" + ",\n".join(map(compact, value)) + "\n]"
            if isinstance(value, list) and value else compact(value)))
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(fields) + "\n}\n")


def write_bundle(bundle: DeploymentBundle, dirpath: str) -> None:
    """Write the bundle's four files into `dirpath`: the program's
    declarations, with body `id`, to `program.snap`; the mode, objective,
    exactness, placement and the dependency relation `dep` (sorted
    [s, t] pairs) to `placement.json`; the numbered diagram once, to
    `diagram.json` (`_diagram_to_json`); and the walks to
    `routing.json`, each JSON part one compact record per line
    (`_dump`).  The rules and groups are left out: `load_bundle`
    derives them.
    An older bundle's `switch/*.json` files are removed, and then its
    `switch/` directory if that leaves it empty."""
    swdir = os.path.join(dirpath, "switch")
    if os.path.isdir(swdir):
        for name in os.listdir(swdir):
            if name.endswith(".json"):
                os.remove(os.path.join(swdir, name))
        if not os.listdir(swdir):
            os.rmdir(swdir)
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "program.snap"), "w") as f:
        f.write(lang.pretty(lang.Program(bundle.states, bundle.fields,
                                         None, lang.Id())))
    _dump(os.path.join(dirpath, "placement.json"),
          {"mode": bundle.mode, "objective": bundle.objective,
           "exact": bundle.exact,
           "placement": bundle.placement,
           "dep": sorted(list(p) for p in bundle.dep)})
    _dump(os.path.join(dirpath, "diagram.json"),
          _diagram_to_json(bundle.nodes, bundle.root))
    _dump(os.path.join(dirpath, "routing.json"),
          {"flows": opt.routing_to_json(bundle.routing)})


def _read_part(path: str, decode, parse=json.loads):
    """decode(parse(the text of `path`)); InputError naming the file when
    it is missing (as in a bundle written before that part came), does
    not parse, or is not of its table's shape."""
    try:
        with open(path) as f:
            return decode(parse(f.read()))
    except FileNotFoundError:
        raise InputError(f"{path}: not found; compile the bundle "
                         "again") from None
    except (OverflowError, ParseError, ValueError) as e:
        raise InputError(f"{path}: {e}") from e


def read_bundle(dirpath: str) -> DeploymentBundle:
    """The bundle `write_bundle` wrote to `dirpath`, with no rules or
    groups.
    InputError names a part that is missing (as in a bundle written
    before that part came) or does not parse, a JSON part not of its
    table's shape (`PLACEMENT`, `DIAGRAM`, `opt.ROUTING`), a diagram
    index that is not one of its table's, and a flow listed twice."""
    prog = _read_part(os.path.join(dirpath, "program.snap"), lambda p: p,
                      parse=lang.parse)
    kw = {"states": prog.states, "fields": prog.fields}
    for name, decode in (
            ("placement.json", lambda d: dict(
                shape.check(d, PLACEMENT),
                dep=frozenset(map(tuple, d["dep"])))),
            ("diagram.json", _diagram_from_json),
            ("routing.json", lambda d: {"routing": opt.routing_from_json(
                shape.check(d, opt.ROUTING)["flows"])})):
        kw.update(_read_part(os.path.join(dirpath, name), decode))
    return DeploymentBundle(rules={}, groups={}, **kw)


def load_bundle(dirpath: str, topo) -> DeploymentBundle:
    """`read_bundle`, with the rules and groups derived as a compile
    derives them (`gen_routing`) on `topo`.  A bundle that fails
    `validate_bundle` raises InputError (`require_valid`) before the
    derivation reads it."""
    bundle = read_bundle(dirpath)
    require_valid(bundle, topo)
    dep = bundle.dep
    order = deps.order_spec(deps.DependencyGraph(
        frozenset(bundle.states).union(*dep), dep))
    prog = lang.Program(bundle.states, bundle.fields, None, lang.Id())
    demand = psm.packet_state_map(bundle.nodes, bundle.root, topo, order,
                                  prog)
    bundle.rules, bundle.groups = gen_routing(
        bundle.routing, bundle.placement, demand, topo, dep)
    return bundle


# ---------------------------------------------------------------- checks

def _back_edges(nodes: dict, root: int) -> list:
    """The (node, child) edges that close a cycle, found by one
    depth-first pass from the root (high child first) over the children
    that are nodes of the diagram."""
    if root not in nodes:
        return []
    out = []
    done = set()
    on_path = {root}
    stack = [(root, iter(nodes[root][2:]))]
    while stack:
        nid, children = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            on_path.discard(nid)
            done.add(nid)
        elif child in on_path:
            out.append((nid, child))
        elif child in nodes and child not in done:
            on_path.add(child)
            stack.append((child, iter(nodes[child][2:])))
    return out


def validate_bundle(bundle: DeploymentBundle, topo) -> list:
    """Structural validators: a placement of exactly the declared
    variables (`bundle.states`) and of those the diagram names, on
    switches of the topology, a `dep` over declared variables, a root and
    children that name nodes of the diagram, state tests and operations
    that index a declared variable with its declared arity, and a walk
    for exactly the topology's demands, each from u's switch to v's over
    links of the topology, none of them twice.  Once every demand has
    such a walk, the objective must be the walks' cost, each flow's
    demand times the sum of 1/capacity over its links, to a relative
    1e-9.  No child may lead back to a node above it: a packet's walk of
    the diagram would follow that cycle for ever.  One pass over the
    nodes checks them and collects the variables they name.  The rules
    and groups are not checked: a compile and `load_bundle` both derive
    them from the other fields (`gen_routing`), so a fault there is not
    seen here.  Returns a list of problem strings (empty means ok)."""
    declared = set(bundle.states)
    named: set = set()          # the variables the diagram's nodes name
    node_problems = []
    for nid, node in sorted(bundle.nodes.items()):
        if node[0] == "branch":
            node_problems.extend(
                f"node {nid} references unknown node {child}"
                for child in node[2:] if child not in bundle.nodes)
            used = [node[1]] if isinstance(node[1], xfdd.TStateTest) else []
        else:
            used = [a for elem in node[1] for a in elem if lang.is_state_op(a)]
        for s, n in sorted({(a.var, lang.expr_arity(a.index)) for a in used}):
            named.add(s)
            if s in declared and n != bundle.states[s].arity:
                node_problems.append(
                    f"node {nid} indexes {s!r} with arity {n}, not the "
                    f"declared {bundle.states[s].arity}")
    problems = [f"state variable {s!r} is unplaced" for s in sorted(
        (declared | named) - set(bundle.placement))]
    for s, sid in sorted(bundle.placement.items()):
        if s not in declared:
            problems.append(f"placement of {s!r}, which the program does "
                            "not declare")
        elif sid not in topo.nodes:
            problems.append(f"placement of {s!r} on unknown switch {sid!r}")
    problems.extend(f"dep pair {p!r} names {s!r}, which the program does "
                    "not declare"
                    for p in sorted(bundle.dep) for s in p if s not in declared)
    if bundle.root not in bundle.nodes:
        problems.append(f"root {bundle.root} is not a node of the bundle")
    problems += node_problems
    problems.extend(f"node {nid} leads back to node {child}, a cycle"
                    for nid, child in _back_edges(bundle.nodes, bundle.root))
    problems.extend(f"flow ({u},{v}) has no walk" for u, v
                    in sorted(set(topo.demands) - set(bundle.routing)))
    sound: dict = {}    # flow -> its walk, if that passed the checks
    for (u, v), path in bundle.routing.items():
        if (u, v) not in topo.demands:
            problems.append(f"walk of flow ({u},{v}), which is not a "
                            "demand of the topology")
            continue
        before = len(problems)
        ends = (topo.node_of_port(u), topo.node_of_port(v))
        if (path[0], path[-1]) != ends:
            problems.append(f"walk of flow ({u},{v}) runs {path[0]}->"
                            f"{path[-1]}, not {ends[0]}->{ends[1]}")
        hops = list(zip(path, path[1:]))
        problems.extend(f"walk of flow ({u},{v}) crosses {a}->{b}, not a "
                        "link" for a, b in hops if (a, b) not in topo.links)
        if len(set(hops)) < len(hops):
            problems.append(f"walk of flow ({u},{v}) reuses a link")
        if len(problems) == before:
            sound[(u, v)] = path
    if len(sound) == len(topo.demands):
        cost = sum(topo.demands[f] * sum(1 / topo.links[link].capacity
                                         for link in zip(path, path[1:]))
                   for f, path in sound.items())
        if not math.isclose(bundle.objective, cost, rel_tol=1e-9):
            problems.append(f"objective {bundle.objective!r}, but the walks "
                            f"cost {cost!r}")
    return problems


def require_valid(bundle: DeploymentBundle, topo) -> None:
    """InputError listing `validate_bundle`'s problems, if it has any."""
    problems = validate_bundle(bundle, topo)
    if problems:
        raise InputError("inconsistent bundle: " + "; ".join(problems))
