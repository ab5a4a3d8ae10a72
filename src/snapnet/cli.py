"""Command-line driver for the compiler pipeline and the simulator.

Subcommands: compile, deps, xfdd, map, place, reroute, export-lp,
simulate, check.  Exit codes: 0 success (and --help), 1 compile errors
(parse, race, unsupported composition), 2 infeasible placement/routing
or a failed check (of routing.json's walks and their cost, the
placement, and diagram.json; each switch's forwarding rules and
waiting-packet groups are derived from those at load), 3 usage errors
(an unknown option, a missing required one, a --budget below 1), I/O
errors, malformed topology, placement, trace or bundle files, and a
simulated packet that crosses more links than any walk may (a loop).
`place` and `compile` search the placement (ST mode), and `export-lp`
writes that model; `reroute`, and `compile` and `export-lp` given
`--placement`, hold the placement fixed and only route (TE mode).
A routing over link capacity, and an `outport` the program sets that no
switch exposes, are reported on stderr and still exit 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from . import deps, interp, lang, opt, psm, rulegen, simnet, topo
from .errors import CompileError, EvalError, InfeasibleError, InputError
from .shape import check
from .values import canon_key, format_value, value_to_json

PHASES = [
    ("P1", "state dependency"),
    ("P2", "xFDD generation"),
    ("P3", "packet-state mapping"),
    ("P4", "placement problem"),
    ("P5", "MILP solving"),
    ("P6", "rule generation"),
]


def _load_program(paths: list) -> lang.Program:
    progs = []
    for p in paths:
        with open(p) as f:
            progs.append(lang.parse(f.read()))
    return lang.compose_all(progs)


def _print_phases(times: dict) -> None:
    for key, label in PHASES:
        if key in times:
            print(f"{key} {label}: {times[key]:.3f}s", file=sys.stderr)


def _warn_overloaded(t, routing: dict) -> None:
    """One stderr line per link the routing loads beyond its capacity.
    The exit code stays 0: `exact` is false and the result stands."""
    for (a, b), load, cap in opt.overloaded_links(t, routing):
        print(f"warning: link {a}->{b} carries {load:.2f} > capacity {cap}",
              file=sys.stderr)


def _warn_unexposed(t, nodes: dict) -> None:
    """One stderr line per `outport` that a leaf of the diagram sets and
    no switch of `t` exposes: the interpreter returns such a packet and
    the simulator drops it.  (A sequence that drops the packet holds no
    modification.)  The exit code stays 0."""
    exposed = set(t.external_ports())
    unexposed = {a.value for node in nodes.values() if node[0] == "leaf"
                 for elem in node[1] for a in elem
                 if type(a) is lang.Mod and a.field == "outport"
                 and a.value not in exposed}
    for v in sorted(unexposed, key=canon_key):
        print(f"warning: the program sets outport {format_value(v)}, which "
              "no switch exposes; the simulator drops such packets",
              file=sys.stderr)


def _fixed_placement(args) -> dict | None:
    if getattr(args, "placement", None) is None:
        return None
    with open(args.placement) as f:
        data = json.load(f)
    if isinstance(data, dict):
        data = data.get("placement", data)
    try:
        return check(data, {str: str})
    except InputError as e:
        raise InputError(f"placement: {e}") from e


# ---------------------------------------------------------------- commands

def cmd_compile(args) -> int:
    prog = _load_program(args.policy)
    t = topo.load(args.topology)
    times: dict = {}
    bundle = rulegen.compile(prog, t, fixed=_fixed_placement(args),
                             budget=args.budget, phase_times=times)
    _print_phases(times)
    _warn_overloaded(t, bundle.routing)
    _warn_unexposed(t, bundle.nodes)
    rulegen.write_bundle(bundle, args.output)
    print(json.dumps({"placement": bundle.placement,
                      "objective": bundle.objective,
                      "exact": bundle.exact, "output": args.output},
                     sort_keys=True))
    return 0


def cmd_deps(args) -> int:
    prog = _load_program(args.policy)
    g = deps.st_dep_program(prog)
    order = deps.order_spec(g)
    print(json.dumps({
        "groups": order.groups,
        "dep": sorted(list(p) for p in order.dep),
        "tied": sorted(list(p) for g in order.groups
                       for p in itertools.combinations(g, 2)),
        "rank": order.state_rank,
    }, sort_keys=True))
    if args.dot:
        with open(args.dot, "w") as f:
            f.write(deps.to_dot(g))
    return 0


def cmd_xfdd(args) -> int:
    prog = _load_program(args.policy)
    dot = rulegen.bundle_dot(*rulegen.diagram(
        prog, deps.order_spec_program(prog)))
    if args.output:
        with open(args.output, "w") as f:
            f.write(dot)
    else:
        print(dot, end="")
    return 0


def _demand(prog, t):
    """(order, flow demand map, (nodes, root)) of `prog` on topology `t`."""
    order = deps.order_spec_program(prog)
    diagram = rulegen.diagram(prog, order)
    return order, psm.packet_state_map(*diagram, t, order, prog), diagram


def cmd_map(args) -> int:
    prog = _load_program(args.policy)
    t = topo.load(args.topology)
    _, demand, _ = _demand(prog, t)
    print(json.dumps({"flows": demand.to_json_lines()}, sort_keys=True))
    return 0


def cmd_place(args) -> int:
    """`place` searches the placement and routes; `reroute` routes only,
    with the `--placement` held fixed (e.g. after a topology or demand
    change), so it takes no search budget."""
    prog = _load_program(args.policy)
    t = topo.load(args.topology)
    order, demand, (nodes, _) = _demand(prog, t)
    m = opt.build_milp(t, demand, order, fixed=_fixed_placement(args))
    sol = opt.solve_builtin(m, budget=getattr(args, "budget", 4096))
    _warn_overloaded(t, sol.routing)
    _warn_unexposed(t, nodes)
    print(json.dumps({"placement": sol.placement,
                      "routing": opt.routing_to_json(sol.routing),
                      "objective": sol.objective, "exact": sol.exact,
                      "candidates": sol.candidates,
                      "examined": sol.examined}, sort_keys=True))
    return 0


def cmd_export_lp(args) -> int:
    prog = _load_program(args.policy)
    t = topo.load(args.topology)
    order, demand, _ = _demand(prog, t)
    m = opt.build_milp(t, demand, order, fixed=_fixed_placement(args))
    text = opt.export_lp(m)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        print(text, end="")
    return 0


def cmd_simulate(args) -> int:
    t = topo.load(args.topology)
    net = simnet.load(args.bundle, t, seed=args.seed,
                      events=bool(args.events))
    injections = simnet.read_trace(args.trace, t, net.bundle.fields)
    emitted = []
    try:
        for port, pkt in injections:
            emitted.extend(net.inject(port, pkt, mode=args.mode))
        if args.mode == "interleaved":
            net.run()
            emitted = net.emissions
    except EvalError as e:
        # a trace packet without a field the diagram tests, or a loop
        raise InputError(f"simulation: {e}") from e
    for port, pkt in emitted:
        print(json.dumps({"port": port,
                          "packet": {f: value_to_json(v)
                                     for f, v in pkt.items()}},
                         sort_keys=True))
    if args.events:
        with open(args.events, "w") as f:
            for row in simnet.trace_to_json(net.trace):
                f.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


def cmd_check(args) -> int:
    t = topo.load(args.topology)
    bundle = rulegen.read_bundle(args.bundle)
    problems = rulegen.validate_bundle(bundle, t)
    if args.policy:
        prog = _load_program(args.policy)
        for kind, ours, theirs in (("state", bundle.states, prog.states),
                                   ("field", bundle.fields, prog.fields)):
            for name in sorted(ours.keys() | theirs.keys()):
                a, b = (lang.pretty_decl(d[name]) if name in d else "nothing"
                        for d in (ours, theirs))
                if a != b:
                    problems.append(f"{kind} {name!r}: the bundle declares "
                                    f"{a}, the program {b}")
        order, demand, (nodes, root) = _demand(prog, t)
        problems.extend(f"dep: ({s!r}, {u!r}) is in the "
                        f"{'bundle' if (s, u) in bundle.dep else 'program'}"
                        " only" for s, u in sorted(bundle.dep ^ order.dep))
        if root != bundle.root:
            problems.append(f"diagram: root {bundle.root}, not {root}")
        problems.extend(f"diagram: node {nid} differs from the program's"
                        for nid in sorted(nodes.keys() | bundle.nodes.keys())
                        if nodes.get(nid) != bundle.nodes.get(nid))
        m = opt.build_milp(t, demand, order)
        for v in opt.check_solution(m, bundle.placement,
                                    bundle.routing):
            problems.append(f"{v.constraint}: {v.lhs} {v.sense} {v.rhs}")
    print(json.dumps({"ok": not problems, "problems": problems},
                     sort_keys=True))
    return 0 if not problems else 2


# ---------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError (exit 3): argparse's own exit code 2
    means an infeasible placement or a failed check here."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="snapnet",
        description="Compile stateful one-big-switch policies to "
                    "distributed switch configurations and simulate them.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def policy_opt(p, required=True):
        p.add_argument("-p", "--policy", action="append", required=required,
                       default=None, help="policy file (repeatable; "
                       "multiple files are composed in sequence)")

    def topo_opt(p):
        p.add_argument("-t", "--topology", required=True,
                       help="topology JSON file")

    p = sub.add_parser("compile", help="run the full pipeline to a bundle")
    policy_opt(p)
    topo_opt(p)
    p.add_argument("-o", "--output", required=True, help="bundle directory")
    p.add_argument("--placement",
                   help="fixed placement JSON (TE mode; default: search)")
    p.add_argument("--budget", type=int, default=4096)

    p = sub.add_parser("deps", help="state dependency analysis")
    policy_opt(p)
    p.add_argument("--dot", help="write the dependency graph as dot")

    p = sub.add_parser("xfdd", help="emit the program diagram as dot")
    policy_opt(p)
    p.add_argument("-o", "--output")

    p = sub.add_parser("map", help="packet-state mapping per flow")
    policy_opt(p)
    topo_opt(p)

    p = sub.add_parser("place", help="joint placement and routing")
    policy_opt(p)
    topo_opt(p)
    p.add_argument("--budget", type=int, default=4096)

    p = sub.add_parser("reroute", help="re-route with placement fixed")
    policy_opt(p)
    topo_opt(p)
    p.add_argument("--placement", required=True,
                   help="fixed placement JSON")

    p = sub.add_parser("export-lp", help="write the optimization as LP text")
    policy_opt(p)
    topo_opt(p)
    p.add_argument("-o", "--output")
    p.add_argument("--placement",
                   help="fixed placement JSON (TE mode; default: search)")

    p = sub.add_parser("simulate", help="run a trace through a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--topo", dest="topology", required=True)
    p.add_argument("--trace", required=True,
                   help="JSON-lines file of {port, packet} injections")
    p.add_argument("--mode", choices=["serialized", "interleaved"],
                   default="serialized")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", help="write the event trace as JSON lines")

    p = sub.add_parser("check", help="validate a bundle against a topology")
    p.add_argument("--bundle", required=True)
    p.add_argument("--topo", dest="topology", required=True)
    policy_opt(p, required=False)

    return ap


COMMANDS = {
    "compile": cmd_compile,
    "deps": cmd_deps,
    "xfdd": cmd_xfdd,
    "map": cmd_map,
    "place": cmd_place,
    "reroute": cmd_place,
    "export-lp": cmd_export_lp,
    "simulate": cmd_simulate,
    "check": cmd_check,
}


def main(argv: list | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return COMMANDS[args.cmd](args)
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    except CompileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"bad input: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
