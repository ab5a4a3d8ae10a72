"""Packet-state mapping: which flows need which state variables.

Walks every satisfiable root-to-leaf path of the numbered diagram.  A path
constrains the possible ingress ports (inport tests) and egress ports
(outport assignments in the leaf, or outport tests on the path when no
assignment fixes it); the state variables read on the path and written in
the leaf are charged to every compatible (ingress, egress) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .xfdd import (
    DROP, Context, Contradiction, TFieldValue, TStateTest,
    seq_writes,
)


@dataclass
class StateDemand:
    flows: dict          # (u, v) -> tuple of state variables, in state order

    def states_for(self, u: int, v: int) -> tuple:
        return self.flows.get((u, v), ())

    def to_json_lines(self) -> list:
        out = []
        for (u, v) in sorted(self.flows):
            out.append({"u": u, "v": v,
                        "states": list(self.flows[(u, v)])})
        return out


def packet_state_map(nodes: dict, root: int, topo, order, prog) -> StateDemand:
    """`nodes`, `root`: the numbered diagram of `prog` (`rulegen.diagram`),
    assumption included and unobservable tests pruned; `prog`'s field
    domains bound the paths, as they did while the diagram was built."""
    ports = topo.external_ports()
    acc: dict = {}

    def leaf(ctx: Context, path_vars: frozenset, elems: tuple):
        us = [u for u in ports
              if ctx.imply(TFieldValue("inport", u)) is not False]
        default_vs = [v for v in ports
                      if ctx.imply(TFieldValue("outport", v)) is not False]
        for e in elems:
            need = path_vars | seq_writes(e)
            if not need:
                continue
            mods = {m.field: m.value for m in e if isinstance(m, lang.Mod)}
            if e and e[-1] is DROP:
                vs = ports          # still traverses state owners en route
            elif "outport" in mods:
                v = mods["outport"]
                vs = [v] if v in ports else ports
            else:
                vs = default_vs
            for u in us:
                for v in vs:
                    acc.setdefault((u, v), set()).update(need)

    def walk(nid: int, ctx: Context, path_vars: frozenset):
        node = nodes[nid]
        if node[0] == "leaf":
            leaf(ctx, path_vars, node[1])
            return
        _, t, hi, lo = node
        pv = path_vars | ({t.var} if isinstance(t, TStateTest)
                          else frozenset())
        for pol, child in ((True, hi), (False, lo)):
            try:
                ctx2 = ctx.add(t, pol)
            except Contradiction:
                continue
            walk(child, ctx2, pv)

    walk(root, Context(prog), frozenset())

    rank = order.state_rank
    flows = {k: tuple(sorted(vs, key=lambda s: (rank.get(s, len(rank)), s)))
             for k, vs in acc.items()}
    return StateDemand(flows)
