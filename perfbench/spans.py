"""In-memory spans around the public entry points of snapnet's modules.

`Tracer.install` replaces each entry point with a wrapper on the module or
class attribute that `rulegen.compile`, the simulator and the benchmark
call through, and `uninstall` puts the originals back.  A span is
[name, start, end, parent index, counts]; counts are read from the call's
arguments and result when the call returns.  The benchmark opens its own
spans (`bench.setup`, `bench.compile`, ...) around the work it times, and
every snapnet span is charged to the nearest enclosing benchmark span.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager

from snapnet import deps, interp, lang, opt, psm, rulegen, simnet, topo, xfdd


def _rules(result, args) -> dict:
    resolved, unresolved = result
    return {"rulegen.rules": sum(map(len, resolved.values()))
            + sum(map(len, unresolved.values()))}


# (owner, attribute, span name, counts(result, args) or None)
ENTRY_POINTS = (
    (lang, "parse", "lang.parse", None),
    (lang, "compose_all", "lang.compose_all", None),
    (topo, "example12", "topo.example12", None),
    (topo, "generated", "topo.generated", None),
    (rulegen, "compile", "rulegen.compile", None),
    (deps, "order_spec_program", "deps.order_spec_program",
     lambda r, a: {"deps.tied_groups": len(r.groups)}),
    (xfdd.Builder, "to_xfdd_program", "xfdd.to_xfdd_program", None),
    (xfdd.Builder, "prune_vacuous", "xfdd.prune_vacuous",
     lambda r, a: {"xfdd.arena_nodes": len(a[0].arena.nodes)}),
    (psm, "packet_state_map", "psm.packet_state_map",
     lambda r, a: {"psm.flows": len(a[2].demands),
                   "psm.stateful_flows": sum(1 for k in a[2].demands
                                             if r.states_for(*k))}),
    (opt, "build_milp", "opt.build_milp",
     lambda r, a: {"opt.rows": len(r.constraints)}),
    (opt, "solve_builtin", "opt.solve_builtin", None),
    (opt, "check_solution", "opt.check_solution",
     lambda r, a: {"opt.violations": len(r)}),
    (rulegen, "number_nodes", "rulegen.number_nodes",
     lambda r, a: {"xfdd.diagram_nodes": len(r[0])}),
    (rulegen, "split_xfdd", "rulegen.split_xfdd", None),
    (rulegen, "gen_routing", "rulegen.gen_routing", _rules),
    (rulegen, "write_bundle", "rulegen.write_bundle", None),
    (simnet, "load", "simnet.load", None),
    (simnet.SimNetwork, "inject", "simnet.inject", None),
    (simnet.SimNetwork, "run", "simnet.run", None),
    (interp, "eval_program", "interp.eval_program", None),
)


class Tracer:
    def __init__(self, clock):
        """`clock` gives the span times, in seconds."""
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for owner, attr, name, counts in ENTRY_POINTS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counts))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    @contextmanager
    def installed(self, on: bool = True):
        if on:
            self.install()
        try:
            yield
        finally:
            if on:
                self.uninstall()

    def _open(self, name: str) -> list:
        span = [name, self.clock(), None,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[2] = self.clock()

    def _wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span[4] = counts(result, args)
            return result
        return traced

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span; opened whether or not wrappers are on."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def groups(self, kind: str) -> list:
        """One entry per benchmark span named `kind`: (start, end,
        {snapnet span name: self time}, {count name: value}).
        A snapnet span belongs to its nearest enclosing benchmark span."""
        spans = self.spans
        self_t = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_t[s[3]] -= s[2] - s[1]
        owner = []
        for i, s in enumerate(spans):
            if s[0].startswith("bench."):
                owner.append(i)
            else:
                owner.append(owner[s[3]] if s[3] >= 0 else -1)
        out = {i: (s[1], s[2], {}, {}) for i, s in enumerate(spans)
               if s[0] == kind}
        for i, s in enumerate(spans):
            g = out.get(owner[i])
            if g is None or s[0].startswith("bench."):
                continue
            g[2][s[0]] = g[2].get(s[0], 0.0) + self_t[i]
            if s[4]:
                g[3].update(s[4])
        return [out[i] for i in sorted(out)]

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, counts in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "counts": counts})
                        + "\n")
