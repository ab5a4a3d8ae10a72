"""One run of one workload, started by run.py in a child process of its own.

Prints report lines, then one JSON line with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones except `peak_rss_mb`, which run.py measures from outside;
with `--trace 1` they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from snapnet import interp, opt, rulegen, simnet  # noqa: E402
from snapnet.values import canon_key  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_SAMPLES = 3        # iterations per run, at least
SETUP_SLICE_S = 0.05   # a cheap setup repeats this long in every iteration
ROUND_PACKETS = 2000   # p99 then has twenty samples beyond it in every round
PASSES = ("interp_s", "serialized_s", "interleaved_s")
ROUND_SHARE = 0.5      # packet rounds per iteration, as a share of a compile
MAX_ROUNDS_S = 3.0     # ... but no longer than this
BURST = 4              # packets injected together in interleaved mode
REPLAYS = 2            # serialized passes of a round, on fresh state each
OUT = ROOT / ".perfbench"
FLOW_ROW = re.compile(r"_u(\d+)_v(\d+)(?:_|$)")


class Checks:
    """Checks failed against checks attempted.  A check is one output the
    run verifies, named by a key: the bundle's validity, the agreement of
    the repeat compiles, one flow of the solver's certificate, one packet
    position of the trace, one final state.  A key verified again (by a
    later compile or packet round) stays one check, failed if any of its
    verifications fails, so the counts depend on the workload alone, not
    on how many iterations a run's seconds allow.  A failed gate makes the
    run incorrect.  Rows of the solver's certificate (`check_solution`)
    are counted but do not decide correctness: they check the optimization
    model, not the behaviour of the deployed bundle."""

    def __init__(self):
        self.passed: dict = {}       # key -> every verification passed
        self.errors: list = []

    def gate(self, key, ok: bool, what: str) -> None:
        self.count(key, ok)
        if not ok and len(self.errors) < 20:
            self.errors.append(what)

    def count(self, key, ok: bool) -> None:
        self.passed[key] = self.passed.get(key, True) and ok

    @property
    def attempted(self) -> int:
        return len(self.passed)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.passed.values())


class CollectorTime:
    """Seconds the cyclic garbage collector has run, on `clock`, while
    this is one of gc.callbacks."""

    def __init__(self, clock):
        self.clock = clock
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = self.clock()
        else:
            self.total += self.clock() - self._start

    @contextmanager
    def counting(self):
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


@contextmanager
def captured_model():
    """Keeps the model that rulegen.compile builds, for check_solution."""
    models: list = []
    build = opt.build_milp

    def keep(*args, **kwargs):
        models.append(build(*args, **kwargs))
        return models[-1]

    opt.build_milp = keep
    try:
        yield models
    finally:
        opt.build_milp = build


def bundle_digest(path: Path) -> tuple:
    """(sha256 over relative names and contents, total bytes)."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _emissions(pairs) -> list:
    return sorted((port, interp.pkt_key(body)) for port, body in pairs)


def _cells(net) -> dict:
    return {var: {k: canon_key(v) for k, v in cells.items()}
            for var, cells in net.aggregate_state().items()}


class Run:
    def __init__(self, w: inputs.Workload, seed: int, seconds: float,
                 traced: bool):
        self.w, self.seed, self.seconds, self.traced = w, seed, seconds, traced
        self.lit = inputs.draw_literals(seed)
        self.meter = speed.Meter()
        self.clock = self.meter.clock
        self.tracer = Tracer(self.clock)
        self.checks = Checks()
        self.out = OUT / w.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.report: list = []
        # samples are (t0, t1, raw seconds of work between clock() times
        # t0 and t1)
        self.setup_s: list = []
        self.compile_s = {True: [], False: []}   # traced? -> samples
        self.rounds: list = []                   # per-round statistics
        self.first = None        # (objective, placement, digest) of compile 1
        self.size = 0            # bytes of the first bundle
        self.repeats = 0         # compiles checked against the first

    # -- compiling

    def compile(self, prog, t, traced: bool, keep_model: bool = False):
        """Times one rulegen.compile.  Returns the bundle and, with
        `keep_model`, the optimization model the compile built."""
        options = inputs.compile_options(self.w, prog)
        with captured_model() if keep_model else nullcontext([None]) \
                as models, self.tracer.span("bench.compile"):
            t0 = self.clock()
            bundle = rulegen.compile(prog, t, **options)
            t1 = self.clock()
        self.compile_s[traced].append((t0, t1, t1 - t0))
        return bundle, models[0]

    def check_bundle(self, bundle, t) -> None:
        """Gates every compile: the bundle validates, and objective,
        placement and bundle bytes equal those of the run's first compile."""
        self.checks.gate("validate_bundle",
                         rulegen.validate_bundle(bundle, t) == [],
                         "validate_bundle reports problems")
        path = self.out / "bundle"
        shutil.rmtree(path, ignore_errors=True)
        with self.tracer.span("bench.write"):
            rulegen.write_bundle(bundle, str(path))
        digest, size = bundle_digest(path)
        outcome = (bundle.objective, dict(sorted(bundle.placement.items())),
                   digest)
        if self.first is None:
            self.first, self.size = outcome, size
        else:
            self.checks.gate("determinism", outcome == self.first,
                             "a repeat compile differs from the first")
        self.repeats += 1

    def check_solution(self, m, bundle) -> None:
        """The solver's certificate: one check per flow, covering every row
        that names the flow, and one per row that names no flow."""
        with self.tracer.span("bench.check"):
            violations = opt.check_solution(m, bundle.placement,
                                            bundle.routing)

        def owner(name: str):
            mo = FLOW_ROW.search(name)
            return mo.groups() if mo else name

        bad = {owner(v.constraint) for v in violations}
        owners = {owner(c.name) for c in m.constraints}
        for o in owners:
            self.checks.count(("check_solution", o), o not in bad)
        rows = ", ".join(sorted(v.constraint for v in violations))
        self.report.append(
            f"check_solution: {len(bad)} of {len(owners)} flows and "
            f"flow-free rows fail" + (f" ({rows})" if rows else ""))

    # -- packets

    def serialized_pass(self, bundle, t, trace) -> tuple:
        """The trace injected one packet at a time into a freshly loaded
        network.  Returns the network, each packet's emissions, the pass
        as a sample, and each packet's `inject` seconds less the collector
        pauses within it."""
        net = simnet.load(bundle, t, seed=self.seed)
        emitted, lat, own = [], [], []
        t_start = self.clock()
        with CollectorTime(self.clock).counting() as collector:
            for port, pkt in trace:
                t0, c0 = self.clock(), collector.total
                emitted.append(net.inject(port, dict(pkt)))
                dt = self.clock() - t0
                lat.append(dt)
                own.append(dt - (collector.total - c0))
        return net, emitted, (t_start, self.clock(), sum(lat)), own

    def packet_round(self, prog, t, bundle, round_no: int,
                     traced: bool) -> None:
        """One seeded trace through the reference interpreter, REPLAYS
        times through the simulator in serialized mode and through the
        simulator in interleaved bursts, each on fresh state and each a
        sample of its own; every emission and the final state are checked
        against the interpreter."""
        trace = inputs.packet_trace(self.lit, prog.field_names(), self.seed,
                                    round_no, ROUND_PACKETS)
        bursts = inputs.commuting_bursts(trace, BURST)
        n = len(trace)
        with self.tracer.span("bench.round"):
            store = interp.Store.initial(prog)
            results = []
            t0 = self.clock()
            for _, pkt in trace:
                r = interp.eval_program(prog, store, dict(pkt))
                results.append(r)
                if r is not interp.UNDEFINED:
                    store = r.store
            t1 = self.clock()
            t_interp = (t0, t1, t1 - t0)
            want = [None if r is interp.UNDEFINED
                    else sorted((q["outport"], interp.pkt_key(q))
                                for q in r.packets.values())
                    for r in results]
            final = {var: {k: canon_key(v) for k, (_, v) in cells.items()}
                     for var, cells in store.cells.items()}
            del results, store
            latencies = []
            for _ in range(REPLAYS):
                # each network is checked and dropped before the next loads
                net, serial, sample, own = self.serialized_pass(bundle, t,
                                                                trace)
                latencies.append((sample, own))
                for i, (expected, got) in enumerate(zip(want, serial)):
                    self.checks.gate(("serialized", i), expected is not None
                                     and _emissions(got) == expected,
                                     "serialized emissions differ from "
                                     "interp")
                self.checks.gate("serialized final state",
                                 _cells(net) == final,
                                 "serialized final state differs from interp")
                events = len(net.trace) / n
                hops = sum(e.kind == "hop" for e in net.trace) / n
                del net, serial
            inter = simnet.load(bundle, t, seed=self.seed)
            marks = []
            t0 = self.clock()
            for burst in bursts:
                for i in burst:
                    inter.inject(trace[i][0], dict(trace[i][1]),
                                 mode="interleaved")
                inter.run()
                marks.append(len(inter.emissions))
            t1 = self.clock()
            t_inter = (t0, t1, t1 - t0)

        start = 0
        for burst, end in zip(bursts, marks):
            ok = all(want[i] is not None for i in burst) and (
                _emissions(inter.emissions[start:end])
                == sorted(x for i in burst for x in want[i]))
            for i in burst:
                self.checks.gate(("interleaved", i), ok,
                                 "interleaved emissions differ from interp")
            start = end
        self.checks.gate("interleaved final state", _cells(inter) == final,
                         "interleaved final state differs from interp")
        self.rounds.append({
            "traced": traced, "packets": n, "latencies": latencies,
            "interp_s": [t_interp],
            "serialized_s": [sample for sample, _ in latencies],
            "interleaved_s": [t_inter], "events": events, "hops": hops})

    # -- the run

    def setup(self, traced: bool, keep_model: bool):
        """Parse and compose the policies and build the topology; for the
        simulate workload also compile and load the bundle.  A cheap setup
        repeats for SETUP_SLICE_S.  Returns the last program, topology, and
        for the simulate workload its bundle and (with `keep_model`) its
        optimization model."""
        bundle = m = None
        until = self.clock() + SETUP_SLICE_S
        while True:
            with self.tracer.span("bench.setup"):
                t0 = self.clock()
                prog = inputs.build_program(self.w, self.lit)
                t = inputs.build_topology(self.w)
                if self.w.simulate:
                    bundle, m = self.compile(prog, t, traced, keep_model)
                    simnet.load(bundle, t, seed=self.seed)
                t1 = self.clock()
                self.setup_s.append((t0, t1, t1 - t0))
            if bundle is not None or t1 >= until:
                return prog, t, bundle, m

    def run(self) -> None:
        """Iterations of setup, compile (in the setup, for the simulate
        workload), checks and packet rounds, until `seconds` have passed
        and at least MIN_SAMPLES iterations ran, with the machine-speed
        meter running throughout.  Every kind of sample is spread over the
        whole run.  Packet rounds take ROUND_SHARE of the compile's time
        (at least one round, at most MAX_ROUNDS_S), so that a slow compile
        leaves enough rounds and a very slow one enough compiles.  A
        traced run traces every other iteration, starting with the first,
        and compares the two halves for the overhead."""
        self.meter.start()
        try:
            self._iterate()
        finally:
            self.meter.stop()

    def _iterate(self) -> None:
        start = self.clock()
        i = 0
        while i < MIN_SAMPLES or self.clock() - start < self.seconds:
            traced = self.traced and i % 2 == 0
            with self.tracer.installed(traced):
                prog, t, bundle, m = self.setup(traced, keep_model=i == 0)
                if bundle is None:
                    bundle, m = self.compile(prog, t, traced,
                                             keep_model=i == 0)
                if m is not None:
                    self.check_solution(m, bundle)
                    del m
                self.check_bundle(bundle, t)
                until = (self.clock()
                         + min(MAX_ROUNDS_S,
                               ROUND_SHARE * self.compile_s[traced][-1][2]))
                while True:
                    self.packet_round(prog, t, bundle, len(self.rounds),
                                      traced)
                    if self.clock() >= until:
                        break
                del bundle
            i += 1

    def scaled(self, samples: list) -> list:
        """Each sample's seconds at the reference machine speed."""
        return [seconds * self.meter.factor(t0, t1)
                for t0, t1, seconds in samples]

    # -- metrics

    def rate(self, key: str) -> float:
        """Packets per second over all the run's rounds."""
        return (sum(r["packets"] * len(r[key]) for r in self.rounds)
                / sum(self.scaled([s for r in self.rounds for s in r[key]])))

    def round_time(self, traced: bool) -> list:
        return [sum(self.scaled([s for key in PASSES for s in r[key]]))
                for r in self.rounds if r["traced"] == traced]

    def latencies(self, r: dict) -> list:
        """A round's per-packet latencies: of each packet, the least over
        its REPLAYS serialized passes, each pass scaled to the machine
        speed during it.  A pause of the host that hits one pass of a
        packet does not count; a packet the simulator is slow on is slow
        in every pass."""
        passes = ([x * self.meter.factor(t0, t1) for x in own]
                  for (t0, t1, _), own in r["latencies"])
        return [min(xs) for xs in zip(*passes)]

    def end_to_end(self) -> dict:
        med = statistics.median
        quantiles = [statistics.quantiles(self.latencies(r), n=100)
                     for r in self.rounds]
        p50, p99 = ([q[i] for q in quantiles] for i in (49, 98))
        c = self.checks
        return {
            "setup_s": (med(self.scaled(self.setup_s)), "s"),
            "compile_s": (med(self.scaled(self.compile_s[False])), "s"),
            "objective": (self.first[0], "util"),
            "bundle_kb": (self.size / 1024, "KiB"),
            "interp_pps": (self.rate("interp_s"), "pkt/s"),
            "sim_pps_serialized": (self.rate("serialized_s"), "pkt/s"),
            "sim_pps_interleaved": (self.rate("interleaved_s"), "pkt/s"),
            "sim_p50_us": (med(p50) * 1e6, "us"),
            "sim_p99_us": (med(p99) * 1e6, "us"),
            "check_pass_rate": ((c.attempted - c.failed) / c.attempted,
                                "ratio"),
        }

    def per_layer(self) -> dict:
        groups = {kind: [g for g in self.tracer.groups(kind) if g[2]]
                  for kind in ("bench.setup", "bench.compile", "bench.check",
                               "bench.write", "bench.round")}

        def self_s(kind: str, *names: str) -> float:
            """Median over the traced spans of `kind` of the self time of
            the named snapnet spans under them, each scaled to the machine
            speed during its span."""
            return statistics.median(
                sum(selfs.get(n, 0.0) for n in names)
                * self.meter.factor(t0, t1)
                for t0, t1, selfs, _ in groups[kind])

        counts: dict = {}
        for kind in ("bench.compile", "bench.check"):
            for g in groups[kind]:
                counts.update(g[3])
        med = statistics.median

        out = {
            "lang.parse_s": self_s("bench.setup", "lang.parse"),
            "lang.compose_s": self_s("bench.setup", "lang.compose_all"),
            "topo.generate_s": self_s("bench.setup", "topo.example12",
                                      "topo.generated"),
            "deps.order_s": self_s("bench.compile",
                                   "deps.order_spec_program"),
            "xfdd.build_s": self_s("bench.compile", "xfdd.to_xfdd_program",
                                   "xfdd.prune_vacuous"),
            "psm.map_s": self_s("bench.compile", "psm.packet_state_map"),
            "opt.build_s": self_s("bench.compile", "opt.build_milp"),
            "opt.solve_s": self_s("bench.compile", "opt.solve_builtin"),
            "opt.check_s": self_s("bench.check", "opt.check_solution"),
            "rulegen.number_s": self_s("bench.compile",
                                       "rulegen.number_nodes"),
            "rulegen.split_s": self_s("bench.compile", "rulegen.split_xfdd"),
            "rulegen.routing_s": self_s("bench.compile",
                                        "rulegen.gen_routing"),
            "rulegen.self_s": self_s("bench.compile", "rulegen.compile"),
            "rulegen.write_s": self_s("bench.write", "rulegen.write_bundle"),
            "simnet.load_s": self_s("bench.round", "simnet.load")
            / (REPLAYS + 1),
            "simnet.inject_s": self_s("bench.round", "simnet.inject"),
            "simnet.run_s": self_s("bench.round", "simnet.run"),
            "interp.eval_s": self_s("bench.round", "interp.eval_program"),
        }
        units = {k: "s" for k in out}
        for name in ("deps.tied_groups", "xfdd.arena_nodes",
                     "xfdd.diagram_nodes", "psm.flows", "psm.stateful_flows",
                     "opt.rows", "opt.violations", "rulegen.rules"):
            out[name], units[name] = counts[name], "count"
        out["simnet.trace_events_per_pkt"] = med(r["events"]
                                                 for r in self.rounds)
        units["simnet.trace_events_per_pkt"] = "events/pkt"
        out["simnet.hops_per_pkt"] = med(r["hops"] for r in self.rounds)
        units["simnet.hops_per_pkt"] = "hops/pkt"
        if self.w.simulate:
            traced, plain = map(med, map(self.round_time, (True, False)))
        else:
            traced, plain = (med(self.scaled(self.compile_s[on]))
                             for on in (True, False))
        out["trace.overhead_pct"] = 100 * (traced - plain) / plain
        units["trace.overhead_pct"] = "%"
        what = "packet round" if self.w.simulate else "compile"
        self.report.append(
            f"tracing: a traced {what} takes {traced:.4f} s, an untraced "
            f"one {plain:.4f} s; overhead "
            f"{traced - plain:+.4f} s ({out['trace.overhead_pct']:+.2f}%)")
        return {k: (v, units[k]) for k, v in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    run = Run(inputs.WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace))
    run.run()
    if run.traced:
        metrics = run.per_layer()
        run.tracer.write(run.out / "spans.jsonl")
    else:
        metrics = run.end_to_end()
        (run.out / "samples.json").write_text(json.dumps({
            "ticks": list(zip(run.meter.at, run.meter.took)),
            "setup_s": run.setup_s,
            "compile_s": run.compile_s[False],
            "rounds": [{k: v for k, v in r.items() if k != "latencies"}
                       for r in run.rounds]}))
    c = run.checks
    objective, placement, digest = run.first
    print(f"env: python {platform.python_version()}, "
          f"nproc {len(os.sched_getaffinity(0))}, workload {args.workload}, "
          f"seed {args.seed}, trace {args.trace}")
    print(f"determinism: {run.repeats} compiles agree on objective "
          f"{objective!r}, placement {placement}, bundle sha256 {digest}")
    for line in run.report:
        print(line)
    print(f"checks: {c.attempted} attempted, {c.failed} failed, fail_rate "
          f"{c.failed / c.attempted:.6f}"
          + "".join(f"\nFAILED: {e}" for e in c.errors))
    print(json.dumps({
        "correct": not c.errors, "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
