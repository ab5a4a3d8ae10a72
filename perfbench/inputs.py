"""Seeded inputs of the benchmark workloads.

The seed draws the literals of the stand-in policies (host addresses,
thresholds) and the packet traces.  Policy shapes, topologies, solver
budgets and pinned placements are fixed per workload, so the amount of
work in a run does not depend on the seed.  The functions here call into
`snapnet` through module attributes (`lang.parse`, `topo.example12`, ...)
so that the span wrappers of a traced run see every call.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from ipaddress import IPv4Address
from pathlib import Path

from snapnet import lang, topo

POLICY_DIR = Path(__file__).resolve().parent / "policies"
SUBNETS = tuple(range(1, 7))     # 10.0.k.0/24 is served by external port k
HOSTS_PER_SUBNET = 2
DNS_CLIENT_SUBNET = 6            # the subnet dns-tunnel-detect watches
RDATA_SUBNETS = (3, 4)           # where resolved addresses point


@dataclass(frozen=True)
class Workload:
    name: str
    policies: tuple              # ((stand-in name, state-name suffix), ...)
    topology: tuple              # (topo function name, *arguments)
    budget: int = 4096
    pin: str | None = None       # switch every state variable is pinned to
    simulate: bool = False       # the run measures packets, not compiles


_DNS_EGRESS = (("dns-tunnel-detect", ""), ("assign-egress", ""))
_THREE_APPS = ("dns-tunnel-detect", "stateful-fw", "heavy-hitter")

WORKLOADS = {w.name: w for w in (
    Workload("place-e12", _DNS_EGRESS, ("example12",)),
    # topology seed 7 and budget 64 are the 50-switch acceptance
    # configuration; the topology stays fixed so every run does the same work
    Workload("scale-g50", _DNS_EGRESS, ("generated", 50, 7), budget=64),
    # D4 serves the DNS clients; all twelve variables pinned there
    Workload("compose-e12",
             tuple((name, suffix) for suffix in ("-a", "-b")
                   for name in _THREE_APPS) + (("assign-egress", ""),),
             ("example12",), pin="D4"),
    # C5 is where the built-in solver places all six variables
    Workload("simulate-e12",
             tuple((name, "") for name in _THREE_APPS)
             + (("assign-egress", ""),),
             ("example12",), pin="C5", simulate=True),
)}


@dataclass(frozen=True)
class Literals:
    hosts: tuple                 # IPv4Address, HOSTS_PER_SUBNET per subnet
    rdata: tuple                 # resolved addresses, a subset of hosts
    dns_limit: int
    hh_limit: int

    def in_subnet(self, k: int) -> list:
        return [h for h in self.hosts if h.packed[2] == k]


def draw_literals(seed: int) -> Literals:
    rng = random.Random(f"literals:{seed}")
    hosts = tuple(IPv4Address(f"10.0.{k}.{h}") for k in SUBNETS
                  for h in sorted(rng.sample(range(2, 255),
                                             HOSTS_PER_SUBNET)))
    rdata = tuple(rng.choice([h for h in hosts if h.packed[2] == k])
                  for k in RDATA_SUBNETS)
    return Literals(hosts, rdata, rng.randint(3, 5), rng.randint(4, 8))


def policy_source(name: str, lit: Literals, suffix: str = "") -> str:
    """The stand-in `name` with its literals filled in and, when `suffix`
    is given, every state variable renamed to name + suffix."""
    text = (POLICY_DIR / f"{name}.snap").read_text()
    text = string.Template(text).substitute(
        hosts=", ".join(map(str, lit.hosts)),
        rdata=", ".join(map(str, lit.rdata)),
        dns_limit=lit.dns_limit, hh_limit=lit.hh_limit)
    if suffix:
        for var in re.findall(r"^state\s+([\w.-]+)\[", text, re.M):
            text = re.sub(r"(?<![\w.-])" + re.escape(var) + r"(?![\w.-])",
                          var + suffix, text)
    return text


def build_program(w: Workload, lit: Literals) -> lang.Program:
    return lang.compose_all([lang.parse(policy_source(name, lit, suffix))
                             for name, suffix in w.policies])


def build_topology(w: Workload):
    fn, *args = w.topology
    return getattr(topo, fn)(*args)


def compile_options(w: Workload, prog: lang.Program) -> dict:
    if w.pin is not None:
        return {"fixed": {s: w.pin for s in sorted(prog.states)}}
    return {"budget": w.budget}


def packet_trace(lit: Literals, fields: tuple, seed: int, round_no: int,
                 n: int) -> list:
    """`n` packets as (ingress port, packet).  A third are DNS responses to
    a watched client, a third are watched clients contacting resolved
    addresses, the rest are random host pairs.  Sources enter at the port
    of their subnet."""
    rng = random.Random(f"trace:{seed}:{round_no}")
    clients = lit.in_subnet(DNS_CLIENT_SUBNET)
    others = [h for h in lit.hosts if h not in clients]
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 1 / 3:
            src, dst, sport = rng.choice(others), rng.choice(clients), 53
        elif kind < 2 / 3:
            src, dst, sport = rng.choice(clients), rng.choice(lit.rdata), 80
        else:
            src, dst = rng.sample(lit.hosts, 2)
            sport = rng.choice((53, 80))
        port = src.packed[2]
        pkt = {"srcip": src, "dstip": dst, "srcport": sport,
               "dns-rdata": rng.choice(lit.rdata), "inport": port,
               "outport": rng.choice(SUBNETS)}
        out.append((port, {f: v for f, v in pkt.items() if f in fields}))
    return out


def commuting_bursts(trace: list, limit: int = 4) -> list:
    """Split the trace into consecutive bursts of at most `limit` packets
    whose source and destination addresses are pairwise disjoint.  Every
    state cell of the stand-in policies has the packet's source or
    destination address as its first index, so packets of one burst touch
    disjoint cells and any interleaving of a burst equals its sequential
    run."""
    bursts, cur, used = [], [], set()
    for i, (_, pkt) in enumerate(trace):
        addrs = {pkt["srcip"], pkt["dstip"]}
        if cur and (len(cur) == limit or addrs & used):
            bursts.append(cur)
            cur, used = [], set()
        cur.append(i)
        used |= addrs
    if cur:
        bursts.append(cur)
    return bursts
