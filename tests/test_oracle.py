"""The exported LP model solved by an independent MILP solver, HiGHS
(through `scipy.optimize.milp`), from the text `export_lp` writes.

HiGHS's optimum is never above the built-in solver's objective where
that solver's routing is uncongested, and that routing breaks no row.
Where the two agree, the rows admit nothing cheaper than one walk per
flow.  scipy is a test-only dependency; without it this module is
skipped."""

import re

import pytest

pytest.importorskip("scipy")

import numpy as np                                          # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp   # noqa: E402
from scipy.sparse import coo_array                          # noqa: E402

from snapnet import lang, opt, topo                         # noqa: E402
from snapnet.errors import InfeasibleError                  # noqa: E402

from conftest import CORPUS                                 # noqa: E402
from helpers import SEEN_FROM_PORT_1, demand_map, two_port_line  # noqa: E402
from test_opt import model_for                              # noqa: E402

_TERM = re.compile(r"([+-]?)\s*(\d[\d.eE+-]*)\s+([A-Za-z]\w*)")
_ROW = re.compile(r"(.*)\s(<=|>=|=)\s(\S+)$")


def _terms(text: str) -> dict:
    return {var: float(c) * (-1.0 if sign == "-" else 1.0)
            for sign, c, var in _TERM.findall(text)}


def read_lp(text: str):
    """(objective, rows, bounds, binaries) of CPLEX-LP text as `export_lp`
    writes it: objective {var: coef}, rows [(name, {var: coef}, sense,
    rhs)], bounds {var: (lo, hi)} and the set of binary variables."""
    section = None
    objective: dict = {}
    rows, bounds, binaries = [], {}, set()
    for line in text.splitlines():
        s = line.strip()
        if s in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = s
        elif section == "Minimize":
            objective = _terms(s.split(":", 1)[1])
        elif section == "Subject To":
            name, body = s.split(":", 1)
            terms, sense, rhs = _ROW.match(body).groups()
            rows.append((name, _terms(terms), sense, float(rhs)))
        elif section == "Bounds":
            lo, _, var, _, hi = s.split()
            bounds[var] = (float(lo), float(hi))
        elif section == "Binary":
            binaries.add(s)
    return objective, rows, bounds, binaries


def highs_optimum(text: str):
    """HiGHS's optimal objective of the LP text, solved to a zero gap, or
    None when HiGHS ends without an optimum (an infeasible model)."""
    objective, rows, bounds, binaries = read_lp(text)
    cols = sorted(set(objective).union(bounds, binaries,
                                       *(r[1] for r in rows)))
    col = {v: k for k, v in enumerate(cols)}
    ri, ci, coef, lb, ub = [], [], [], [], []
    for i, (_, terms, sense, rhs) in enumerate(rows):
        for var, c in terms.items():
            ri.append(i)
            ci.append(col[var])
            coef.append(c)
        lb.append(-np.inf if sense == "<=" else rhs)
        ub.append(np.inf if sense == ">=" else rhs)
    a = coo_array((coef, (ri, ci)), shape=(len(rows), len(cols))).tocsr()
    res = milp(np.array([objective.get(v, 0.0) for v in cols]),
               constraints=LinearConstraint(a, lb, ub),
               integrality=np.array([v in binaries for v in cols], int),
               bounds=Bounds([bounds.get(v, (0.0, np.inf))[0] for v in cols],
                             [bounds.get(v, (0.0, np.inf))[1] for v in cols]),
               options={"mip_rel_gap": 0.0})
    return res.fun if res.status == 0 else None


def _agrees(m, budget=4096):
    """Solve `m` with the built-in solver and with HiGHS on its exported
    text; assert the built-in routing is uncongested and breaks no row,
    and that HiGHS finds no worse an objective.  Returns both
    objectives."""
    sol = opt.solve_builtin(m, budget=budget)
    assert opt.check_solution(m, sol.placement, sol.routing) == []
    assert not opt.overloaded_links(m.topo, sol.routing)
    best = highs_optimum(opt.export_lp(m))
    assert best is not None
    assert best <= sol.objective + 1e-6
    return best, sol.objective


@pytest.mark.parametrize("name", CORPUS)
def test_highs_never_beats_the_builtin_solver(name):
    """ST mode on example12: HiGHS's optimum of the exported rows is at
    most the built-in objective.  On honeypot and conn-affinity the two
    agree, so there the rows admit nothing cheaper than one walk per
    flow; rows that counted only the source's out-links and the sink's
    in-links let HiGHS reach 9.6 and 10.7 from disconnected pieces.  On
    the other twenty HiGHS finds 12.0 against 12.4: the router minimizes
    a congestion surrogate, not the objective."""
    best, builtin = _agrees(model_for([name, "assign-egress"]))
    want = {"honeypot": 10.4, "conn-affinity": 11.1}.get(name)
    if want is not None:
        assert best == pytest.approx(want, abs=1e-6)
        assert builtin == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("name, switch, want", [
    ("honeypot", "C1", 10.4), ("honeypot", "C6", 11.1),
    ("conn-affinity", "C1", 11.5), ("conn-affinity", "C6", 11.3)])
def test_highs_equals_reroute_under_a_whole_group_placement(name, switch,
                                                            want):
    """TE mode: every state variable on one switch, routed by the
    built-in solver as `reroute` does and by HiGHS on the exported TE
    model, whose placement columns are fixed.  (On the other corpus
    policies these placements overload a link, and the built-in answer
    is then no bound on the model's optimum.)"""
    st = model_for([name, "assign-egress"])
    best, builtin = _agrees(model_for(
        [name, "assign-egress"], fixed={s: switch for s in st.state_vars}))
    assert best == pytest.approx(want, abs=1e-6)
    assert builtin == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("name", ["stateful-fw", "dns-tunnel-detect"])
@pytest.mark.parametrize("n, seed", [(8, 1), (10, 2), (12, 3)])
def test_highs_equals_the_builtin_solver_on_small_generated_topologies(
        name, n, seed):
    """ST mode at budget 64 on small uncongested generated topologies,
    where the two solvers agree.  (On `generated(20, 3)` HiGHS takes
    minutes.)"""
    best, builtin = _agrees(model_for([name, "assign-egress"],
                                      t=topo.generated(n, seed)), budget=64)
    assert best == pytest.approx(builtin, abs=1e-6)


def test_highs_finds_state_away_from_a_same_switch_flow_infeasible():
    """On the line S1-S3-S2, where S1 exposes ports 1 and 2 and a packet
    from port 1 writes `seen`: HiGHS agrees with the search's 0.8 in ST
    mode, and with `seen` fixed on S2 finds the TE model infeasible, as
    the built-in router does, since the flow (1, 2) cannot leave S1 and
    come back."""
    t = two_port_line()
    order, demand = demand_map(lang.parse(SEEN_FROM_PORT_1), t)
    best, builtin = _agrees(opt.build_milp(t, demand, order))
    assert best == pytest.approx(0.8) and builtin == pytest.approx(0.8)
    te = opt.build_milp(t, demand, order, fixed={"seen": "S2"})
    assert highs_optimum(opt.export_lp(te)) is None
    with pytest.raises(InfeasibleError):
        opt.solve_builtin(te)
