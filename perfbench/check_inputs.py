"""Checks that every stand-in policy parses, composes with assign-egress
and compiles on the twelve-switch topology into a valid bundle.

    python3 perfbench/check_inputs.py [--seed N]

Exits 1 and names the policy if one does not.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from snapnet import lang, rulegen, topo  # noqa: E402

import inputs  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    lit = inputs.draw_literals(ap.parse_args(argv).seed)
    t = topo.example12()
    egress = lang.parse(inputs.policy_source("assign-egress", lit))
    failed = 0
    for path in sorted(inputs.POLICY_DIR.glob("*.snap")):
        try:
            prog = lang.parse(inputs.policy_source(path.stem, lit))
            prog = lang.compose(prog, egress)
            # pinned, so the check does not pay for the placement search
            pin = {s: "D4" for s in prog.states} or None
            bundle = rulegen.compile(prog, t, fixed=pin)
            problems = rulegen.validate_bundle(bundle, t)
        except Exception as e:   # report every policy, then fail
            problems = [f"{type(e).__name__}: {e}"]
        failed += bool(problems)
        print(f"{path.stem}: {'; '.join(problems) or 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
