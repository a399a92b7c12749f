"""Compare two benchmark results of the same workload shape.

    python3 perfbench/run.py --workload fig7 --out base.json     # on the parent
    python3 perfbench/run.py --workload fig7 --out new.json      # on the change
    python3 perfbench/compare.py base.json new.json

Prints one verdict per metric, read against the metric's declared direction
and bound.  Exit codes: 0 when no end-to-end metric got worse and none of
the sim-side ones changed, 1 when one did (a changed sim-side metric is a
behaviour change), 2 when the two results have different shapes
(workload, parameters, seed, run length or tracing) and are not compared.
"""

from __future__ import annotations

import argparse
import json
import sys

import metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    decls = metrics.declarations(metrics.load())
    try:
        verdicts = metrics.compare(base, new, decls)
    except metrics.ShapeMismatch as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(f"{base['shape']['workload']}: {base.get('commit')} -> {new.get('commit')}")
    failing = False
    for name, verdict in verdicts.items():
        decl = decls[name]
        b, n = base["metrics"][name]["value"], new["metrics"][name]["value"]
        print(f"  {name:42} {b:>14.6g} -> {n:<14.6g} {decl.unit:7} "
              f"{decl.better:7} {verdict}")
        if decl.layer == "end_to_end" and verdict in ("worse", "changed-worse",
                                                      "changed-better"):
            failing = True
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
