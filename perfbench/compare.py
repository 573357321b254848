"""Compare two result sets of the benchmark: a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the full results ``run.py`` writes (``--out DIR`` puts
them in ``DIR/results``), made with ``--trace 0`` and run in alternating
order, parent then change then parent, so each parent run pairs with the
change run made next to it.  Runs of one workload are paired in the order
they started.  For each workload and each end-to-end metric of
``BENCHMARK.json`` this prints the median and quartiles of each side, the
share of pairs the change won (ties count for neither side) and a verdict:

* improved    the change won at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the parent's
              own quartile spread;
* regressed   the change's median is worse than the parent's by more than
              the metric's bound;
* unresolved  neither, and the parent's quartile spread is wider than the
              bound, unless every change run beats every parent run;
* unchanged   neither, with a spread inside the bound.
"""

import argparse
import json
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(directory):
    """Trace-0 results by workload, each list in start order."""
    runs = {}
    for path in sorted(Path(directory).glob("**/*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0 and "metrics" in result:
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["started_at"])
    return runs


def verdict(parent, change, better, bound):
    """Return (verdict, share of pairs won) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed)
    if won >= WIN_SHARE and gain > p3 - p1:
        return "improved", won
    if -gain > bound * abs(pmed):
        return "regressed", won
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) > bound * abs(pmed) and not all_better:
        return "unresolved", won
    return "unchanged", won


def compare(parent_dir, change_dir, spec):
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs
                 if r["metrics"].get(name, {}).get("value") is not None]
            c = [r["metrics"][name]["value"] for r in c_runs
                 if r["metrics"].get(name, {}).get("value") is not None]
            if not p or not c:
                rows.append({"workload": workload, "metric": name, "verdict": "missing",
                             "parent_runs": len(p), "change_runs": len(c)})
                continue
            result, won = verdict(p, c, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                         "parent": quartiles(p), "change": quartiles(c),
                         "pairs": min(len(p), len(c)), "won": won,
                         "bound": metric["bound"], "verdict": result})
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description="compare a parent and a change result set")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(args.parent, args.change, spec)
    print(f"{'workload':18s} {'metric':12s} {'parent q1/med/q3':>34s} "
          f"{'change q1/med/q3':>34s} {'pairs':>5s} {'won':>5s}  verdict")
    for r in rows:
        if r["verdict"] == "missing":
            print(f"{r['workload']:18s} {r['metric']:12s} missing runs "
                  f"(parent {r['parent_runs']}, change {r['change_runs']})")
            continue
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)   # noqa: E731
        print(f"{r['workload']:18s} {r['metric']:12s} {fmt(r['parent']):>34s} "
              f"{fmt(r['change']):>34s} {r['pairs']:5d} {r['won']:5.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
