"""Compare two result sets written by ``run.py --out``.

    python3 bench/compare.py BASE.jsonl [NEW.jsonl]

One row per (metric, workload): run count, median and quartiles of each
side, the spread (quartile distance over median) and the change of the
median.  End-to-end metrics carry the bound from ``BENCHMARK.json``:

- ``worse``: the new median is worse than the base median by more than the
  bound;
- ``unresolved``: a side's spread exceeds the bound, unless every new run is
  better than every base run;
- ``ok`` otherwise.  Per-layer metrics have no bound and no flag.

With one file, the rows describe that set alone (flagging spreads over the
bound).  Exit status 1 when any row is ``worse``.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """(metric, workload) -> list of values from every record in the file."""
    values = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, m in record["result"]["metrics"].items():
                    values.setdefault((name, record["workload"]), []).append(m["value"])
    return values


def summary(values):
    """(median, q1, q3, spread as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def flag(spec, base, new) -> str:
    """worse / unresolved / ok for one end-to-end metric; ``new`` may be None."""
    bound, lower = spec["bound"], spec["better"] == "lower"
    b_med, _, _, b_spread = summary(base)
    if new is None:
        return "unresolved" if b_spread > bound else "ok"
    n_med, _, _, n_spread = summary(new)
    change = (n_med - b_med) / abs(b_med)
    if (change if lower else -change) > bound:
        return "worse"
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if max(b_spread, n_spread) > bound and not all_better:
        return "unresolved"
    return "ok"


def fmt(values) -> str:
    if not values:
        return "-"
    med, q1, q3, spread = summary(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] ±{100 * spread:.1f}%"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in spec["end_to_end"]}
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else {}
    worse = False
    print("metric\tworkload\tn\tbase median [q1, q3] spread\tnew median [q1, q3] spread"
          "\tchange\tflag")
    for name, workload in sorted(set(base) | set(new), key=lambda k: (k[1], k[0])):
        b, n = base.get((name, workload), []), new.get((name, workload))
        change, mark = "-", "-"
        if b and n and summary(b)[0]:
            change = f"{100 * (summary(n)[0] / summary(b)[0] - 1):+.1f}%"
        if name in specs and b:
            mark = flag(specs[name], b, n)
        elif name in specs:
            mark = "unresolved"
        worse = worse or mark == "worse"
        count = f"{len(b)}/{len(n)}" if n is not None else f"{len(b)}"
        print(f"{name}\t{workload}\t{count}\t{fmt(b)}\t{fmt(n)}\t{change}\t{mark}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
