"""Compare two sets of benchmark result files metric by metric.

    python3 bbmbench/compare.py BASE NEW

BASE and NEW are each a result file written by ``run.py`` (under
``bbmbench/out/``) or a directory of them.  For every workload, trace mode
and metric the script prints the median of each side, the first and third
quartiles of the base side and the change as a share of the base median.
An end-to-end metric whose new median is worse than the base median by
more than its bound in ``BENCHMARK.json`` is marked REGRESSION, and the
script then exits 1.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """(workload, trace) -> metric -> list of values, plus the failed shares."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values = defaultdict(lambda: defaultdict(list))
    for f in files:
        with open(f, encoding="utf-8") as fh:
            rec = json.load(fh)
        if "result" not in rec or "workload" not in rec:
            continue
        key = (rec["workload"], rec["trace"])
        res = rec["result"]
        values[key]["(failed share)"].append(res["failed"] / res["attempted"])
        values[key]["(correct)"].append(1.0 if res["correct"] else 0.0)
        for name, m in res["metrics"].items():
            values[key][name].append(m["value"])
    return values


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    worse = 0
    header = f"{'workload':14s} {'t':1s} {'metric':26s} {'n':>5s} {'base':>12s} {'q1..q3':>25s} {'new':>12s} {'change':>8s}"
    print(header)
    for key in sorted(set(base) | set(new)):
        for name in sorted(set(base.get(key, {})) | set(new.get(key, {}))):
            b, n = base.get(key, {}).get(name), new.get(key, {}).get(name)
            if not b or not n:
                print(f"{key[0]:14s} {key[1]} {name:26s} missing on one side")
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            q1, q3 = _quartiles(b)
            change = 0.0 if mn == mb else (mn - mb) / abs(mb) if mb else float("inf")
            flag = ""
            if name in bounds and key[1] == 0:
                sign = 1.0 if better[name] == "lower" else -1.0
                if sign * change > bounds[name]["bound"]:
                    flag = "  REGRESSION"
                    worse += 1
            print(f"{key[0]:14s} {key[1]} {name:26s} {len(b):>2d}/{len(n):<2d} {mb:12.6g} "
                  f"{q1:12.6g}..{q3:<12.6g} {mn:12.6g} {change:+8.2%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
