#!/usr/bin/env python3
"""Fold a Chrome trace written by the spgcmp binaries into per-span tables.

    python3 perfbench/fold_trace.py TRACE.json [METRICS.json]

Spans are grouped by name and, for `solve` spans, by their `solver` arg.
Each group gets count, sum, p50 and p99 of its durations (microseconds).
The optional metrics snapshot (`--metrics=FILE`) contributes its counters.
run.py imports `load_spans`, `fold` and `counters` from here.
"""

import json
import math
import sys
from collections import defaultdict


def percentile(values, p):
    """Percentile of a sample, interpolating linearly between closest ranks
    (so p=0.5 is the median); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def load_spans(path):
    """Every complete span of a trace as (name, args, start_us, dur_us).

    "X" events carry their duration; "B"/"E" pairs are matched per thread
    in stack order.  Unclosed "B" events are dropped.
    """
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans = []
    open_stacks = defaultdict(list)
    for e in events:
        ph = e.get("ph")
        if ph == "X":
            spans.append((e["name"], e.get("args", {}), e["ts"], e["dur"]))
        elif ph == "B":
            open_stacks[(e["pid"], e["tid"])].append(e)
        elif ph == "E":
            stack = open_stacks[(e["pid"], e["tid"])]
            if stack:
                b = stack.pop()
                spans.append((b["name"], b.get("args", {}), b["ts"], e["ts"] - b["ts"]))
    return spans


def group_key(name, args):
    solver = args.get("solver")
    return f"{name}[{solver}]" if solver is not None else name


def fold(spans):
    """{group: {"count", "sum_us", "p50_us", "p99_us"}} over all spans."""
    groups = defaultdict(list)
    for name, args, _, dur in spans:
        groups[group_key(name, args)].append(dur)
    return {
        k: {
            "count": len(v),
            "sum_us": float(sum(v)),
            "p50_us": float(percentile(v, 0.50)),
            "p99_us": float(percentile(v, 0.99)),
        }
        for k, v in sorted(groups.items())
    }


def counters(metrics_path):
    """The counters of a metrics-registry snapshot."""
    with open(metrics_path, encoding="utf-8") as f:
        return json.load(f).get("counters", {})


def format_table(folded):
    rows = [("span", "count", "sum_s", "p50_us", "p99_us")]
    for k, v in folded.items():
        rows.append((k, str(v["count"]), f"{v['sum_us'] / 1e6:.3f}",
                     f"{v['p50_us']:.0f}", f"{v['p99_us']:.0f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(format_table(fold(load_spans(argv[1]))))
    if len(argv) == 3:
        for k, v in sorted(counters(argv[2]).items()):
            print(f"counter {k} = {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
