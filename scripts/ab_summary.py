#!/usr/bin/env python3
"""Summarise alternating parent/change runs of the grp-bench driver.

Reads JSON lines: each is one driver line (the last line the
`BENCHMARK.json` command prints: `correct`, `failed`, `metrics`) with keys
added by whoever ran it: `label` ("parent" or "change"), `workload`, and
optionally `seed` and `pair`. Lines that are not JSON objects with a
`label` are skipped, so a raw log can be fed as it is.

For every workload (and seed) and every metric it prints one row of the
table format CHANGES.md uses:

  | workload (seed) | metric | parent median [q1–q3] | change median [q1–q3]
  | Δ median | pairs won | parent IQR | verdict |

The i-th parent run is paired with the i-th change run (or by `pair`, when
given). A pair is won when the change reads better and lost when it reads
worse; ties count for neither side. The verdict is "gain" when the change
wins at least nine tenths of the pairs and the medians differ by more than
the parent's interquartile range, "worse" when the change loses as many
pairs by such a gap, and "no gain" otherwise. A row whose parent runs
spread wider than the metric's `bound` in BENCHMARK.json (IQR / median, a
relative change) reads "unresolved" instead: the runs cannot tell a move
of that size from noise, unless every change run reads better than every
parent run, which keeps the verdict. A row whose median moved the wrong
way by more than the bound is flagged "past the bound". Which way is
better comes from the metric's `better` there (lower when it is not
listed). A group with a run that is not `correct` or that has `failed` > 0
reads "invalid".

Usage:
  python3 scripts/ab_summary.py [FILE]...   (stdin if none)
  python3 scripts/ab_summary.py --self-test
"""

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")

HEADER = (
    "  | workload (seed) | metric | parent median [q1–q3] | change median [q1–q3] "
    "| Δ median | pairs won | parent IQR | verdict |\n"
    "  |---|---|---|---|---|---|---|---|"
)


def quartiles(xs):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def num(x):
    return f"{x:.4g}"


def signed_percent(x):
    return f"{x:+.1f} %".replace("-", "−")


def load(lines):
    """{(workload, seed): {"parent": [run], "change": [run]}} in input order."""
    groups = {}
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            run = json.loads(line)
        except json.JSONDecodeError:
            continue
        label = run.get("label")
        if label not in ("parent", "change"):
            continue
        key = (run.get("workload", "?"), run.get("seed"))
        groups.setdefault(key, {"parent": [], "change": []})[label].append(run)
    return groups


def pairs_of(parents, changes):
    if all("pair" in r for r in parents + changes):
        by_pair = {r["pair"]: r for r in changes}
        return [(p, by_pair[p["pair"]]) for p in parents if p["pair"] in by_pair]
    return list(zip(parents, changes))


def metric_rules():
    """From BENCHMARK.json: the metrics marked `"better": "higher"`, and
    each metric's `bound`, where it has one."""
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench.get("end_to_end", []) + bench.get("per_layer", [])
    higher = {m["name"] for m in metrics if m.get("better") == "higher"}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    return higher, bounds


def summarise(lines, higher=frozenset(), bounds=None):
    bounds = bounds or {}
    rows = [HEADER]
    for (workload, seed), sides in load(lines).items():
        name = workload if seed is None else f"{workload} ({seed})"
        runs = sides["parent"] + sides["change"]
        invalid = sum(1 for r in runs if not r.get("correct") or r.get("failed", 0) > 0)
        metrics = []
        for run in runs:
            for metric in run.get("metrics", {}):
                if metric not in metrics:
                    metrics.append(metric)
        for metric in metrics:
            value = lambda run: run["metrics"][metric]["value"]
            parent = [value(r) for r in sides["parent"] if metric in r.get("metrics", {})]
            change = [value(r) for r in sides["change"] if metric in r.get("metrics", {})]
            if not parent or not change:
                continue
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            sign = -1 if metric in higher else 1
            won = lost = tied = total = 0
            for p, c in pairs_of(sides["parent"], sides["change"]):
                if metric not in p.get("metrics", {}) or metric not in c.get("metrics", {}):
                    continue
                total += 1
                gap = sign * (value(p) - value(c))
                won += gap > 0
                lost += gap < 0
                tied += gap == 0
            iqr = p3 - p1
            if invalid:
                verdict = f"invalid ({invalid} runs not correct)"
            elif total and won * 10 >= total * 9 and sign * (pm - cm) > iqr:
                verdict = "gain"
            elif total and lost * 10 >= total * 9 and sign * (cm - pm) > iqr:
                verdict = "worse"
            else:
                verdict = "no gain"
            bound = bounds.get(metric)
            if not invalid and bound is not None and pm and iqr / abs(pm) > bound:
                if not all(sign * (p - c) > 0 for p in parent for c in change):
                    verdict = "unresolved"
            if bound is not None and pm and sign * (cm - pm) / abs(pm) > bound:
                verdict += f", past the {bound:.0%} bound"
            delta = signed_percent((cm - pm) / pm * 100) if pm else "n/a"
            ties = f", {tied} tie" + ("s" if tied > 1 else "") if tied else ""
            rows.append(
                f"  | {name} | {metric} | {num(pm)} [{num(p1)}–{num(p3)}] "
                f"| {num(cm)} [{num(c1)}–{num(c3)}] | {delta} | {won}/{total}{ties} "
                f"| {num(iqr)} | {verdict} |"
            )
    return "\n".join(rows)


def driver_line(label, pair, wall, rss, workload="metropolis"):
    return json.dumps(
        {
            "correct": True,
            "attempted": 3,
            "failed": 0,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MiB"},
            },
            "label": label,
            "workload": workload,
            "seed": 2010,
            "pair": pair,
        }
    )


SELF_TEST_INPUT = (
    ["progress lines and blank lines are skipped", ""]
    + [
        driver_line(label, i, wall, 70.0 + i % 2 * 0.1)
        for i, (pw, cw) in enumerate(
            [(1.00, 0.90), (1.02, 0.91), (0.98, 0.89), (1.01, 0.92), (0.99, 0.90),
             (1.03, 0.88), (1.00, 0.91), (0.97, 0.90), (1.01, 0.89), (0.96, 0.97)]
        )
        for label, wall in (("parent", pw), ("change", cw))
    ]
    + [
        driver_line(label, i, wall, rss, workload="concourse")
        for i, (pw, cw, pr, cr) in enumerate(
            [(0.10, 0.11, 7.0, 7.9), (0.10, 0.12, 7.1, 7.8), (0.11, 0.12, 7.0, 8.0),
             (0.10, 0.11, 7.2, 7.9), (0.10, 0.11, 7.0, 8.1), (0.09, 0.11, 7.1, 7.9),
             (0.10, 0.12, 7.0, 7.8), (0.11, 0.11, 7.1, 8.0), (0.10, 0.11, 7.0, 7.9),
             (0.10, 0.11, 7.1, 7.9)]
        )
        for label, wall, rss in (("parent", pw, pr), ("change", cw, cr))
    ]
    + [
        # parent spread wider than the 25 % bound; no side beats the other
        # run for run
        driver_line(label, i, wall, 4.0, workload="archipelago")
        for i, (pw, cw) in enumerate(
            [(0.6, 0.55), (1.4, 1.3), (0.7, 0.6), (1.3, 1.25), (0.8, 0.7),
             (1.2, 1.1), (0.65, 0.6), (1.35, 1.3), (1.0, 0.9), (1.0, 0.95)]
        )
        for label, wall in (("parent", pw), ("change", cw))
    ]
    + [
        # as wide, but every change run beats every parent run
        driver_line(label, i, wall, 4.0, workload="campaign")
        for i, (pw, cw) in enumerate(
            [(1.0, 0.5), (2.0, 0.9), (1.1, 0.6), (1.9, 0.8), (1.2, 0.7),
             (1.8, 0.75), (1.3, 0.65), (1.7, 0.7), (1.4, 0.55), (1.6, 0.85)]
        )
        for label, wall in (("parent", pw), ("change", cw))
    ]
    + [
        json.dumps({"correct": False, "failed": 1, "metrics": {}, "label": "change",
                    "workload": "drift", "seed": 7}),
        json.dumps({"correct": True, "failed": 0, "label": "parent", "workload": "drift",
                    "seed": 7, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}),
        json.dumps({"correct": True, "failed": 0, "label": "change", "workload": "drift",
                    "seed": 7, "metrics": {"wall_s": {"value": 0.4, "unit": "s"}}}),
    ]
)

SELF_TEST_EXPECTED = HEADER + """
  | metropolis (2010) | wall_s | 1 [0.9825–1.01] | 0.9 [0.8925–0.91] | −10.0 % | 9/10 | 0.0275 | gain |
  | metropolis (2010) | peak_rss_mb | 70.05 [70–70.1] | 70.05 [70–70.1] | +0.0 % | 0/10, 10 ties | 0.1 | no gain |
  | concourse (2010) | wall_s | 0.1 [0.1–0.1] | 0.11 [0.11–0.1175] | +10.0 % | 0/10, 1 tie | 0 | worse |
  | concourse (2010) | peak_rss_mb | 7.05 [7–7.1] | 7.9 [7.9–7.975] | +12.1 % | 0/10 | 0.1 | worse, past the 10% bound |
  | archipelago (2010) | wall_s | 1 [0.725–1.275] | 0.925 [0.625–1.212] | −7.5 % | 10/10 | 0.55 | unresolved |
  | archipelago (2010) | peak_rss_mb | 4 [4–4] | 4 [4–4] | +0.0 % | 0/10, 10 ties | 0 | no gain |
  | campaign (2010) | wall_s | 1.5 [1.225–1.775] | 0.7 [0.6125–0.7875] | −53.3 % | 10/10 | 0.55 | gain |
  | campaign (2010) | peak_rss_mb | 4 [4–4] | 4 [4–4] | +0.0 % | 0/10, 10 ties | 0 | no gain |
  | drift (7) | wall_s | 0.5 [0.5–0.5] | 0.4 [0.4–0.4] | −20.0 % | 0/0 | 0 | invalid (1 runs not correct) |"""


def self_test():
    got = summarise(SELF_TEST_INPUT, bounds={"wall_s": 0.25, "peak_rss_mb": 0.1})
    if got != SELF_TEST_EXPECTED:
        print("ab_summary self-test FAILED\n--- expected\n" + SELF_TEST_EXPECTED
              + "\n--- got\n" + got, file=sys.stderr)
        return 1
    print("ab_summary self-test passed")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if any(arg.startswith("-") for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    lines = [] if argv else sys.stdin.read().splitlines()
    for path in argv:
        with open(path, encoding="utf-8") as f:
            lines.extend(f.read().splitlines())
    print(summarise(lines, *metric_rules()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
