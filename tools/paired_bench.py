"""Paired, alternating benchmark runs of two revisions, written as a BENCH file.

    python tools/paired_bench.py PARENT CHANGE --label LABEL \\
        --workload study_rank=961-970 [--workload mc_null=951,952 ...] \\
        [--claim study_rank] [--traced-seed 985] [--out BENCH_LABEL.json]

Exports both revisions with `git archive` and runs `perfbench/run.py
--workload W --seed S --seconds 30 --trace 0` in each: one parent and one
change run per seed, one after the other, parent first on a workload's
first seed and then alternating.  Every run must pass as in
`tools/hand_in_check.py`.  With --traced-seed, each workload then gets one
`--trace 1` run per side, parent first, and every metric it reports is kept.

Writes the `label`, `parent_sha`, `change_sha`, `host`, `command`, `pairs`,
`paired`, `claim` and `traced` blocks of BENCH_<label>.json in the layout
of the repository's BENCH files; blocks already in the file that are not
among these keep their content.  `paired` gives, per workload and
end-to-end metric of the change's BENCHMARK.json, the median and quartiles
of each side, the pairs in which the change is better, every run and a
verdict: `worse` when the change's median is worse than the parent's by
more than the metric's `bound`, relative to the parent's median;
`unresolved` when either side's interquartile range exceeds the bound,
relative to its median, and not every change run beats every parent run;
`ok` otherwise.  A claim is on `pipeline_s` and is met when the change is
better in at least 9 of 10 pairs and its median beats the parent's by more
than the parent's interquartile range.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from hand_in_check import REPO, commit_sha, export, result_of, run_perfbench

SIDES = ("parent", "change")
# Run length of every perfbench run, as in the repository's BENCH files.
SECONDS = 30
CLAIM_METRIC = "pipeline_s"


def _seeds(text: str) -> list[int]:
    """"961-970" or "951,953,955" as a list of seeds."""
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def _rounded(x: float) -> float:
    return round(float(x), 4)


def _spread(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": _rounded(median), "q1": _rounded(q1), "q3": _rounded(q3)}


def _compare(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    better = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pm, cm = float(np.median(parent)), float(np.median(change))
    return {
        "parent": _spread(parent),
        "change": _spread(change),
        "change_better_pairs": f"{better}/{len(parent)}",
        "median_change_pct": round(100.0 * (cm - pm) / pm, 1),
        "parent_runs": [_rounded(v) for v in parent],
        "change_runs": [_rounded(v) for v in change],
    }


def _verdict(parent: list[float], change: list[float], lower_is_better: bool, bound: float) -> str:
    """"worse", "unresolved" or "ok" for one end-to-end metric, as the module docstring defines them."""
    sign = 1.0 if lower_is_better else -1.0
    pm = float(np.median(parent))
    if sign * (float(np.median(change)) - pm) > bound * abs(pm):
        return "worse"
    quartiles = (np.percentile(runs, [25, 50, 75]) for runs in (parent, change))
    wide = any(q3 - q1 > bound * abs(median) for q1, median, q3 in quartiles)
    every_run_better = max(change) < min(parent) if lower_is_better else min(change) > max(parent)
    return "unresolved" if wide and not every_run_better else "ok"


def _claim(block: dict, workload: str, metric: str, unit: str, lower_is_better: bool) -> dict:
    entry = block[workload][metric]
    better, pairs = (int(v) for v in entry["change_better_pairs"].split("/"))
    gain = (1.0 if lower_is_better else -1.0) * (entry["parent"]["median"] - entry["change"]["median"])
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    suffix = unit.lower()
    return {
        "metric": metric,
        "workload": workload,
        "change_better_pairs": entry["change_better_pairs"],
        f"median_difference_{suffix}": _rounded(gain),
        f"parent_iqr_{suffix}": _rounded(iqr),
        "met": 10 * better >= 9 * pairs and gain > iqr,
    }


def _run(tree: str, side: str, workload: str, seed: int, trace: int) -> dict:
    print(f"{side} {workload} seed {seed} --trace {trace}", file=sys.stderr, flush=True)
    result, problem = result_of(run_perfbench(tree, workload, seed, SECONDS, trace))
    if problem:
        raise SystemExit(f"{side} {workload} seed {seed} --trace {trace} failed: {problem}")
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True, metavar="NAME=SEEDS")
    parser.add_argument("--claim", metavar="WORKLOAD", help=f"claim a {CLAIM_METRIC} gain on this workload")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    plan = {name: _seeds(seeds) for name, seeds in (w.split("=", 1) for w in args.workload)}
    if args.claim and args.claim not in plan:
        raise SystemExit(f"--claim names {args.claim!r}, which no --workload runs")
    shas = {"parent": commit_sha(args.parent), "change": commit_sha(args.change)}
    for side, revision in (("parent", args.parent), ("change", args.change)):
        if shas[side] is None:
            raise SystemExit(f"{revision!r} names no commit")
    out = args.out or REPO / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory() as parent_tree, tempfile.TemporaryDirectory() as change_tree:
        trees = {"parent": parent_tree, "change": change_tree}
        for side, tree in trees.items():
            error = export(shas[side], tree)
            if error:
                raise SystemExit(f"git archive {shas[side]} failed: {error}")
        metrics = json.loads((Path(change_tree) / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
        lower = {m["name"]: m["better"] == "lower" for m in metrics}
        bounds = {m["name"]: m["bound"] for m in metrics}
        paired = {}
        for workload, seeds in plan.items():
            runs = {side: [] for side in SIDES}
            first_side = {}
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first_side[str(seed)] = order[0]
                for side in order:
                    runs[side].append(_run(trees[side], side, workload, seed, 0))
            block = {"seeds": seeds, "first_side": first_side}
            for name in lower:
                values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
                block[name] = _compare(values["parent"], values["change"], lower[name])
                block[name]["verdict"] = _verdict(values["parent"], values["change"], lower[name], bounds[name])
            block["correct"] = all(r["correct"] for side in SIDES for r in runs[side])
            block["failed_ops"] = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
            block["attempted_ops"] = {side: sum(r["attempted"] for r in runs[side]) for side in SIDES}
            paired[workload] = block
        traced = None
        if args.traced_seed is not None:
            traced = {
                "command": f"python3 perfbench/run.py --workload W --seed {args.traced_seed} "
                           f"--seconds {SECONDS} --trace 1",
                "note": "one traced run per side, parent first; each value is perfbench's per-layer "
                        "metric over the traced passes of that run",
                "runs": {},
            }
            for workload in plan:
                sides = {}
                for side in SIDES:
                    result = _run(trees[side], side, workload, args.traced_seed, 1)
                    values = {n: _rounded(m["value"]) for n, m in result["metrics"].items()}
                    sides[side] = {**values, "correct": result["correct"], "attempted": result["attempted"],
                                   "failed": result["failed"]}
                traced["runs"][workload] = sides

    units = {m["name"]: m["unit"] for m in metrics}
    bench = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    bench.update({
        "label": args.label,
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "host": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__},
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "pairs": "; ".join(f"{w} seeds {s[0]}-{s[-1]}" if s == list(range(s[0], s[-1] + 1))
                           else f"{w} seeds {','.join(map(str, s))}" for w, s in plan.items())
                 + "; one parent and one change run per seed, one after the other, parent first on "
                   "each workload's first seed and then alternating; both trees are git archives",
        "paired": paired,
    })
    if args.claim:
        bench["claim"] = _claim(paired, args.claim, CLAIM_METRIC, units[CLAIM_METRIC], lower[CLAIM_METRIC])
    if traced is not None:
        bench["traced"] = traced
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    if args.claim:
        print(json.dumps(bench["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
