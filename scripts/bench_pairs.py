"""Alternating parent/change runs of the benchmark, written as one summary JSON.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH.json \\
        --seed 11 --claim envelope:wall_rel --layers scripts/envelope_layers.py

PARENT and CHANGE are source checkouts.  For every workload of the
change's ``BENCHMARK.json``, pair i runs ``perfbench/run.py`` for the
benchmark's ``run_seconds`` once in each, the parent first on odd pairs,
and keeps the end-to-end metrics of the result line; there are ten pairs,
as the claim rule counts wins in ten.  Per workload and metric the file
holds both sides' values, medians and quartiles (``statistics.quantiles``,
n = 4) and the pairs the change won; no pass record is kept.  ``--claim``
names one workload metric and records whether the change won at least
nine pairs in ten and moved the median by more than the parent's
interquartile range.

``--seed`` is the seed of every run, so that a claim can be confirmed on
a seed the change was not tuned against.

With ``--layers``, that script runs in each checkout, with its ``src`` on
the path and the checkout as working directory, for two alternating rounds;
its last stdout line is a JSON object of named rows, kept per side and
round.  Its path is resolved against the working directory the command
runs in, and a path naming no file is refused before any run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
LAYER_ROUNDS = 2


def _run(checkout, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()


def _order(i):
    # pairs count from 1; the parent runs first on odd pairs
    return ("parent", "change") if i % 2 else ("change", "parent")


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def bench_workload(sides, workload, seed, seconds, better):
    runs = {side: [] for side in sides}
    environment = None
    for i in range(1, PAIRS + 1):
        for side in _order(i):
            lines = _run(sides[side], ["perfbench/run.py", "--workload", workload, "--seed",
                                       str(seed), "--seconds", str(seconds), "--trace", "0"])
            environment = {k: v for k, v in json.loads(lines[-2])["record"]["environment"].items()
                           if k not in ("seed", "workload")}
            runs[side].append(json.loads(lines[-1]))
    table = {}
    for name, sense in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        sign = 1.0 if sense == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        table[name] = {side: _summary(values[side]) for side in sides} | {"change_wins": wins}
    table["correct"] = all(r["correct"] for side in sides for r in runs[side])
    return table, environment


def bench_layers(sides, script):
    rows = {side: [] for side in sides}
    for i in range(1, LAYER_ROUNDS + 1):
        for side in _order(i):
            rows[side].append(json.loads(_run(sides[side], [str(script)])[-1]))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--layers", help="script printing a JSON object of layer rows last")
    args = ap.parse_args(argv)
    layers = Path(args.layers).resolve() if args.layers else None
    if layers is not None and not layers.is_file():
        ap.error(f"--layers: no such file: {layers}")
    sides = {"parent": args.parent, "change": args.change}
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {"command": "python3 perfbench/run.py --workload <workload> --seed "
                      f"{args.seed} --seconds {seconds:g} --trace 0",
           "order": "pairs alternate which side runs first, the parent on odd pairs",
           "pairs": PAIRS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        out["workloads"][workload], out["environment"] = bench_workload(
            sides, workload, args.seed, seconds, better)
        print(f"{workload}: done", file=sys.stderr)
    if args.claim:
        workload, metric = args.claim.split(":")
        row = out["workloads"][workload][metric]
        parent, change = row["parent"], row["change"]
        sign = 1.0 if better[metric] == "lower" else -1.0
        gain = sign * (parent["median"] - change["median"])
        out["claim"] = {
            "workload": workload, "metric": metric,
            "rule": "the change wins at least 9 pairs in 10 and its median moves by more "
                    "than the parent's interquartile range",
            "median_change_rel": (change["median"] - parent["median"]) / parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "holds": row["change_wins"] >= 9 and gain > parent["q3"] - parent["q1"],
        }
    if args.layers:
        out["layers"] = {"script": args.layers,
                         "rows": bench_layers(sides, layers)}
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
