"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...] [--out FILE]

Runs `run.py --workload W --seed S` once per seed S = 1..runs for each
workload, at BENCHMARK.json's run_seconds. For every end-to-end metric it
reports the median and quartiles of the runs, and their spread: the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A spread
under a third of the metric's bound is steady. --out writes the runs, the
summary and the environment as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3,
    }


def main():
    bench, workloads = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(workloads))
    parser.add_argument("--out")
    args = parser.parse_args()
    names = args.workload or list(workloads)
    out = {"env": run.environment(None), "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name]
            cmd += ["--seed", str(seed), "--seconds", str(bench["run_seconds"])]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = summarize(values, metric["bound"])
            row = summary[metric["name"]]
            steady &= row["steady"] or metric["name"] == "setup_s"
            print(
                f"{name:14s} {metric['name']:14s} median {row['median']:.6g} "
                f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.2%} "
                f"(bound {metric['bound']:.0%}){'' if row['steady'] else ' UNSTEADY'}",
                flush=True,
            )
        out["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
