"""coinvarr benchmark: `coinvarr verify` sweeps timed as a user runs them.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Run from anywhere inside a checkout; it builds nothing and imports the
package from `src/`.  Each workload is a closed loop with one client: its
invocations run one after another, each a fresh single-process
`python -m coinvarr.cli verify ... --out FILE` at CLI defaults (started
through launch.py, which adds only a peak-RSS probe at exit), so every run
pays cold in-process caches as a user does.  A pass is one run of every
invocation of the workload; passes repeat until `--seconds` have gone by
(at least one pass, never a split one).

Every report is checked against the sha256 pinned in workloads.json.  A
nonzero exit, a timeout or a hash mismatch fails the invocation; any
failure makes the command exit 1 after naming the invocation.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json: medians over
the passes of wall and CPU time, peak RSS, checks per second, and the
median start-up time of `import coinvarr.cli`.  `--trace 1` runs one
untraced and one traced pass (tracer.py) and prints the per-layer metrics.

The sweeps are exhaustive, so no seed changes their inputs: `--seed` is
accepted and recorded, and the same seed (any seed) gives the same inputs.
The last line of stdout is the JSON result; the lines before it are the
environment and a readable summary.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# A run must end within 180 s; leave room for set-up and bookkeeping.
BUDGET_S = 165.0
SETUP_LAUNCHES = 15


def load_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    with open(HERE / "workloads.json") as handle:
        workloads = json.load(handle)["workloads"]
    return bench, workloads


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed hash order: set iteration order, and with it the traced call
    # counts, repeat exactly from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed):
    """Interpreter, CPU count and model, and the commit, for every result."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "commit": commit,
        "seed": seed,
    }


# -- one invocation ----------------------------------------------------------


@dataclass
class Invocation:
    """Outcome of one child process: times, memory, report check."""

    label: str
    wall: float
    cpu: float
    rss_mb: float
    error: str | None
    rows: int
    digest: str | None = None
    stats: dict | None = None


def run_invocation(spec, work, deadline, tracer_out=None):
    """Run one `coinvarr` child, wait for it, and check its report.

    spec holds the `coinvarr` args and, when pinned, the report's row count
    and sha256.  With tracer_out the child runs under tracer.py.
    """
    label = " ".join(spec["args"])
    out = work / "report.json"
    err = work / "stderr.txt"
    peak = work / "peak-kb.txt"
    for stale in (out, peak, tracer_out):
        if stale is not None and stale.exists():
            stale.unlink()
    if tracer_out is None:
        cmd = [sys.executable, str(HERE / "launch.py"), str(peak)]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(tracer_out)]
    cmd += spec["args"] + ["--out", str(out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return Invocation(label, 0.0, 0.0, 0.0, "no time left", 0)
    with open(err, "wb") as err_handle:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=work, env=child_env(), stdout=subprocess.DEVNULL, stderr=err_handle
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    error = None
    rows = 0
    digest = None
    if proc.returncode != 0:
        tail = err.read_text(errors="replace").strip().splitlines()[-3:]
        error = f"exit {proc.returncode}" + (": " + " | ".join(tail) if tail else "")
        if proc.returncode < 0 and time.monotonic() >= deadline:
            error = f"timeout after {timeout:.0f} s"
    else:
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        rows = len(json.loads(data))
        if "sha256" in spec and digest != spec["sha256"]:
            error = f"report sha256 {digest[:16]}... != pinned {spec['sha256'][:16]}..."
        elif "rows" in spec and rows != spec["rows"]:
            error = f"report has {rows} rows, pinned {spec['rows']}"
    rss_mb = 0.0
    stats = None
    if error is None and tracer_out is None:
        rss_mb = int(peak.read_text()) / 1024.0
    elif error is None:
        with open(tracer_out) as handle:
            stats = json.load(handle)
    return Invocation(label, wall, cpu, rss_mb, error, rows, digest, stats)


def run_pass(workload, work, deadline, traced=False):
    """Run every invocation of the workload once, in order."""
    done = []
    for index, spec in enumerate(workload["invocations"]):
        tracer_out = work / f"trace-{index}.json" if traced else None
        inv = run_invocation(spec, work, deadline, tracer_out)
        done.append(inv)
        if inv.error:
            break
    return done


def setup_seconds(work, count):
    """Median wall time of interpreter start plus `import coinvarr.cli`."""
    cmd = [sys.executable, "-c", "import coinvarr.cli"]
    env = child_env()
    times = []
    for launch in range(count + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=work, env=env, check=True)
        if launch:  # the first launch only warms the bytecode cache
            times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- metrics -----------------------------------------------------------------


def end_to_end(passes, setup_s):
    walls = [sum(i.wall for i in p) for p in passes]
    cpus = [sum(i.cpu for i in p) for p in passes]
    rows = sum(i.rows for i in passes[0])
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "checks_per_s": rows / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(max(i.rss_mb for i in p) for p in passes),
        "setup_s": setup_s,
    }


def percentile(sorted_values, q):
    """Nearest-rank percentile of a nonempty sorted list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def per_layer(traced, plain_wall):
    """Per-layer values from the tracer outputs of one traced pass."""
    functions = {}
    counters = {}
    task_s = []
    for inv in traced:
        for name, stat in inv.stats["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += stat[key]
        for name, value in inv.stats["counters"].items():
            counters[name] = counters.get(name, 0) + value
        task_s.extend(inv.stats["task_s"])
    values = dict(counters)
    for name, stat in functions.items():
        for key, value in stat.items():
            values[f"{name}.{key}"] = value
    tasks = len(task_s)
    lookups = functions["groebner.Ideal.groebner"]["calls"]
    task_ms = sorted(t * 1000.0 for t in task_s)
    values.update(
        {
            "groebner.cache_hit_ratio": (
                (lookups - counters["groebner.cache_misses"]) / lookups if lookups else 0.0
            ),
            "derivations.saito_per_task": functions["derivations.saito_check"]["calls"] / tasks,
            "st_algebras.classify_per_task": functions["st_algebras.classify"]["calls"] / tasks,
            "cli.tasks": tasks,
            "cli.task_ms_p50": percentile(task_ms, 50),
            "cli.task_ms_p98": percentile(task_ms, 98),
            "cli.plan_s": functions["cli.plan"]["total_s"],
            "cli.emit_s": functions["cli.emit"]["total_s"],
            "trace.overhead_ratio": sum(i.wall for i in traced) / plain_wall,
        }
    )
    return values


def trace_problems(workload, traced):
    """Integrity checks of one traced pass; returns a list of problems."""
    problems = []
    calls = {}
    for inv in traced:
        functions = inv.stats["functions"]
        for name, stat in functions.items():
            calls[name] = calls.get(name, 0) + stat["calls"]
        root = functions[tracer.ROOT]["total_s"]
        selfs = sum(stat["self_s"] for stat in functions.values())
        if abs(selfs - root) > 1e-9 + 1e-9 * root:
            problems.append(f"{inv.label}: self times sum to {selfs!r}, root is {root!r}")
        spans = inv.stats["spans"]
        for span_id, parent, name, start, end in spans:
            if parent is None:
                continue
            _, _, pname, pstart, pend = spans[parent]
            if not (pstart <= start <= end <= pend):
                problems.append(f"{inv.label}: span {name} {span_id} is outside {pname}")
                break
    for name in workload["heavy_layers"]:
        if not calls.get(name):
            problems.append(f"{name} made no calls")
    for name in workload["zero_calls"]:
        if calls.get(name):
            problems.append(f"{name} made {calls[name]} calls, expected none")
    return problems


# -- workloads ---------------------------------------------------------------


def measure(name, workload, bench, seconds, trace):
    """Run one workload; returns (result, failure lines, summary lines)."""
    deadline = time.monotonic() + BUDGET_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    passes = []
    if trace:
        passes.append(run_pass(workload, work, deadline))
        if not any(i.error for i in passes[0]):
            passes.append(run_pass(workload, work, deadline, traced=True))
    else:
        setup_s = setup_seconds(work, SETUP_LAUNCHES)
        measure_start = time.monotonic()
        while True:
            done = run_pass(workload, work, deadline)
            passes.append(done)
            now = time.monotonic()
            if any(i.error for i in done) or now - measure_start >= seconds:
                break
            if now + 1.5 * sum(i.wall for i in done) > deadline:
                break
    invocations = [i for p in passes for i in p]
    failures = [f"{name}: {i.label}: {i.error}" for i in invocations if i.error]
    failed = len(failures)
    if trace and not failures:
        # a traced pass that breaks the tracer's invariants counts as failed
        failures = [f"{name}: trace: {p}" for p in trace_problems(workload, passes[1])]
        failed = len(passes[1]) if failures else 0
    result = {
        "correct": not failures,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {},
    }
    rate = failed / len(invocations)
    lines = [f"{name:14s} {'error_rate':46s} {rate:.6g} ratio"]
    if failures:
        return result, failures, lines
    if trace:
        values = per_layer(passes[1], sum(i.wall for i in passes[0]))
        wanted = bench["per_layer"]
    else:
        values = end_to_end(passes, setup_s)
        wanted = bench["end_to_end"]
        lines.append(f"{name:14s} {'passes':46s} {len(passes)} count")
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    lines = [
        f"{name:14s} {metric:46s} {entry['value']:.6g} {entry['unit']}"
        for metric, entry in result["metrics"].items()
    ] + lines
    return result, failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds"
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coinvarr" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no coinvarr sources under {SRC}\n")
        return 2
    bench, workloads = load_spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            sys.stderr.write(f"perfbench: unknown workload {name!r}\n")
            return 2
    print(json.dumps({"env": environment(args.seed)}))
    results = {}
    all_failures = []
    for name in names:
        result, failures, lines = measure(
            name, workloads[name], bench, seconds, args.trace
        )
        results[name] = result
        all_failures += failures
        print("\n".join(lines))
    for line in all_failures:
        sys.stderr.write(f"perfbench: FAILED {line}\n")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 1 if all_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
