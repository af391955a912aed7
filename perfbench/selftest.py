"""Checks of the benchmark itself, on tiny sweeps: python3 perfbench/selftest.py

Every workload runs with `--n 3` in place of its sweep size, once untraced
and twice traced.  The checks:

- after the tracer installs, no `coinvarr` module or class still binds an
  unwrapped original, so no call escapes the count;
- every wrapped function is a heavy layer of some workload, and makes calls
  on it; the functions a workload lists under zero_calls make none
  (run.trace_problems, which full-size traced runs also apply);
- the self times of the wrapped calls sum to the root span, and every span
  lies inside its parent (also run.trace_problems);
- every call count repeats exactly between the two traced runs;
- the tracer leaves the report bytes unchanged;
- the traced run yields every per-layer metric that BENCHMARK.json names.

Exits 1 and names each failed check.
"""

import importlib
import shutil
import sys
import time

import run
import tracer

TINY_N = "3"


def tiny(workload):
    """The workload with each sweep cut to n <= 3 and no pinned reports."""
    invocations = []
    for spec in workload["invocations"]:
        args = list(spec["args"])
        if "--n" in args:
            args[args.index("--n") + 1] = TINY_N
        else:
            args += ["--n", TINY_N]
        invocations.append({"args": args})
    return dict(workload, invocations=invocations)


def escaped_bindings():
    """Names still bound to an unwrapped original after Tracer.install()."""
    sys.path.insert(0, str(run.SRC))
    importlib.import_module("coinvarr.cli")
    originals = {}
    for layer, names in tracer.LAYERS.items():
        obj = importlib.import_module("coinvarr." + layer)
        for attr in names:
            target = obj
            for part in attr.split("."):
                target = vars(target)[part]
            originals[id(target)] = tracer.metric_name(layer, attr)
    tracer.Tracer().install()
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("coinvarr"):
            continue
        for key, value in vars(module).items():
            scopes = [(key, value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                scopes += [(f"{key}.{k}", v) for k, v in vars(value).items()]
            for where, bound in scopes:
                if id(bound) in originals:
                    found.append(f"{mod_name}.{where} escapes {originals[id(bound)]}")
    return found


def calls(traced):
    return [
        {name: stat["calls"] for name, stat in inv.stats["functions"].items()}
        for inv in traced
    ]


def check(name, workload, bench, work):
    deadline = time.monotonic() + run.BUDGET_S
    plain = run.run_pass(workload, work, deadline)
    traced = [run.run_pass(workload, work, deadline, traced=True) for _ in range(2)]
    errors = [i for p in [plain] + traced for i in p if i.error]
    if errors:
        return [f"{i.label}: {i.error}" for i in errors]
    problems = run.trace_problems(workload, traced[0])
    if calls(traced[0]) != calls(traced[1]):
        problems.append("call counts differ between two traced runs")
    for before, after in zip(plain, traced[0]):
        if before.digest != after.digest:
            problems.append(f"{before.label}: the tracer changed the report bytes")
    values = run.per_layer(traced[0], sum(i.wall for i in plain))
    for metric in bench["per_layer"]:
        if metric["name"] not in values:
            problems.append(f"per-layer metric {metric['name']} is not produced")
    return [f"{name}: {p}" for p in problems]


def main():
    bench, workloads = run.load_spec()
    wrapped = {
        tracer.metric_name(layer, attr)
        for layer, names in tracer.LAYERS.items()
        for attr in names
    }
    heavy = {f for w in workloads.values() for f in w["heavy_layers"]}
    problems = [f"{f} is no workload's heavy layer" for f in sorted(wrapped - heavy)]
    problems += [f"{f} is not wrapped by the tracer" for f in sorted(heavy - wrapped)]
    problems += escaped_bindings()
    work = run.WORK / "selftest"
    for name, workload in workloads.items():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        found = check(name, tiny(workload), bench, work)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for line in problems:
        print(f"selftest: FAILED {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
