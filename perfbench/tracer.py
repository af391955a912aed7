"""Run `coinvarr` under a layer tracer: python3 perfbench/tracer.py OUT.json ARGS...

ARGS are the usual `coinvarr` arguments (for example `verify cospan --out r.json`).
The tracer wraps the layer boundaries named in LAYERS, in the module that
defines each function and in every `coinvarr` module that bound it with
`from .x import y`, so that no call escapes the count.  Every wrapped call
keeps a call count, its total time and its self time (total minus the time of
wrapped calls under it).  Hot arithmetic is kept only as those aggregates;
the functions in SPANS also leave one span each (id, parent id, name, start,
end), held in memory and written with the aggregates to OUT.json at exit.
The report bytes are not touched: the tracer only times and counts.
"""

import json
import sys
import time

# Layer -> wrapped names; "Class.method" patches a class attribute.
LAYERS = {
    "polynomials": [
        "Polynomial.__init__",
        "Polynomial.__mul__",
        "Polynomial.__add__",
        "exact_divide",
        "matrix_determinant",
        "diffop_apply",
        "vandermonde",
    ],
    "symmetric": ["steinberg_member"],
    "groebner": ["groebner_basis", "normal_form", "colon", "Ideal.groebner"],
    "arrangements": ["enumerate_southwest", "characteristic_polynomial", "point_count"],
    "derivations": ["saito_check", "st_ideal"],
    "superspace": ["rank_of_elements", "invariant_ideal_rows", "SuperElement.__mul__"],
    "st_algebras": [
        "classify",
        "verify_box_basis",
        "exact_sequence_check",
        "verify_skip_quotient",
        "cospan_check",
    ],
}

# Boundary calls that also leave a span; everything else is aggregate only.
SPANS = {
    "st_algebras.classify",
    "groebner.colon",
    "groebner.groebner_basis",
    "derivations.saito_check",
    "superspace.rank_of_elements",
    "cli.task",
}

ROOT = "cli.main"


def metric_name(module, attr):
    """`Polynomial.__init__` in `polynomials` -> `polynomials.Polynomial.init`."""
    return module + "." + ".".join(part.strip("_") for part in attr.split("."))


class Stat:
    __slots__ = ("calls", "total", "self", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.active = 0


class Tracer:
    """Call stack of wrapped frames; each frame is [stat, child_time, span_id]."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.counters = {
            "groebner.groebner_basis.basis_polys": 0,
            "groebner.cache_misses": 0,
            "superspace.rank_of_elements.rows": 0,
            "superspace.rank_of_elements.nonzeros": 0,
        }
        self.task_s = []
        self.stack = []

    def stat(self, name):
        got = self.stats.get(name)
        if got is None:
            got = self.stats[name] = Stat()
        return got

    def wrap(self, name, fn, observe=None):
        """Return a timed stand-in for fn.

        observe(args, result, caller, elapsed) runs after each call that
        returns; caller is the Stat of the wrapped frame the call came from.
        """
        stat = self.stat(name)
        stack = self.stack
        clock = time.perf_counter
        spans = self.spans if name in SPANS else None

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            stat.calls += 1
            stat.active += 1
            span_id = None
            if spans is not None:
                span_id = len(spans)
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                spans.append([span_id, parent, name, 0.0, 0.0])
            frame = [stat, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.active -= 1
                if not stat.active:
                    stat.total += elapsed
                stat.self += elapsed - frame[1]
                if caller is not None:
                    caller[1] += elapsed
                if span_id is not None:
                    spans[span_id][3] = start
                    spans[span_id][4] = start + elapsed
            if observe is not None:
                observe(args, result, caller and caller[0], elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Import `coinvarr.cli`, patch every layer boundary, return the module."""
        import coinvarr.cli as cli

        modules = [m for k, m in sys.modules.items() if k.startswith("coinvarr.") and m]
        counters = self.counters
        ideal_groebner = self.stat("groebner.Ideal.groebner")

        def observe_basis(args, result, caller, elapsed):
            counters["groebner.groebner_basis.basis_polys"] += len(result)
            if caller is ideal_groebner:
                counters["groebner.cache_misses"] += 1

        for layer, names in LAYERS.items():
            home = sys.modules["coinvarr." + layer]
            for attr in names:
                name = metric_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    fn = cls.__dict__[meth]
                    wrapped = self.wrap(name, fn)
                    # aliases such as __radd__ = __add__ share the counter
                    for key, value in list(cls.__dict__.items()):
                        if value is fn:
                            setattr(cls, key, wrapped)
                    continue
                fn = getattr(home, attr)
                if name == "groebner.groebner_basis":
                    wrapped = self.wrap(name, fn, observe_basis)
                elif name == "superspace.rank_of_elements":
                    wrapped = self._count_rows(self.wrap(name, fn))
                else:
                    wrapped = self.wrap(name, fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapped)
        task_s = self.task_s
        for suite in cli.SUITES.values():
            suite.run = self.wrap(
                "cli.task", suite.run, lambda a, r, c, elapsed: task_s.append(elapsed)
            )
            suite.plan = self.wrap("cli.plan", suite.plan)
        cli.emit_report = self.wrap("cli.emit", cli.emit_report)
        return cli

    def _count_rows(self, rank_of_elements):
        counters = self.counters

        # counted outside the timed call, so rank's self time stays its own
        def counted(elements):
            elements = list(elements)
            counters["superspace.rank_of_elements.rows"] += len(elements)
            counters["superspace.rank_of_elements.nonzeros"] += sum(
                len(e.terms) for e in elements
            )
            return rank_of_elements(elements)

        return counted

    # -- results -----------------------------------------------------------

    def result(self):
        functions = {
            name: {"calls": s.calls, "total_s": s.total, "self_s": s.self}
            for name, s in sorted(self.stats.items())
        }
        return {
            "functions": functions,
            "counters": self.counters,
            "task_s": self.task_s,
            "spans": self.spans,
        }


def main(argv):
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.install()
    code = tracer.wrap(ROOT, cli.main)(args)
    with open(out_path, "w") as handle:
        json.dump(tracer.result(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
