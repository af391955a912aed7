"""Verification front end: plan instance lists, run check suites, emit reports.

Every suite plans a deterministic list of (n, key, instance) tasks, runs a
pure check per instance, and the runner flattens the outcomes into report
rows sorted by (check, n, key).  A report row carries canonical expected and
actual strings so that pass is literal string equality; elapsed milliseconds
default to 0 and are opt-in, keeping reruns byte-identical for a fixed
configuration.
"""

import argparse
import csv
import io
import json
import math
import random
import sys
import time
import traceback

from .arrangements import (
    Arrangement,
    char_poly_eval,
    characteristic_polynomial,
    column_counts,
    diagram,
    enumerate_southwest,
    format_arrangement,
    full_arrangement,
    is_essential,
    is_southwest,
    parse_arrangement,
    point_count,
    roots_poly,
    skip_arrangement,
    smallest_prime_above,
    staircase,
    staircase_monomials,
    subsets,
)
from .derivations import (
    Derivation,
    saito_check,
    skip_basis,
    skip_generators,
    southwest_basis,
)
from .groebner import (
    Ideal,
    ideal_equal,
    is_regular_sequence,
)
from .polynomials import Polynomial, clear_suite_caches, q_integer_product
from .st_algebras import (
    classify,
    cospan_check,
    exact_sequence_check,
    skip_colon,
    verify_box_basis,
    verify_skip_quotient,
)
from .superspace import artin_monomials, fubini, sr_basis_certificate
from .symmetric import (
    coinvariant_generators,
    eh_duality_check,
    partitions,
    schur,
    steinberg_member,
)

SAMPLE_CAP = 64

# largest degree the symmetric-toolkit suite sweeps
DEGREE_CAP = 4

EXAMPLE5 = Arrangement(
    5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (2, 5)]
)

# frozen canonical serializations for the fixed display checks
DISPLAY_STAIRCASE = "(1, 1, 2, 2, 3)"
DISPLAY_SKIP_MONOMIALS = (
    "x3*x4*x5^2, x3*x4*x5, x3*x4, x3*x5^2, x3*x5, x3, "
    "x4*x5^2, x4*x5, x4, x5^2, x5, 1"
)
DISPLAY_DECORATED = (
    "x2*x3^2, x2*x3, x2, x3^2, x3, 1, "
    "x2*x3*t3, x2*t3, x3*t3, t3, x3*t2, t2, t2*t3"
)


# -- plumbing ----------------------------------------------------------------


class RunConfig:
    """Options one run holds constant; everything here must pickle."""

    __slots__ = ("n", "workers", "timings", "seed", "exhaustive")

    def __init__(self, n=None, workers=1, timings=False, seed=None, exhaustive=False):
        if n is not None and n < 1:
            raise ValueError("n must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        self.n = n
        self.workers = workers
        self.timings = timings
        self.seed = seed
        self.exhaustive = exhaustive


def canon(value):
    """Canonical report text for a computed value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, Polynomial):
        return value.text()
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(canon(v) for v in value) + ")"
    if value is None:
        return "none"
    return str(value)


def make_report(check, n, instance, expected, actual, ms=0):
    expected = canon(expected)
    actual = canon(actual)
    return {
        "check": check,
        "n": n,
        "instance": instance,
        "expected": expected,
        "actual": actual,
        "pass": expected == actual,
        "ms": ms,
    }


def _jkey(J):
    return "J={" + ",".join(str(j) for j in sorted(J)) + "}"


def _tkey(pairs):
    return "T=" + ",".join(f"{i}-{j}" for i, j in sorted(pairs))


# -- suites ------------------------------------------------------------------


class Suite:
    """One named family of checks with its planning and execution hooks.

    plan(top) lists the tasks up to n = top as (n, key, instance)
    triples: key is the string the report prints, instance the object the
    check reads, and every (n, key) is distinct.  run(n, instance, cfg)
    returns (check, expected, actual) rows; the runner attaches n and key
    and canonicalizes both values.  count(top), when set, is the number of
    tasks plan must list; top is already clamped to the suite's limit.
    """

    __slots__ = ("name", "default_n", "cap", "plan", "run", "count", "doc")

    def __init__(self, name, default_n, cap, plan, run, count, doc):
        self.name = name
        self.default_n = default_n
        self.cap = cap
        self.plan = plan
        self.run = run
        self.count = count
        self.doc = doc


def _plan_all_j(top):
    return [
        (n, _jkey(J), J) for n in range(1, top + 1) for J in subsets(range(1, n + 1))
    ]


def _count_all_j(top):
    return sum(2**n for n in range(1, top + 1))


def _plan_staircase(top):
    displays = [
        (5, "display:staircase"),
        (5, "display:skip-monomials"),
        (3, "display:decorated-monomials"),
    ]
    return _plan_all_j(top) + [(n, key, key) for n, key in displays]


def _run_staircase(n, J, cfg):
    # J is a skip set, or the name of one of the frozen displays
    if J == "display:staircase":
        return [("display", DISPLAY_STAIRCASE, staircase({2, 4}, 5))]
    if J == "display:skip-monomials":
        got = ", ".join(
            Polynomial.monomial(5, e).text() for e in staircase_monomials({2, 4}, 5)
        )
        return [("display", DISPLAY_SKIP_MONOMIALS, got)]
    if J == "display:decorated-monomials":
        got = ", ".join(m.text() for m in artin_monomials(3))
        return [("display", DISPLAY_DECORATED, got)]
    want = tuple(sum(1 for j in range(1, i + 1) if j not in J) for i in range(1, n + 1))
    return [
        ("staircase", want, staircase(J, n)),
        ("staircase-count", math.prod(want), len(staircase_monomials(J, n))),
    ]


def _count_staircase(top):
    return _count_all_j(top) + 3


def _plan_per_n(top):
    return [(n, f"n={n}", n) for n in range(1, top + 1)]


def _run_super_basis(n, _, cfg):
    table, ok = sr_basis_certificate(n)
    return [
        ("sr-basis", True, ok),
        ("sr-dimension", fubini(n), sum(table.values())),
    ]


def _run_skip_quotient(n, J, cfg):
    return [("skip-quotient", True, verify_skip_quotient(J, n))]


def _plan_colon(top):
    return [
        (n, _jkey(J), J) for n in range(1, top + 1) for J in subsets(range(2, n + 1))
    ]


def _count_colon(top):
    return sum(2 ** (n - 1) for n in range(1, top + 1))


def _run_colon(n, J, cfg):
    gens = skip_generators(J, n)
    equal = ideal_equal(Ideal(n, gens), skip_colon(J, n))
    return [
        ("regular-sequence", True, is_regular_sequence(gens, n)),
        ("colon-equality", "equal", "equal" if equal else "different"),
    ]


def _plan_saito_southwest(top):
    return [
        (n, format_arrangement(A), A)
        for n in range(1, top + 1)
        for A in enumerate_southwest(n)
    ]


def _count_saito_southwest(top):
    return sum(math.factorial(n + 1) for n in range(1, top + 1))


def _run_saito_southwest(n, A, cfg):
    verdict = saito_check(southwest_basis(A), A)
    return [("saito-southwest", "certified", "certified" if verdict else "rejected")]


def _run_saito_skip(n, J, cfg):
    verdict = saito_check(skip_basis(J, n), skip_arrangement(J, n))
    return [("saito-skip", "certified", "certified" if verdict else "rejected")]


def _run_char_poly(n, J, cfg):
    A = skip_arrangement(J, n)
    mob = characteristic_polynomial(A)
    p = smallest_prime_above(n * len(A))
    return [
        ("char-poly-product", roots_poly(staircase(J, n)), mob),
        ("char-poly-points", point_count(A, p), char_poly_eval(mob, p)),
    ]


def _plan_cospan(top):
    return [
        (n, _tkey(T), T)
        for n in range(1, top + 1)
        for T in subsets(full_arrangement(n).sorted_pairs())
    ]


def _count_cospan(top):
    return sum(2 ** (n * (n + 1) // 2) for n in range(1, top + 1))


def _run_cospan(n, T, cfg):
    ok = cospan_check(T, n)
    return [("cospan", "agree", "agree" if ok else "split")]


def _plan_southwest_quotient(top):
    arrangements = [
        A
        for n in range(1, min(top, 4) + 1)
        for A in enumerate_southwest(n, essential_only=True)
    ]
    arrangements.append(EXAMPLE5)
    if top >= 5:
        arrangements.extend(
            A for A in enumerate_southwest(5, essential_only=True) if A != EXAMPLE5
        )
    if top >= 6:
        arrangements.extend(enumerate_southwest(6, essential_only=True))
    return [(A.n, format_arrangement(A), A) for A in arrangements]


def _run_southwest_quotient(n, A, cfg):
    inst = classify(A)
    return [
        ("box-basis", True, verify_box_basis(inst)),
        ("hilbert-additivity", True, exact_sequence_check(inst)),
        ("st-dimension", math.prod(column_counts(A)), inst.dimension),
    ]


def _plan_trichotomy(top):
    fixtures = [(2, "empty"), (2, "line")] if top >= 2 else []
    fixtures += [(n, "full") for n in range(1, top + 1)]
    return [(n, f"fixture:{name}", name) for n, name in fixtures]


def _run_trichotomy(n, fixture, cfg):
    if fixture == "empty":
        inst = classify(Arrangement(2, []))
        return [("trichotomy", "zero", inst.tag)]
    if fixture == "line":
        one = Polynomial.one(2)
        x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        basis = [Derivation([one, -one]), Derivation.euler(2)]
        inst = classify([x1 + x2], basis=basis)
        return [("trichotomy", "infinite", inst.tag)]
    inst = classify(full_arrangement(n))
    return [
        ("trichotomy", "poincare-duality", inst.tag),
        ("st-dimension", math.factorial(n), inst.dimension),
        ("hilbert-series", q_integer_product(range(1, n + 1)), inst.hilbert),
    ]


def _random_polynomial(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, DEGREE_CAP) for _ in range(n))
        terms[exps] = terms.get(exps, 0) + rng.randint(-4, 4)
    return Polynomial(n, terms)


def _plan_symmetric(top):
    """Instances: a random-polynomial index (int), a Schur pair (A, shape),
    or a duality subset A (frozenset).  Random polynomial i lives at
    n = (i % 3) + 1 and is planned only when that n is at most top."""
    tasks = [
        ((i % 3) + 1, f"poly-{i:03d}", i) for i in range(200) if (i % 3) + 1 <= top
    ]
    for n in range(1, top + 1):
        for A in subsets(range(1, n + 1)):
            akey = "{" + ",".join(str(a) for a in sorted(A)) + "}"
            for total in range(1, DEGREE_CAP + 1):
                for shape in partitions(total):
                    if shape[0] > n - len(A):
                        tasks.append((n, f"schur:A={akey};shape={shape}", (A, shape)))
            tasks.append((n, f"duality:A={akey}", A))
    return tasks


def _run_symmetric(n, instance, cfg):
    if isinstance(instance, int):
        seed = cfg.seed if cfg.seed is not None else 0
        f = _random_polynomial(random.Random(f"{seed}:{instance}"), n)
        agree = steinberg_member(f) == Ideal(n, coinvariant_generators(n)).contains(f)
        return [("steinberg-agreement", "agree", "agree" if agree else "split")]
    if isinstance(instance, tuple):
        A, shape = instance
        member = steinberg_member(schur(shape, n, A))
        return [("schur-membership", "member", "member" if member else "outside")]
    B = frozenset(range(1, n + 1)) - instance
    ok = all(eh_duality_check(d, instance, B, n) for d in range(DEGREE_CAP + 1))
    return [("eh-duality", True, ok)]


SUITES = {
    "staircase": Suite(
        "staircase",
        5,
        6,
        _plan_staircase,
        _run_staircase,
        _count_staircase,
        "staircase vectors, monomial counts, and the frozen display strings",
    ),
    "super-basis": Suite(
        "super-basis",
        4,
        5,
        _plan_per_n,
        _run_super_basis,
        lambda top: top,
        "decorated monomial basis of the super coinvariant quotient per n",
    ),
    "skip-quotient": Suite(
        "skip-quotient",
        4,
        6,
        _plan_all_j,
        _run_skip_quotient,
        _count_all_j,
        "staircase monomials against the colon-ideal quotient, all J",
    ),
    "colon-generators": Suite(
        "colon-generators",
        4,
        6,
        _plan_colon,
        _run_colon,
        _count_colon,
        "skip generators: regular sequence and colon-ideal equality",
    ),
    "saito-southwest": Suite(
        "saito-southwest",
        4,
        6,
        _plan_saito_southwest,
        _run_saito_southwest,
        _count_saito_southwest,
        "determinant certification of the column basis, every southwest",
    ),
    "saito-skip": Suite(
        "saito-skip",
        4,
        6,
        _plan_all_j,
        _run_saito_skip,
        _count_all_j,
        "determinant certification of the staircase basis, all J",
    ),
    "char-poly": Suite(
        "char-poly",
        5,
        6,
        _plan_all_j,
        _run_char_poly,
        _count_all_j,
        "characteristic polynomial product formula plus a point count",
    ),
    "cospan": Suite(
        "cospan",
        4,
        4,
        _plan_cospan,
        _run_cospan,
        _count_cospan,
        "product membership against complement span, all form subsets",
    ),
    "southwest-quotient": Suite(
        "southwest-quotient",
        4,
        6,
        _plan_southwest_quotient,
        _run_southwest_quotient,
        None,
        "box bases, Hilbert additivity, dimensions for essential southwest",
    ),
    "trichotomy": Suite(
        "trichotomy",
        4,
        5,
        _plan_trichotomy,
        _run_trichotomy,
        lambda top: top + 2 if top >= 2 else top,
        "zero / infinite / duality classification fixtures",
    ),
    "symmetric-toolkit": Suite(
        "symmetric-toolkit",
        4,
        4,
        _plan_symmetric,
        _run_symmetric,
        None,
        "operator membership agreement, Schur membership, e-h duality",
    ),
}


# -- runner ------------------------------------------------------------------


def _execute(task):
    """Run one task; an exception becomes a failing error row, not a crash."""
    name, n, key, instance, cfg = task
    start = time.perf_counter()
    try:
        rows = SUITES[name].run(n, instance, cfg)
    except Exception as exc:
        sys.stderr.write(f"coinvarr: {name} n={n} {key}\n{traceback.format_exc()}")
        rows = [("error", "ok", type(exc).__name__)]
    ms = int((time.perf_counter() - start) * 1000) if cfg.timings else 0
    return [(check, n, key, expected, actual, ms) for check, expected, actual in rows]


def run_suite(name, cfg):
    """Plan, execute, and sort one suite; returns the report rows."""
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}")
    top = cfg.n if cfg.n is not None else suite.default_n
    allowed = suite.cap if cfg.exhaustive else suite.default_n
    if top > allowed:
        sys.stderr.write(
            f"coinvarr: {name} sweeps n <= {allowed}, not --n {top}; "
            f"its --exhaustive limit is n = {suite.cap}\n"
        )
        top = allowed
    try:
        tasks = suite.plan(top)
        if suite.count is not None:  # the full plan, before any sampling
            want = suite.count(top)
            if len(tasks) != want:
                raise RuntimeError(
                    f"suite {name} planned {len(tasks)} instances, expected {want}"
                )
        if cfg.seed is not None and len(tasks) > SAMPLE_CAP:
            rng = random.Random(cfg.seed)
            # instances need not compare; (n, key) is unique per task
            tasks = sorted(rng.sample(tasks, SAMPLE_CAP), key=lambda t: t[:2])
        tasks = [(name, n, key, instance, cfg) for n, key, instance in tasks]
        # a pool may fork all its workers at the first submit
        workers = min(cfg.workers, len(tasks))
        if workers > 1:
            # imported here: loading multiprocessing slows every start-up
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunks = list(pool.map(_execute, tasks, chunksize=8))
        else:
            chunks = [_execute(t) for t in tasks]
    finally:
        clear_suite_caches()
    reports = [make_report(*row) for chunk in chunks for row in chunk]
    reports.sort(key=lambda r: (r["check"], r["n"], r["instance"]))
    return reports


def emit_report(reports, fmt):
    """Serialize report rows; identical input gives identical bytes."""
    if fmt == "json":
        return json.dumps(reports, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "n", "instance", "expected", "actual", "pass", "ms"])
        for r in reports:
            writer.writerow(
                [
                    r["check"],
                    r["n"],
                    r["instance"],
                    r["expected"],
                    r["actual"],
                    "true" if r["pass"] else "false",
                    r["ms"],
                ]
            )
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


# -- entry point -------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coinvarr",
        description="exact verification suites for coinvariant and arrangement algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lines = [f"  {name:20s} {SUITES[name].doc}" for name in sorted(SUITES)]
    verify = sub.add_parser(
        "verify",
        help="run a verification suite and emit a report",
        description="suites:\n" + "\n".join(lines) + "\n  all",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    verify.add_argument(
        "--n",
        type=int,
        help="largest n to sweep; a suite stops at its default n (its hard cap "
        "under --exhaustive) and says so on stderr; southwest-quotient always "
        "adds its pinned n = 5 example EXAMPLE5",
    )
    group = verify.add_mutually_exclusive_group()
    group.add_argument(
        "--exhaustive",
        action="store_true",
        help="unlock the per-suite hard caps (larger n sweeps)",
    )
    group.add_argument(
        "--sample",
        type=int,
        metavar="SEED",
        default=None,
        help=f"sample at most {SAMPLE_CAP} instances per suite with this seed",
    )
    verify.add_argument("--out", default=None, help="write the report here")
    verify.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="report format (default json)",
    )
    verify.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run each suite's tasks in up to this many processes; the report "
        "bytes do not depend on it (default 1)",
    )
    verify.add_argument(
        "--timings",
        action="store_true",
        help="record elapsed milliseconds (breaks byte-stability)",
    )

    show = sub.add_parser("show", help="pretty-print a library object")
    show.add_argument("what", choices=["arrangement"])
    show.add_argument("text", help="arrangement in the n=..;H:.. format")
    return parser


def _show_arrangement(text, out):
    A = parse_arrangement(text)
    out.write(diagram(A) + "\n")
    out.write(f"columns: {canon(column_counts(A))}\n")
    out.write(f"southwest: {canon(is_southwest(A))}\n")
    out.write(f"essential: {canon(is_essential(A))}\n")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "show":
            _show_arrangement(args.text, sys.stdout)
            return 0
        cfg = RunConfig(
            n=args.n,
            workers=args.workers,
            timings=args.timings,
            seed=args.sample,
            exhaustive=args.exhaustive,
        )
        # a path that cannot be written fails before any suite runs
        out = open(args.out, "w") if args.out else sys.stdout
    except (ValueError, OSError) as err:
        sys.stderr.write(f"coinvarr: error: {err}\n")
        return 2
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    try:
        for name in names:
            reports.extend(run_suite(name, cfg))
        out.write(emit_report(reports, args.format))
    finally:
        if out is not sys.stdout:
            out.close()
    failures = sum(1 for r in reports if not r["pass"])
    if failures:
        sys.stderr.write(f"{failures} of {len(reports)} checks failed\n")
        return 1
    sys.stderr.write(f"all {len(reports)} checks passed\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
