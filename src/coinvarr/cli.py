"""Verification front end: plan instance lists, run check suites, emit reports.

Every suite plans a deterministic list of (n, instance-key) tasks, runs a
pure check per task, and the runner flattens the outcomes into report rows
sorted by (check, n, instance).  A report row carries canonical expected and
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
from concurrent.futures import ProcessPoolExecutor

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
    skip_forms_product,
    smallest_prime_above,
    staircase,
    staircase_monomials,
    subsets,
)
from .derivations import (
    Derivation,
    ones_map,
    saito_check,
    skip_basis,
    skip_generators,
    southwest_basis,
)
from .groebner import Ideal, clear_basis_cache, colon, ideal_equal, is_regular_sequence
from .polynomials import Polynomial
from .st_algebras import (
    classify,
    cospan_check,
    exact_sequence_check,
    q_integer_product,
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

    __slots__ = (
        "n",
        "workers",
        "prime",
        "degree_cap",
        "timings",
        "seed",
        "exhaustive",
    )

    def __init__(
        self,
        n=None,
        workers=1,
        prime=None,
        degree_cap=4,
        timings=False,
        seed=None,
        exhaustive=False,
    ):
        if n is not None and n < 1:
            raise ValueError("n must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        if degree_cap < 1:
            raise ValueError("degree cap must be positive")
        if prime is not None and prime < 2:
            raise ValueError("prime must be at least 2")
        self.n = n
        self.workers = workers
        self.prime = prime
        self.degree_cap = degree_cap
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


def _jparse(key):
    body = key[len("J={") : -1]
    return frozenset(int(p) for p in body.split(",") if p)


def _tkey(pairs):
    return "T=" + ",".join(f"{i}-{j}" for i, j in sorted(pairs))


def _tparse(key):
    body = key[len("T=") :]
    out = set()
    for part in body.split(","):
        if part:
            i, j = part.split("-")
            out.add((int(i), int(j)))
    return out


# -- suites ------------------------------------------------------------------


class Suite:
    """One named family of checks with its planning and execution hooks."""

    __slots__ = ("name", "default_n", "cap", "plan", "run", "count", "doc")

    def __init__(self, name, default_n, cap, plan, run, count, doc):
        self.name = name
        self.default_n = default_n
        self.cap = cap
        self.plan = plan
        self.run = run
        self.count = count
        self.doc = doc


def _plan_all_j(cfg, top):
    return [(n, _jkey(J)) for n in range(1, top + 1) for J in subsets(range(1, n + 1))]


def _count_all_j(cfg, top):
    return sum(2**n for n in range(1, top + 1))


def _plan_staircase(cfg, top):
    return _plan_all_j(cfg, top) + [
        (5, "display:staircase"),
        (5, "display:skip-monomials"),
        (3, "display:decorated-monomials"),
    ]


def _run_staircase(n, key, cfg):
    if key == "display:staircase":
        return [("display", key, DISPLAY_STAIRCASE, canon(staircase({2, 4}, 5)))]
    if key == "display:skip-monomials":
        got = ", ".join(
            Polynomial.monomial(5, e).text() for e in staircase_monomials({2, 4}, 5)
        )
        return [("display", key, DISPLAY_SKIP_MONOMIALS, got)]
    if key == "display:decorated-monomials":
        got = ", ".join(m.text() for m in artin_monomials(3))
        return [("display", key, DISPLAY_DECORATED, got)]
    J = _jparse(key)
    want = tuple(sum(1 for j in range(1, i + 1) if j not in J) for i in range(1, n + 1))
    got = staircase(J, n)
    count = math.prod(want)
    return [
        ("staircase", key, canon(want), canon(got)),
        ("staircase-count", key, count, len(staircase_monomials(J, n))),
    ]


def _count_staircase(cfg, top):
    return _count_all_j(cfg, top) + 3


def _plan_per_n(cfg, top):
    return [(n, f"n={n}") for n in range(1, top + 1)]


def _run_super_basis(n, key, cfg):
    table, ok = sr_basis_certificate(n)
    return [
        ("sr-basis", key, True, ok),
        ("sr-dimension", key, fubini(n), sum(table.values())),
    ]


def _run_skip_quotient(n, key, cfg):
    return [("skip-quotient", key, True, verify_skip_quotient(_jparse(key), n))]


def _plan_colon(cfg, top):
    return [
        (n, _jkey(J))
        for n in range(1, top + 1)
        for J in subsets(range(2, n + 1))
    ]


def _count_colon(cfg, top):
    return sum(2 ** (n - 1) for n in range(1, top + 1))


def _run_colon(n, key, cfg):
    J = _jparse(key)
    gens = skip_generators(J, n)
    coinv = Ideal(n, coinvariant_generators(n))
    quotient = colon(coinv, skip_forms_product(J, n))
    equal = ideal_equal(Ideal(n, gens), quotient)
    return [
        ("regular-sequence", key, True, is_regular_sequence(gens, n)),
        ("colon-equality", key, "equal", "equal" if equal else "different"),
    ]


def _plan_saito_southwest(cfg, top):
    return [
        (n, format_arrangement(A))
        for n in range(1, top + 1)
        for A in enumerate_southwest(n)
    ]


def _count_saito_southwest(cfg, top):
    return sum(math.factorial(n + 1) for n in range(1, top + 1))


def _run_saito_southwest(n, key, cfg):
    A = parse_arrangement(key)
    verdict = saito_check(southwest_basis(A), A)
    return [("saito-southwest", key, "certified", "certified" if verdict else "rejected")]


def _run_saito_skip(n, key, cfg):
    J = _jparse(key)
    verdict = saito_check(skip_basis(J, n), skip_arrangement(J, n))
    return [("saito-skip", key, "certified", "certified" if verdict else "rejected")]


def _run_char_poly(n, key, cfg):
    J = _jparse(key)
    A = skip_arrangement(J, n)
    mob = characteristic_polynomial(A)
    want = roots_poly(staircase(J, n))
    p = cfg.prime if cfg.prime is not None else smallest_prime_above(n * len(A))
    return [
        ("char-poly-product", key, canon(want), canon(mob)),
        ("char-poly-points", key, point_count(A, p), char_poly_eval(mob, p)),
    ]


def _plan_cospan(cfg, top):
    tasks = []
    for n in range(1, top + 1):
        for T in subsets(full_arrangement(n).sorted_pairs()):
            tasks.append((n, _tkey(T)))
    return tasks


def _count_cospan(cfg, top):
    return sum(2 ** (n * (n + 1) // 2) for n in range(1, top + 1))


def _run_cospan(n, key, cfg):
    ok = cospan_check(_tparse(key), n)
    return [("cospan", key, "agree", "agree" if ok else "split")]


def _plan_southwest_quotient(cfg, top):
    tasks = [
        (n, format_arrangement(A))
        for n in range(1, min(top, 4) + 1)
        for A in enumerate_southwest(n, essential_only=True)
    ]
    tasks.append((5, format_arrangement(EXAMPLE5)))
    if top >= 5 and cfg.exhaustive:
        tasks.extend(
            (5, format_arrangement(A))
            for A in enumerate_southwest(5, essential_only=True)
            if A != EXAMPLE5
        )
    return tasks


def _run_southwest_quotient(n, key, cfg):
    A = parse_arrangement(key)
    inst = classify(A, ones_map(n))
    want = math.prod(column_counts(A))
    return [
        ("box-basis", key, True, verify_box_basis(inst)),
        ("hilbert-additivity", key, True, exact_sequence_check(inst)),
        ("st-dimension", key, want, inst.dimension),
    ]


def _plan_trichotomy(cfg, top):
    tasks = [(2, "fixture:empty"), (2, "fixture:line")]
    tasks.extend((n, "fixture:full") for n in range(1, top + 1))
    return tasks


def _run_trichotomy(n, key, cfg):
    if key == "fixture:empty":
        inst = classify(Arrangement(2, []), ones_map(2))
        return [("trichotomy", key, "zero", inst.tag)]
    if key == "fixture:line":
        one = Polynomial.one(2)
        x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
        basis = [Derivation([one, -one]), Derivation.euler(2)]
        inst = classify([x1 + x2], ones_map(2), basis=basis)
        return [("trichotomy", key, "infinite", inst.tag)]
    inst = classify(full_arrangement(n), ones_map(n))
    return [
        ("trichotomy", key, "poincare-duality", inst.tag),
        ("st-dimension", key, math.factorial(n), inst.dimension),
        ("hilbert-series", key, q_integer_product(range(1, n + 1)), inst.hilbert),
    ]


def _random_polynomial(rng, n, degree_cap):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, degree_cap) for _ in range(n))
        terms[exps] = terms.get(exps, 0) + rng.randint(-4, 4)
    return Polynomial(n, terms)


def _plan_symmetric(cfg, top):
    tasks = [((i % 3) + 1, f"poly-{i:03d}") for i in range(200)]
    for n in range(1, top + 1):
        for A in subsets(range(1, n + 1)):
            akey = "{" + ",".join(str(a) for a in sorted(A)) + "}"
            for total in range(1, cfg.degree_cap + 1):
                for shape in partitions(total):
                    if shape[0] > n - len(A):
                        tasks.append((n, f"schur:A={akey};shape={shape}"))
            tasks.append((n, f"duality:A={akey}"))
    return tasks


def _run_symmetric(n, key, cfg):
    if key.startswith("poly-"):
        index = int(key[len("poly-") :])
        seed = cfg.seed if cfg.seed is not None else 0
        rng = random.Random(f"{seed}:{index}")
        f = _random_polynomial(rng, n, cfg.degree_cap)
        direct = steinberg_member(f)
        via_gb = Ideal(n, coinvariant_generators(n)).contains(f)
        return [
            (
                "steinberg-agreement",
                key,
                "agree",
                "agree" if direct == via_gb else "split",
            )
        ]
    if key.startswith("schur:"):
        body = key[len("schur:") :]
        apart, spart = body.split(";shape=")
        A = frozenset(
            int(a) for a in apart[len("A={") : -1].split(",") if a
        )
        shape = tuple(int(s) for s in spart.strip("(),").split(",") if s)
        member = steinberg_member(schur(shape, n, A))
        return [("schur-membership", key, "member", "member" if member else "outside")]
    apart = key[len("duality:A={") : -1]
    A = frozenset(int(a) for a in apart.split(",") if a)
    B = frozenset(range(1, n + 1)) - A
    ok = all(eh_duality_check(d, A, B, n) for d in range(cfg.degree_cap + 1))
    return [("eh-duality", key, True, ok)]


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
        lambda cfg, top: top,
        "decorated monomial basis of the super coinvariant quotient per n",
    ),
    "skip-quotient": Suite(
        "skip-quotient",
        4,
        5,
        _plan_all_j,
        _run_skip_quotient,
        _count_all_j,
        "staircase monomials against the colon-ideal quotient, all J",
    ),
    "colon-generators": Suite(
        "colon-generators",
        4,
        5,
        _plan_colon,
        _run_colon,
        _count_colon,
        "skip generators: regular sequence and colon-ideal equality",
    ),
    "saito-southwest": Suite(
        "saito-southwest",
        4,
        5,
        _plan_saito_southwest,
        _run_saito_southwest,
        _count_saito_southwest,
        "determinant certification of the column basis, every southwest",
    ),
    "saito-skip": Suite(
        "saito-skip",
        4,
        5,
        _plan_all_j,
        _run_saito_skip,
        _count_all_j,
        "determinant certification of the staircase basis, all J",
    ),
    "char-poly": Suite(
        "char-poly",
        5,
        5,
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
        5,
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
        lambda cfg, top: top + 2,
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
    name, n, key, cfg = task
    start = time.perf_counter()
    try:
        rows = SUITES[name].run(n, key, cfg)
    except Exception as exc:
        sys.stderr.write(f"coinvarr: {name} n={n} {key}\n{traceback.format_exc()}")
        rows = [("error", key, "ok", type(exc).__name__)]
    ms = int((time.perf_counter() - start) * 1000) if cfg.timings else 0
    return [(check, n, instance, expected, actual, ms) for check, instance, expected, actual in rows]


def run_suite(name, cfg):
    """Plan, execute, and sort one suite; returns the report rows."""
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}")
    top = cfg.n if cfg.n is not None else suite.default_n
    allowed = suite.cap if cfg.exhaustive else suite.default_n
    top = min(top, allowed)
    # the Groebner basis cache lives for one suite, not for the process
    try:
        tasks = suite.plan(cfg, top)
        if cfg.seed is not None and len(tasks) > SAMPLE_CAP:
            rng = random.Random(cfg.seed)
            tasks = sorted(rng.sample(tasks, SAMPLE_CAP))
        elif suite.count is not None:
            want = suite.count(cfg, top)
            if len(tasks) != want:
                raise RuntimeError(
                    f"suite {name} planned {len(tasks)} instances, expected {want}"
                )
        tasks = [(name, n, key, cfg) for n, key in tasks]
        if cfg.workers > 1:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                chunks = list(pool.map(_execute, tasks, chunksize=8))
        else:
            chunks = [_execute(t) for t in tasks]
    finally:
        clear_basis_cache()
    reports = [
        make_report(check, n, instance, expected, actual, ms)
        for chunk in chunks
        for check, n, instance, expected, actual, ms in chunk
    ]
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
    verify.add_argument("--n", type=int, default=None, help="largest n to sweep")
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
    verify.add_argument("--format", choices=["json", "csv"], default="json")
    verify.add_argument("--workers", type=int, default=1)
    verify.add_argument(
        "--prime", type=int, default=None, help="override the point-count prime"
    )
    verify.add_argument("--degree-cap", type=int, default=4, dest="degree_cap")
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
            prime=args.prime,
            degree_cap=args.degree_cap,
            timings=args.timings,
            seed=args.sample,
            exhaustive=args.exhaustive,
        )
    except ValueError as err:
        sys.stderr.write(f"coinvarr: error: {err}\n")
        return 2
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.extend(run_suite(name, cfg))
    payload = emit_report(reports, args.format)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    failures = sum(1 for r in reports if not r["pass"])
    if failures:
        sys.stderr.write(f"{failures} of {len(reports)} checks failed\n")
        return 1
    sys.stderr.write(f"all {len(reports)} checks passed\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
