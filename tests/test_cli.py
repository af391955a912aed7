import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coinvarr import cli, derivations, groebner, st_algebras, superspace
from coinvarr.arrangements import full_arrangement
from coinvarr.cli import (
    RunConfig,
    SUITES,
    canon,
    emit_report,
    main,
    make_report,
    run_suite,
)
from coinvarr.groebner import Ideal, groebner_basis, normal_form
from coinvarr.polynomials import (
    _SUITE_CACHES,
    Polynomial,
    clear_suite_caches,
    echelon_rows,
    vandermonde,
)
from coinvarr.st_algebras import classify
from coinvarr.superspace import invariant_ideal_rows, rank_of_elements, reduced_parts
from coinvarr.symmetric import coinvariant_generators, steinberg_member


def test_canon_values():
    assert canon(True) == "true"
    assert canon(False) == "false"
    assert canon(7) == "7"
    assert canon((1, 2, 3)) == "(1, 2, 3)"
    assert canon(None) == "none"
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    assert canon(x1 - x2) == "x1-x2"


def test_make_report_pass_is_exact_equality():
    good = make_report("c", 2, "k", (1, 2), (1, 2))
    assert good["pass"] and good["expected"] == good["actual"] == "(1, 2)"
    bad = make_report("c", 2, "k", True, False)
    assert not bad["pass"]
    assert bad["expected"] == "true" and bad["actual"] == "false"


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n=0)
    with pytest.raises(ValueError):
        RunConfig(workers=0)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", RunConfig(n=2))


def _suite_memo_sizes():
    return {
        f"{memo.__module__}.{memo.__name__}": memo.cache_info().currsize
        for memo in _SUITE_CACHES
    }


def _fill_suite_memos():
    # a Groebner basis, a classification (with its Saito inputs, linear forms
    # and packings), a Vandermonde product with its exponent index and the
    # invariant generators fill every suite_cache memo
    x1, x2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    Ideal(2, [x1 + x2, x1 * x2]).groebner()
    classify(full_arrangement(2))
    steinberg_member(vandermonde(2))
    coinvariant_generators(2)
    sizes = _suite_memo_sizes()
    assert all(sizes.values()), sizes


def test_run_suite_empties_the_groebner_cache(monkeypatch):
    # and every other memo that suite_cache recorded
    assert set(_suite_memo_sizes()) == {
        "coinvarr.arrangements.linear_form",
        "coinvarr.derivations._column",
        "coinvarr.derivations._image",
        "coinvarr.derivations._tangent",
        "coinvarr.groebner._packing",
        "coinvarr.groebner._reduced_basis",
        "coinvarr.polynomials._exponent_index",
        "coinvarr.polynomials.vandermonde",
        "coinvarr.st_algebras._classified",
        "coinvarr.symmetric.coinvariant_generators",
    }
    for name in ("cospan", "southwest-quotient", "saito-southwest", "skip-quotient"):
        _fill_suite_memos()
        reports = run_suite(name, RunConfig(n=3))
        assert reports and all(r["pass"] for r in reports)
        assert not any(_suite_memo_sizes().values()), name

    def failing_plan(top):
        _fill_suite_memos()
        raise RuntimeError("plan failed")

    monkeypatch.setattr(SUITES["staircase"], "plan", failing_plan)
    with pytest.raises(RuntimeError):
        run_suite("staircase", RunConfig(n=2))
    assert not any(_suite_memo_sizes().values())


def test_staircase_suite_counts_and_passes():
    reports = run_suite("staircase", RunConfig(n=2))
    # 2 + 4 subset instances with two rows each, plus three display rows
    assert len(reports) == 15
    assert all(r["pass"] for r in reports)
    checks = {r["check"] for r in reports}
    assert checks == {"staircase", "staircase-count", "display"}


def test_reports_sorted_and_byte_stable():
    cfg = RunConfig(n=2)
    one = run_suite("trichotomy", cfg)
    two = run_suite("trichotomy", cfg)
    assert one == two
    keys = [(r["check"], r["n"], r["instance"]) for r in one]
    assert keys == sorted(keys)
    assert emit_report(one, "json") == emit_report(two, "json")
    assert emit_report(one, "csv") == emit_report(two, "csv")


def test_emit_report_empty():
    assert emit_report([], "json") == "[]\n"
    assert emit_report([], "csv") == "check,n,instance,expected,actual,pass,ms\n"
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_emit_report_shapes():
    rows = [make_report("demo", 1, "k", 1, 1)]
    data = json.loads(emit_report(rows, "json"))
    assert data == [
        {
            "check": "demo",
            "n": 1,
            "instance": "k",
            "expected": "1",
            "actual": "1",
            "pass": True,
            "ms": 0,
        }
    ]
    csv_text = emit_report(rows, "csv")
    assert csv_text.splitlines()[1] == "demo,1,k,1,1,true,0"


def test_ms_zero_by_default_and_optin():
    cfg = RunConfig(n=1)
    assert all(r["ms"] == 0 for r in run_suite("staircase", cfg))
    timed = run_suite("staircase", RunConfig(n=1, timings=True))
    assert all(isinstance(r["ms"], int) and r["ms"] >= 0 for r in timed)


def test_sampling_caps_and_is_deterministic():
    cfg = RunConfig(n=3, seed=11)
    one = run_suite("cospan", cfg)
    two = run_suite("cospan", RunConfig(n=3, seed=11))
    assert one == two
    assert len(one) <= cli.SAMPLE_CAP
    other = run_suite("cospan", RunConfig(n=3, seed=12))
    assert {r["instance"] for r in other} != {r["instance"] for r in one}


def test_sampling_still_checks_the_planned_count(monkeypatch):
    # cospan plans 1098 tasks at n = 4, far above the sample cap; a plan
    # one task short must fail before any task is sampled
    plan = SUITES["cospan"].plan
    monkeypatch.setattr(SUITES["cospan"], "plan", lambda top: plan(top)[1:])
    with pytest.raises(RuntimeError):
        run_suite("cospan", RunConfig(n=4, seed=1))


# one suite per instance type, so a pooled run pickles each of them:
# arrangements, pair sets, symmetric tuples, fixture strings and skip sets
@pytest.mark.parametrize(
    "name, n",
    [
        ("southwest-quotient", 3),
        ("cospan", 2),
        ("symmetric-toolkit", 2),
        ("trichotomy", 2),
        ("skip-quotient", 3),
    ],
)
def test_workers_do_not_change_reports(name, n):
    serial = run_suite(name, RunConfig(n=n))
    pooled = run_suite(name, RunConfig(n=n, workers=2))
    assert serial == pooled


def test_pool_is_no_larger_than_the_task_list(monkeypatch):
    # a process pool may fork all its workers at the first submit, so the
    # runner asks for no more workers than tasks, and one task runs serially
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    serial = run_suite("trichotomy", RunConfig(n=2))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # trichotomy plans 4 tasks at n = 2: empty, line, full at n = 1 and 2
    assert run_suite("trichotomy", RunConfig(n=2, workers=64)) == serial
    assert sizes == [4]
    # colon-generators plans a single task at n = 1
    assert run_suite("colon-generators", RunConfig(n=1, workers=64))
    assert sizes == [4]


def test_import_loads_no_process_pool():
    # only --workers > 1 needs multiprocessing, so start-up does not load it
    src = str(Path(cli.__file__).parents[1])
    probe = "import sys, coinvarr.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout == "False\n"


def test_n_caps_symmetric_toolkit():
    # --n is the largest n to sweep, for the random polynomials too
    reports = run_suite("symmetric-toolkit", RunConfig(n=1))
    assert reports
    assert all(r["n"] == 1 for r in reports)


def test_n_caps_trichotomy():
    # the zero and infinite fixtures live at n = 2, so --n 1 plans neither
    reports = run_suite("trichotomy", RunConfig(n=1))
    assert reports
    assert all(r["n"] == 1 for r in reports)
    assert {r["instance"] for r in reports} == {"fixture:full"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_plan_keys_are_distinct(name):
    # sampling and the report sort order tasks by (n, key) alone
    suite = SUITES[name]
    tasks = suite.plan(suite.cap)
    assert all(len(task) == 3 for task in tasks)
    keys = [(n, key) for n, key, _ in tasks]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_runs_and_passes(name):
    reports = run_suite(name, RunConfig(n=2))
    assert reports
    assert all(r["pass"] for r in reports)


def test_southwest_task_classifies_each_arrangement_once(monkeypatch):
    # A itself once, then its deletion and its restriction
    calls = []

    def counted(target, basis=None):
        calls.append(target)
        return classify(target, basis)

    monkeypatch.setattr(cli, "classify", counted)
    monkeypatch.setattr(st_algebras, "classify", counted)
    rows = SUITES["southwest-quotient"].run(3, full_arrangement(3), RunConfig())
    assert [r[0] for r in rows] == ["box-basis", "hilbert-additivity", "st-dimension"]
    assert len(calls) == 3


def test_southwest_task_builds_three_bases_and_no_normal_form_per_monomial(
    monkeypatch,
):
    # Groebner bases for A, its deletion and its restriction only: the
    # restriction's equality with the projected ideal is read by
    # containment, and the box basis reduces its 6 monomials in one call.
    # Here each generator on either side is a multiple of one on the other,
    # so nothing at all goes through normal_form
    clear_suite_caches()
    built = []
    reduced = []

    def counted_basis(polys, blocks=None):
        built.append(len(polys))
        return groebner_basis(polys, blocks)

    def counted_nf(f, basis):
        reduced.append(f)
        return normal_form(f, basis)

    monkeypatch.setattr(groebner, "groebner_basis", counted_basis)
    monkeypatch.setattr(groebner, "normal_form", counted_nf)
    A = full_arrangement(3)
    rows = SUITES["southwest-quotient"].run(3, A, RunConfig())
    assert all(r[1] == r[2] for r in rows)
    assert len(built) == 3
    assert classify(A).dimension == 6
    assert reduced == []
    clear_suite_caches()


def test_super_basis_task_ranks_each_piece_once(monkeypatch):
    # 4 x-degrees at n = 3, whose parts are each reduced once; 16 ideal
    # pieces, each built once and eliminated once, with its candidates
    # ordered last, and no other elimination; the only ranks are two per
    # element of the closed-form basis (its membership in P)
    calls = []
    eliminated = []
    degrees = []
    built = []

    def counted(elements):
        calls.append(len(elements))
        return rank_of_elements(elements)

    def counted_echelon(rows, key=None):
        eliminated.append(len(rows))
        return echelon_rows(rows, key=key)

    def counted_parts(n, i, gens, standard, basis):
        degrees.append(i)
        return reduced_parts(n, i, gens, standard, basis)

    def counted_rows(n, j, reduced):
        built.append((degrees[-1], j))
        return invariant_ideal_rows(n, j, reduced)

    monkeypatch.setattr(superspace, "rank_of_elements", counted)
    monkeypatch.setattr(superspace, "echelon_rows", counted_echelon)
    monkeypatch.setattr(superspace, "reduced_parts", counted_parts)
    monkeypatch.setattr(superspace, "invariant_ideal_rows", counted_rows)
    rows = SUITES["super-basis"].run(3, 3, RunConfig())
    assert rows == [("sr-basis", True, True), ("sr-dimension", 13, 13)]
    assert degrees == [0, 1, 2, 3]
    assert len(eliminated) == 16
    assert len(calls) == 2 * 3
    assert len(built) == len(set(built)) == 16


def test_super_basis_reaches_the_traced_heavy_layers(monkeypatch):
    # the benchmark's super-basis workload requires calls to these three;
    # the ideal rows are written without SuperElement.__mul__, so only
    # euler_d, inside invariant_generators, still reaches it
    seen = []
    in_euler_d = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen.append((name, any(in_euler_d)))
            in_euler_d.append(name == "euler_d")
            try:
                return fn(*args, **kwargs)
            finally:
                in_euler_d.pop()

        return wrapper

    for name in ("invariant_ideal_rows", "rank_of_elements", "euler_d"):
        monkeypatch.setattr(superspace, name, counting(name, getattr(superspace, name)))
    mul = counting("__mul__", superspace.SuperElement.__mul__)
    monkeypatch.setattr(superspace.SuperElement, "__mul__", mul)
    rows = SUITES["super-basis"].run(3, 3, RunConfig())
    assert rows == [("sr-basis", True, True), ("sr-dimension", 13, 13)]
    names = {name for name, _ in seen}
    assert {"invariant_ideal_rows", "rank_of_elements", "__mul__"} <= names
    assert all(inside for name, inside in seen if name == "__mul__")


def test_super_basis_makes_no_groebner_or_saito_call(monkeypatch):
    # the superspace certificate reduces against its closed-form basis and
    # never runs Buchberger or a Saito check
    def forbidden(*args, **kwargs):
        raise AssertionError("super-basis must not call this")

    clear_suite_caches()  # no cached basis may stand in for a call
    monkeypatch.setattr(groebner, "groebner_basis", forbidden)
    for module in (derivations, cli):  # cli binds saito_check by name
        monkeypatch.setattr(module, "saito_check", forbidden)
    rows = SUITES["super-basis"].run(3, 3, RunConfig())
    assert rows == [("sr-basis", True, True), ("sr-dimension", 13, 13)]


def test_task_exception_becomes_error_row(monkeypatch, tmp_path):
    original = SUITES["trichotomy"].run

    def flaky(n, instance, cfg):
        if instance == "line":
            raise MemoryError
        return original(n, instance, cfg)

    monkeypatch.setattr(SUITES["trichotomy"], "run", flaky)
    out = tmp_path / "report.json"
    assert main(["verify", "trichotomy", "--n", "2", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    errors = [r for r in data if r["check"] == "error"]
    assert errors == [
        make_report("error", 2, "fixture:line", "ok", "MemoryError")
    ]
    others = [r for r in data if r["check"] != "error"]
    assert {r["instance"] for r in others} == {"fixture:empty", "fixture:full"}
    assert len(others) == 1 + 2 * 3 and all(r["pass"] for r in others)


def test_caps_clamp_without_exhaustive():
    # cospan is hard-capped at n = 4; asking for more clamps
    cfg = RunConfig(n=9)
    reports = run_suite("cospan", cfg)
    assert max(r["n"] for r in reports) <= 4


def test_clamped_n_is_reported_on_stderr(capsys, tmp_path):
    # staircase sweeps n <= 5 by default and n <= 6 under --exhaustive
    def run(*args):
        out = tmp_path / "report.json"
        assert main(["verify", "staircase", *args, "--out", str(out)]) == 0
        *notes, summary = capsys.readouterr().err.splitlines()
        assert summary.startswith("all ") and summary.endswith(" checks passed")
        return out.read_bytes(), notes

    limit = "its --exhaustive limit is n = 6"
    default, notes = run("--n", "5")
    assert notes == []
    assert run("--n", "7") == (
        default,
        [f"coinvarr: staircase sweeps n <= 5, not --n 7; {limit}"],
    )
    exhaustive, notes = run("--exhaustive", "--n", "6")
    assert notes == [] and exhaustive != default
    assert run("--exhaustive", "--n", "9") == (
        exhaustive,
        [f"coinvarr: staircase sweeps n <= 6, not --n 9; {limit}"],
    )


def test_harness_flags_corrupted_generator(monkeypatch):
    monkeypatch.setattr(cli, "verify_skip_quotient", lambda J, n: False)
    reports = run_suite("skip-quotient", RunConfig(n=2))
    assert reports and all(not r["pass"] for r in reports)
    assert all(r["expected"] == "true" and r["actual"] == "false" for r in reports)


def test_main_exit_codes(monkeypatch, capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "staircase", "--n", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data and all(r["pass"] for r in data)
    monkeypatch.setattr(cli, "verify_skip_quotient", lambda J, n: False)
    code = main(["verify", "skip-quotient", "--n", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "failed" in captured.err


def test_main_bad_input_exits_2(capsys):
    assert main(["verify", "staircase", "--n", "0"]) == 2
    assert "n must be positive" in capsys.readouterr().err
    assert main(["show", "arrangement", "garbage"]) == 2
    assert "bad arrangement syntax" in capsys.readouterr().err
    assert main(["show", "arrangement", "n=-1;H:"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "n >= 0" in captured.err


def test_unwritable_out_fails_before_any_suite(monkeypatch, capsys, tmp_path):
    def no_run(name, cfg):
        raise AssertionError("a suite ran before the output was opened")

    monkeypatch.setattr(cli, "run_suite", no_run)
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "staircase", "--n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("coinvarr: error:")
    assert not out.exists()


def test_main_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        ["verify", "trichotomy", "--n", "1", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,n,instance,expected,actual,pass,ms"
    assert len(lines) > 1


def test_show_arrangement_golden(capsys):
    code = main(["show", "arrangement", "n=2;H:0-1,0-2,1-2"])
    assert code == 0
    got = capsys.readouterr().out
    assert got == (
        "  ●\n"
        "●   ●\n"
        "members: x1, x2, x1-x2\n"
        "columns: (1, 2)\n"
        "southwest: true\n"
        "essential: true\n"
    )


def test_suite_registry_docs():
    for name, suite in SUITES.items():
        assert suite.name == name
        assert suite.doc
        assert suite.default_n <= suite.cap


def test_every_verify_option_has_help():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = [a for a in sub.choices["verify"]._actions if a.option_strings]
    assert {"--format", "--sample", "--workers"} <= {
        o for a in options for o in a.option_strings
    }
    bare = [a.option_strings for a in options if not a.help]
    assert not bare, bare
