import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stable_hitting import hitting_laws as hl
from stable_hitting import sampling as smp
from stable_hitting import verify
from stable_hitting.errors import DomainError, UnknownSuite
from stable_hitting.numerics import laplace_invert_cdf
from stable_hitting.verify import (SUITE_NAMES, VerificationReport, all_passed,
                                   report_to_csv, report_to_json, run_suite)

SMALL_N = 40_000


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("no_such_suite")

    def test_alpha_grid_names_the_suites_that_read_it(self):
        class Unread:
            def __bool__(self):
                raise AssertionError("grid read")

        for suite in SUITE_NAMES:
            if suite in verify._ALPHA_GRID:
                with pytest.raises(AssertionError, match="grid read"):
                    run_suite(suite, idx_grid=Unread(), n_samples=2)
            else:
                run_suite(suite, idx_grid=Unread(), n_samples=2)

    def test_brownian_oracle_all_pass(self):
        reports = run_suite("brownian_oracle")
        assert len(reports) > 50
        assert all_passed(reports)

    def test_formula_algebra_all_pass(self):
        reports = run_suite("formula_algebra", idx_grid=[1.5, 2.0])
        assert all_passed(reports)

    def test_appendix_all_pass(self):
        assert all_passed(run_suite("appendix"))

    def test_relation_r_all_pass(self):
        assert all_passed(run_suite("relation_R", idx_grid=[1.5]))

    def test_mc_suite_small(self):
        reports = run_suite("mc_vs_formula", idx_grid=[1.5], seed=5,
                            n_samples=SMALL_N)
        assert all_passed(reports)
        assert all(r.n_samples == SMALL_N for r in reports)

    def test_excursion_suite_small(self):
        reports = run_suite("excursion", seed=5, n_samples=SMALL_N)
        assert all_passed(reports)

    def test_inversion_suite_small(self):
        reports = run_suite("inversion", seed=5, n_samples=SMALL_N)
        assert all_passed(reports)

    def test_inversion_quantiles_are_the_scalar_inversions(self,
                                                           monkeypatch):
        # the suite inverts its five quantiles in one call; each value is
        # laplace_invert_cdf's at that quantile, bit for bit
        calls = []

        def counted(phi, ts):
            calls.append(len(ts))
            return invert_rows(phi, ts)

        invert_rows = verify._invert_cdf_rows
        monkeypatch.setattr(verify, "_invert_cdf_rows", counted)
        reports = run_suite("inversion", seed=5, n_samples=SMALL_N)
        assert calls == [5]
        draws = np.sort(smp.sample_hitting_time(
            1.5, 1.0, smp.RandomStream(5, 300), size=SMALL_N))
        law = lambda q: hl.lt_hit_point(hl.HittingQuery(1.5, float(q), a=1.0))
        quantiles = [r for r in reports
                     if r.check_id.startswith("hit_cdf_quantile/")]
        assert len(quantiles) == 5
        for r in quantiles:
            p = float(r.check_id.split("=")[1])
            t = float(draws[min(int(p * SMALL_N), SMALL_N - 1)])
            assert r.notes == f"t={t:.5f}"
            assert r.lhs == laplace_invert_cdf(law, t)

    def test_deterministic_reruns(self):
        a = run_suite("mc_vs_formula", idx_grid=[1.5], seed=9, n_samples=10_000)
        b = run_suite("mc_vs_formula", idx_grid=[1.5], seed=9, n_samples=10_000)
        assert [r.lhs for r in a] == [r.lhs for r in b]

    def test_seed_changes_mc_values(self):
        a = run_suite("mc_vs_formula", idx_grid=[1.5], seed=1, n_samples=10_000)
        b = run_suite("mc_vs_formula", idx_grid=[1.5], seed=2, n_samples=10_000)
        assert [r.lhs for r in a] != [r.lhs for r in b]

    @pytest.mark.parametrize("suite", ["mc_vs_formula", "excursion",
                                       "inversion"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_monte_carlo_suite_needs_two_draws(self, suite, n):
        with pytest.raises(DomainError, match="at least 2 draws"):
            run_suite(suite, n_samples=n)

    def test_suite_names_exposed(self):
        assert set(SUITE_NAMES) == {"brownian_oracle", "formula_algebra",
                                    "mc_vs_formula", "relation_R", "excursion",
                                    "appendix", "inversion"}


class TestReports:
    def make(self):
        return [
            VerificationReport("a/b=1", 1.0, 1.0, 1e-9, True, None, ""),
            VerificationReport("c", 0.5, 0.25, 1e-2, False, 1000, "stderr=1e-3"),
            VerificationReport("d,with comma", 2.0, 2.0, 0.0, True, None, "x, y"),
        ]

    def test_empty_csv_has_header(self):
        out = report_to_csv([])
        assert out == "check_id,lhs,rhs,tolerance,pass,n_samples,notes\n"

    def test_csv_roundtrip_order(self):
        import csv as csvmod
        import io
        rows = list(csvmod.DictReader(io.StringIO(report_to_csv(self.make()))))
        assert [r["check_id"] for r in rows] == ["a/b=1", "c", "d,with comma"]
        assert rows[1]["pass"] == "false"
        assert float(rows[1]["lhs"]) == 0.5
        assert rows[2]["notes"] == "x, y"

    def test_json_roundtrip(self):
        parsed = json.loads(report_to_json(self.make()))
        assert len(parsed) == 3
        assert parsed[0]["pass"] is True
        assert parsed[1]["n_samples"] == 1000
        assert parsed[2]["check_id"] == "d,with comma"

    def test_json_empty(self):
        assert json.loads(report_to_json([])) == []

    def test_seventeen_digit_floats(self):
        third = VerificationReport("t", 1 / 3, 1 / 3, 1e-9, True)
        parsed = json.loads(report_to_json([third]))
        assert parsed[0]["lhs"] == 1 / 3

    # a check_id with a comma and quotes, 1/3, no, zero and a positive sample
    # count, and empty notes
    PINNED = [
        VerificationReport("lt_hit/q=1.0/a=0.5", 1 / 3, 0.1, 1e-8, True, None,
                           ""),
        VerificationReport('stieltjes/pqr=1,2,"x"', 0.5, 0.25, 0.0, False,
                           2000, "stderr=1.000e-03"),
        VerificationReport("exp", 2.0, -1e-300, 3e20, True, 0,
                           't=0.12345, "q"'),
    ]

    def test_csv_text_is_pinned(self):
        assert report_to_csv(self.PINNED) == (
            "check_id,lhs,rhs,tolerance,pass,n_samples,notes\n"
            "lt_hit/q=1.0/a=0.5,0.33333333333333331,0.10000000000000001,"
            "1e-08,true,,\n"
            '"stieltjes/pqr=1,2,""x""",0.5,0.25,0,false,2000,'
            "stderr=1.000e-03\n"
            'exp,2,-1e-300,3e+20,true,0,"t=0.12345, ""q"""\n')

    def test_json_text_is_pinned(self):
        assert report_to_json(self.PINNED) == (
            '[{"check_id": "lt_hit/q=1.0/a=0.5", "lhs": 0.33333333333333331, '
            '"rhs": 0.10000000000000001, "tolerance": 1e-08, "pass": true, '
            '"n_samples": null, "notes": ""},\n'
            ' {"check_id": "stieltjes/pqr=1,2,\\"x\\"", "lhs": 0.5, '
            '"rhs": 0.25, "tolerance": 0, "pass": false, "n_samples": 2000, '
            '"notes": "stderr=1.000e-03"},\n'
            ' {"check_id": "exp", "lhs": 2, "rhs": -1e-300, '
            '"tolerance": 3e+20, "pass": true, "n_samples": 0, '
            '"notes": "t=0.12345, \\"q\\""}]')


ROOT = Path(__file__).resolve().parents[1]


def _run_all_suites(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_suites.py"), *args],
        env=env, capture_output=True, text=True, timeout=120)


def test_run_all_suites_writes_the_library_reports(tmp_path):
    proc = _run_all_suites("--n", "2000", "--seed", "4", "--out",
                           str(tmp_path / "out"))
    assert "Traceback" not in proc.stderr
    ok = True
    for suite in SUITE_NAMES:
        reports = run_suite(suite, seed=4, n_samples=2000)
        assert (tmp_path / "out" / f"{suite}.json").read_text() \
            == report_to_json(reports)
        assert (tmp_path / "out" / f"{suite}.csv").read_text() \
            == report_to_csv(reports)
        ok = ok and all_passed(reports)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        f"{suite}.{ext}" for suite in SUITE_NAMES for ext in ("csv", "json"))
    assert proc.returncode == (0 if ok else 1)


@pytest.mark.parametrize("n", ["0", "1"])
def test_run_all_suites_rejects_n_below_two(n, tmp_path):
    proc = _run_all_suites("--n", n, "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument --n: must be >= 2, got {n}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_all_suites_rejects_a_negative_seed(tmp_path):
    # numpy's SeedSequence takes no negative seed
    proc = _run_all_suites("--seed", "-1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: run_all_suites.py")
    assert "argument --seed: must be >= 0, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr



def _hitting_time_cdf(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hitting_time_cdf.py"), *args],
        env=env, capture_output=True, text=True, timeout=120)


def test_hitting_time_cdf_prints_one_row_per_t():
    proc = _hitting_time_cdf("--n", "2000", "--seed", "3", "--t", "0.5,2")
    assert (proc.returncode, proc.stderr) == (0, "")
    draws = np.sort(smp.sample_hitting_time(1.5, 1.0, smp.RandomStream(3),
                                            size=2000))
    rows = []
    for t in (0.5, 2.0):
        inv = laplace_invert_cdf(
            lambda q: hl.lt_hit_point(hl.HittingQuery(1.5, float(q), a=1.0)),
            t)
        emp = float(np.searchsorted(draws, t, side="right")) / 2000
        rows.append(f"{t!r},{inv!r},{emp!r},{abs(inv - emp)!r}")
    assert proc.stdout.splitlines() == [
        "t,inverted_cdf,empirical_cdf,abs_diff", *rows]


@pytest.mark.parametrize("args,code,message", [
    (("--n", "0"), 2, "argument --n: must be >= 1, got 0"),
    (("--seed", "-1"), 2, "argument --seed: must be >= 0, got -1"),
    (("--t=-1",), 2, "argument --t: invalid time '-1'"),
    (("--t=0.1,nan",), 2, "argument --t: invalid time 'nan'"),
    (("--alpha", "0.5"), 1, "hitting_time_cdf: alpha=0.5: point hitting"),
    # |a|^alpha overflows in the sampler, an OverflowError
    (("--a", "1e300"), 1, "hitting_time_cdf: "),
])
def test_hitting_time_cdf_rejects_bad_input(args, code, message):
    proc = _hitting_time_cdf("--n", "100", *args)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr

def _nested_stieltjes(p, q, r, g):
    """E[1/(p + q B + r B U^{-1/g})] by nested quadrature over (B, U)."""
    from scipy import integrate, special

    def inner(v):
        fb = v ** (-g) * (1 - v) ** (g - 1) / special.beta(1 - g, g)
        return fb * integrate.quad(
            lambda u: 1.0 / (p + q * v + r * v * u ** (-1.0 / g)),
            0, 1, limit=200)[0]
    return integrate.quad(inner, 0, 1, points=[0.0, 1.0], limit=200)[0]


@pytest.mark.parametrize("g", [1.0 / 3.0, 0.5])
@pytest.mark.parametrize("p,q,r", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5)])
def test_stieltjes_reference_matches_nested_quadrature(p, q, r, g):
    assert verify._stieltjes_reference(p, q, r, g) == pytest.approx(
        _nested_stieltjes(p, q, r, g), rel=1e-9, abs=0.0)
