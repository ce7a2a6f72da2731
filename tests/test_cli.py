import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stable_hitting
from stable_hitting import hitting_laws as hl
from stable_hitting import sampling as smp
from stable_hitting import cli, errors, resolvent, verify as vf
from stable_hitting.cli import EVAL_KINDS, SAMPLE_DISTS, main
from stable_hitting.distributions import (alpha_rayleigh_survival, linnik_density,
                                          meixner_density, z_density)
from stable_hitting.errors import NonConvergence, NumericInstability
from stable_hitting.numerics import laplace_invert_cdf
from stable_hitting.resolvent import (potential_kernel, resolvent_density,
                                      transition_density)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rows(stdout):
    lines = [ln for ln in stdout.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestEval:
    def test_resolvent_brownian(self, capsys):
        code, out, _ = run(capsys, "eval", "resolvent", "--alpha", "2",
                           "--q", "1", "--x", "0")
        assert code == 0
        assert float(rows(out)[0]["value"]) == pytest.approx(0.5, abs=1e-10)

    def test_potential_kernel(self, capsys):
        code, out, _ = run(capsys, "eval", "h", "--alpha", "2", "--x", "3")
        assert code == 0
        assert float(rows(out)[0]["value"]) == pytest.approx(1.5, abs=1e-12)

    def test_getoor_symmetric(self, capsys):
        code, out, _ = run(capsys, "eval", "getoor", "--alpha", "1.5",
                           "--x", "0", "--a", "1", "--b=-1")
        assert code == 0
        assert float(rows(out)[0]["value"]) == pytest.approx(0.5, abs=1e-12)

    def test_grid_expansion(self, capsys):
        code, out, _ = run(capsys, "eval", "lt-T", "--alpha", "2",
                           "--q", "0.25,1,4", "--a", "1")
        assert code == 0
        got = rows(out)
        assert len(got) == 3
        for row in got:
            q = float(row["q"])
            assert float(row["value"]) == pytest.approx(math.exp(-math.sqrt(q)), abs=1e-8)

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "resolvent", "--alpha", "2")
        assert code == 2
        assert "missing required flag" in err

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, "eval", "resolvent", "--alpha", "0.8",
                           "--q", "1", "--x", "0")
        assert code == 1
        assert "alpha" in err

    def test_linnik_origin_below_one_exit_one(self, capsys):
        code, _, err = run(capsys, "eval", "linnik", "--alpha", "0.8",
                           "--x", "0")
        assert code == 1
        assert "alpha <= 1" in err

    def test_unknown_kind_usage(self, capsys):
        assert run(capsys, "eval", "nope", "--alpha", "2")[0] == 2

    @pytest.mark.parametrize("kind", ["exc-n", "exc-m"])
    def test_second_rate_without_rate_usage(self, capsys, kind):
        # r is the second rate of the joint transform in q; without --q the
        # row would be the mass, whatever r is
        code, out, err = run(capsys, "eval", kind, "--alpha", "1.5",
                             "--a", "1", "--r", "2")
        assert code == 2
        assert out == ""
        assert err == f"eval {kind}: --r needs --q\n"

    @pytest.mark.parametrize("extra", [[], ["--q", "1"]])
    def test_exc_m_takes_a_negative_level(self, capsys, extra):
        # the |X| laws take a level of either sign, as lt-T-abs does
        got = {}
        for a in ("1", "-1"):
            code, out, err = run(capsys, "eval", "exc-m", "--alpha", "1.5",
                                 f"--a={a}", *extra)
            assert (code, err) == (0, "")
            got[a] = rows(out)[0]["value"]
        assert got["-1"] == got["1"]
        code, out, err = run(capsys, "eval", "exc-m", "--alpha", "1.5",
                             "--a", "0", *extra)
        assert code == 1
        assert err == "eval: target level a must be nonzero\n"


class TestSample:
    def test_deterministic(self, capsys):
        a = run(capsys, "sample", "alpha-cauchy", "--alpha", "2", "-n", "4",
                "--seed", "1")
        b = run(capsys, "sample", "alpha-cauchy", "--alpha", "2", "-n", "4",
                "--seed", "1")
        assert a == b
        assert a[0] == 0
        assert len(rows(a[1])) == 4

    def test_seed_matters(self, capsys):
        a = run(capsys, "sample", "gamma", "--a", "1", "-n", "3", "--seed", "1")
        b = run(capsys, "sample", "gamma", "--a", "1", "-n", "3", "--seed", "2")
        assert a[1] != b[1]

    def test_overshoot_brownian_zeros(self, capsys):
        code, out, _ = run(capsys, "sample", "overshoot", "--alpha", "2",
                           "--a", "1", "-n", "3")
        assert code == 0
        assert [float(r["draw"]) for r in rows(out)] == [0.0, 0.0, 0.0]

    def test_summary_stats(self, capsys):
        code, out, _ = run(capsys, "sample", "t-point", "--alpha", "1.5",
                           "--a", "1", "-n", "1000", "--seed", "7", "--summary")
        assert code == 0
        row = rows(out)[0]
        assert row["column"] == "draw"
        assert int(row["n"]) == 1000
        assert float(row["stderr"]) == pytest.approx(
            math.sqrt(float(row["variance"]) / 1000), rel=1e-12)

    def test_summary_of_draws_past_double_range(self, capsys):
        # about half the draws are inf at alpha = 1.001; their spread is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sample", "t-point", "--alpha",
                                 "1.001", "--a", "1", "-n", "200", "--seed",
                                 "7", "--summary")
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "draw,200,inf,inf,inf"

    def test_streams_split_deterministically(self, capsys):
        a = run(capsys, "sample", "exponential", "-n", "7", "--seed", "3",
                "--streams", "3")
        b = run(capsys, "sample", "exponential", "-n", "7", "--seed", "3",
                "--streams", "3")
        assert a == b
        assert len(rows(a[1])) == 7

    def test_excursion_columns(self, capsys):
        code, out, _ = run(capsys, "sample", "excursion", "--gamma", "0.5",
                           "-n", "5", "--seed", "2")
        assert code == 0
        got = rows(out)
        assert set(got[0]) == {"age", "duration"}
        for r in got:
            assert float(r["age"]) <= float(r["duration"])

    def test_missing_param(self, capsys):
        assert run(capsys, "sample", "gamma", "-n", "2")[0] == 2

    def test_zero_draws_usage_error(self, capsys):
        code, out, err = run(capsys, "sample", "t-point", "--alpha", "1.5",
                             "--a", "1", "-n", "0")
        assert code == 2
        assert out == ""
        assert "-n" in err

    def test_negative_seed_usage_error(self, capsys):
        code, out, err = run(capsys, "sample", "sym-stable", "--alpha", "1.5",
                             "--seed", "-1", "-n", "3")
        assert code == 2
        assert out == ""
        assert "argument --seed: must be >= 0, got -1" in err
        assert "Traceback" not in err

    def test_zero_streams_usage_error(self, capsys):
        code, out, err = run(capsys, "sample", "exponential", "-n", "5",
                             "--streams", "0")
        assert code == 2
        assert out == ""
        assert "--streams" in err

    def test_overflow_exit_one(self, capsys):
        # |a|^alpha overflows a double before any draw is made
        code, out, err = run(capsys, "sample", "t-point", "--alpha", "1.5",
                             "--a", "1e300", "-n", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("sample:")
        assert "Traceback" not in err

    def test_size_biased_near_one(self, capsys):
        code, out, _ = run(capsys, "sample", "size-biased", "--beta", "0.995",
                           "-n", "3")
        draws = smp.sample_size_biased_stable(0.995, smp.RandomStream(0, 0), 3)
        assert code == 0
        assert out == "\n".join(["draw"] + [repr(float(v)) for v in draws]) + "\n"

    def test_size_biased_beta_one_exit_one(self, capsys):
        code, out, err = run(capsys, "sample", "size-biased", "--beta", "1",
                             "-n", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("sample:")

    @pytest.mark.parametrize("terms", [None, 64])
    def test_gamma_series_terms(self, capsys, terms):
        # without --terms the sampler's own n_terms default applies
        extra = () if terms is None else ("--terms", str(terms))
        code, out, _ = run(capsys, "sample", "gamma-series", "--a", "0.5",
                           "--t", "1", "-n", "3", "--seed", "5", *extra)
        kw = {} if terms is None else {"n_terms": terms}
        draws = smp.sample_gamma_series_subordinator(
            0.5, 1.0, smp.RandomStream(5, 0), 3, **kw)
        assert code == 0
        assert out == "\n".join(["draw"] + [repr(float(v)) for v in draws]) + "\n"

    @pytest.mark.parametrize("t", [None, 2.0])
    def test_tanh_law_t(self, capsys, t):
        # without --t the transform's own t = 1 default applies
        extra = () if t is None else ("--t", str(t))
        code, out, _ = run(capsys, "sample", "tanh-law", "-n", "2",
                           "--seed", "1", *extra)
        draws = smp.sample_from_lt(smp.tanh_subordinator_lt(
            **({} if t is None else {"t": t})), smp.RandomStream(1, 0), 2)
        assert code == 0
        assert out == "\n".join(["draw"] + [repr(float(v)) for v in draws]) + "\n"

    def test_tanh_law_t_zero_exit_one(self, capsys):
        code, out, err = run(capsys, "sample", "tanh-law", "--t", "0",
                             "-n", "2", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == "sample: t must be positive\n"


# each invert kind and the hitting_laws transform it inverts
INVERTED = {
    "lt-T": lambda al, q, a: hl.lt_hit_point(hl.HittingQuery(al, q, a=a)),
    "lt-G": hl.lt_last_exit,
    "lt-Xi": hl.lt_post_exit,
    "lt-T-abs": hl.lt_hit_abs,
    "lt-G-abs": hl.lt_last_exit_abs,
    "lt-Xi-abs": hl.lt_post_exit_abs,
}


class TestInvert:
    @pytest.mark.parametrize("kind", sorted(INVERTED))
    def test_kind_matches_library(self, capsys, kind):
        code, out, _ = run(capsys, "invert", kind, "--alpha", "1.5",
                           "--a", "1", "--t", "0.5,1,2")
        assert code == 0
        got = rows(out)
        assert [float(r["t"]) for r in got] == [0.5, 1.0, 2.0]
        for r in got:
            want = laplace_invert_cdf(
                lambda q: INVERTED[kind](1.5, float(q), 1.0), float(r["t"]))
            assert float(r["p"]) == want

    @pytest.mark.parametrize("kind", sorted(set(INVERTED) - {"lt-T"}))
    def test_start_point_without_x_flag_usage(self, capsys, kind):
        # only lt-T has a start point; the other transforms start at 0
        code, out, err = run(capsys, "invert", kind, "--alpha", "1.5",
                             "--a", "1", "--x", "5", "--t", "1")
        assert code == 2
        assert out == ""
        assert err == f"invert {kind}: --x given, but this kind does not take it\n"

    @pytest.mark.parametrize("kind", sorted(INVERTED))
    @pytest.mark.parametrize("flag", ["alpha", "a"])
    def test_missing_flag_usage(self, capsys, kind, flag):
        # invert reads its flags as eval does, with the same messages
        given = {"alpha": "1.5", "a": "1"}
        del given[flag]
        code, out, err = run(capsys, "invert", kind,
                             *[f"--{f}={v}" for f, v in given.items()],
                             "--t", "1")
        assert (code, out) == (2, "")
        assert err == f"invert {kind}: missing required flag --{flag}\n"

    def test_start_point(self, capsys):
        code, out, _ = run(capsys, "invert", "lt-T", "--alpha", "1.5",
                           "--a", "1", "--x", "0.5", "--t", "1")
        want = laplace_invert_cdf(lambda q: hl.lt_hit_point(
            hl.HittingQuery(1.5, float(q), x=0.5, a=1.0)), 1.0)
        assert code == 0
        assert float(rows(out)[0]["p"]) == want

    def test_non_transform_kind_usage(self, capsys):
        assert run(capsys, "invert", "exc-n", "--alpha", "1.5", "--a", "1",
                   "--t", "1")[0] == 2

    def test_brownian_hit_cdf(self, capsys):
        code, out, _ = run(capsys, "invert", "lt-T", "--alpha", "2",
                           "--a", "1", "--t", "0.5,1,2,4", "--terms", "16")
        assert code == 0
        got = rows(out)
        from scipy.special import erfc
        for r in got:
            t = float(r["t"])
            assert float(r["p"]) == pytest.approx(erfc(1 / (2 * math.sqrt(t))), abs=1e-4)

    def test_unstable_point_and_clamp(self, capsys, monkeypatch):
        # the CDF is clamped monotone along the sorted grid; a point whose
        # inversion diverges is left blank, and the exit code is 1
        values = {0.5: 0.3, 1.0: None, 2.0: 0.2, 4.0: 0.6}

        def no_grid(phi, ts, n_terms):
            raise NumericInstability("a row of the grid fails")

        def invert(phi, t, n_terms):
            if values[t] is None:
                raise NumericInstability("gap 0.2")
            return values[t]

        monkeypatch.setattr(cli, "_invert_cdf_rows", no_grid)
        monkeypatch.setattr(cli, "laplace_invert_cdf", invert)
        code, out, _ = run(capsys, "invert", "lt-T", "--alpha", "1.5",
                           "--a", "1", "--t", "2,0.5,1,4")
        assert code == 1
        assert out == ("t,p,note\n0.5,0.3,\n1.0,,unstable: gap 0.2\n"
                       "2.0,0.3,\n4.0,0.6,\n")

    def test_monotone_output(self, capsys):
        code, out, _ = run(capsys, "invert", "lt-T-abs", "--alpha", "1.5",
                           "--a", "1", "--t", "0.1,0.5,1,2,5,10")
        assert code == 0
        ps = [float(r["p"]) for r in rows(out)]
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert all(0 <= p <= 1 for p in ps)


def _counted_law(monkeypatch, kind):
    """The keyword arguments of every call of the kind's law, recorded."""
    required, optional, fn = EVAL_KINDS[kind]
    calls = []

    def counted(**params):
        calls.append(params)
        return fn(**params)

    monkeypatch.setitem(EVAL_KINDS, kind, (required, optional, counted))
    return calls


def _per_t(kind, alpha, a, ts, terms, x=0.0):
    """The exit code, stdout and stderr of ``invert`` made of one
    ``laplace_invert_cdf`` call a t, from the library's laws."""
    if kind == "lt-T":
        law = lambda q: hl.lt_hit_point(hl.HittingQuery(alpha, q, x=x, a=a))
    else:
        law = lambda q: INVERTED[kind](alpha, q, a)
    lines, best, code = ["t,p,note"], 0.0, 0
    for t in sorted(ts):
        try:
            p = laplace_invert_cdf(lambda q: law(float(q)), t, n_terms=terms)
        except NumericInstability as exc:
            lines.append(f"{t!r},,unstable: {exc}")
            code = 1
            continue
        except (ArithmeticError, ValueError) as exc:
            return 1, "\n".join(lines) + "\n", f"invert: {exc}\n"
        best = max(best, p)
        lines.append(f"{t!r},{best!r},")
    return code, "\n".join(lines) + "\n", ""


class TestInvertOneCall:
    @pytest.mark.parametrize("terms", [12, 16])
    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.9, 2.0])
    @pytest.mark.parametrize("kind", sorted(INVERTED))
    def test_one_law_call_per_grid(self, capsys, monkeypatch, kind, alpha,
                                   terms):
        # the law is called once, on the float node matrix of the grid, and
        # the rows are the per-t inversions bit for bit
        ts = [1e4, 1e-3, 0.03, 1.0, 1.0, 30.0, 2.5]
        calls = _counted_law(monkeypatch, kind)
        got = run(capsys, "invert", kind, f"--alpha={alpha!r}", "--a=1",
                  _flag("t", ts), f"--terms={terms}")
        assert len(calls) == 1
        q = calls[0]["q"]
        assert isinstance(q, np.ndarray)
        assert q.dtype == float and q.shape == (len(ts), terms)
        assert got[0] == 0
        assert got == _per_t(kind, alpha, 1.0, ts, terms)

    @pytest.mark.parametrize("x", [-2.0, 0.5, 3.0])
    def test_start_point_rows(self, capsys, monkeypatch, x):
        ts = [0.01, 0.5, 2.0, 2.0, 100.0]
        calls = _counted_law(monkeypatch, "lt-T")
        got = run(capsys, "invert", "lt-T", "--alpha=1.7", "--a=1",
                  f"--x={x!r}", _flag("t", ts))
        assert len(calls) == 1
        assert got == _per_t("lt-T", 1.7, 1.0, ts, 12, x=x)

    def test_unstable_rows_fall_back(self, capsys):
        # at 28 terms the grid is unstable from t = 4 on: row 2.0 is clamped
        # to row 1.0, rows 4 and 16 are blank
        ts = [0.1, 0.5, 1.0, 2.0, 4.0, 16.0]
        got = run(capsys, "invert", "lt-T", "--alpha", "1.5", "--a", "1",
                  "--t", "0.1,0.5,1,2,4,16", "--terms", "28")
        assert got == _per_t("lt-T", 1.5, 1.0, ts, 28)
        table = rows(got[1])
        assert got[0] == 1
        assert table[3]["p"] == table[2]["p"] != ""
        assert [r["p"] for r in table[4:]] == ["", ""]
        assert all(r["note"].startswith("unstable: ") for r in table[4:])

    def test_failing_node_falls_back(self, capsys):
        # u_1's half-step check fails at the nodes of t = 1: the row of
        # t = 1e-3 is printed, then the message
        ts = [1e-3, 1.0, 1e3, 1e6, 1e9]
        got = run(capsys, "invert", "lt-T", "--alpha", "1.999", "--a",
                  "1e-12", "--t", "1e-3,1,1e3,1e6,1e9")
        assert got == _per_t("lt-T", 1.999, 1e-12, ts, 12)
        assert got[0] == 1 and len(rows(got[1])) == 1
        assert got[2].startswith(
            "invert: u_1 rule and its half-step rule differ by 3.1e-08 ")


class TestVerify:
    def test_unknown_suite_exit_two(self, capsys):
        assert run(capsys, "verify", "unknown")[0] == 2

    def test_numeric_failure_exit_one(self, capsys, monkeypatch):
        def stalls(idx_grid, seed, n_samples):
            raise NonConvergence("quadrature stalled")
        monkeypatch.setitem(vf._SUITES, "brownian_oracle", stalls)
        code, out, err = run(capsys, "verify", "brownian_oracle")
        assert code == 1
        assert out == ""
        assert "quadrature stalled" in err

    def test_brownian_oracle_passes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "brownian_oracle",
                           "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "brownian_oracle.json").exists()
        parsed = json.loads((tmp_path / "brownian_oracle.json").read_text())
        assert all(r["pass"] for r in parsed)
        assert "check_id" in out.splitlines()[0]

    def test_formula_algebra_alpha_list(self, capsys):
        code, out, _ = run(capsys, "verify", "formula_algebra",
                           "--alpha", "1.5,2.0")
        assert code == 0

    @pytest.mark.parametrize("suite,n", [("mc_vs_formula", "-5"),
                                         ("inversion", "0")])
    def test_n_below_one_usage_error(self, capsys, suite, n):
        code, out, err = run(capsys, "verify", suite, "--n", n)
        assert code == 2
        assert out == ""
        assert "argument --n: must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite", ["brownian_oracle", "mc_vs_formula"])
    def test_negative_seed_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "argument --seed: must be >= 0, got -1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite", ["brownian_oracle", "excursion",
                                       "appendix", "inversion"])
    def test_alpha_for_a_suite_without_a_grid_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--alpha", "1.5")
        assert code == 2
        assert out == ""
        assert err == (f"verify {suite}: --alpha given, but this suite does "
                       "not take it\n")

    def test_mc_small(self, capsys):
        code, _, _ = run(capsys, "verify", "mc_vs_formula", "--alpha", "1.5",
                         "--seed", "4", "--n", "20000")
        assert code == 0

    @pytest.mark.parametrize("suite", ["mc_vs_formula", "excursion",
                                       "inversion"])
    def test_one_draw_domain_error(self, capsys, suite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", suite, "--n", "1")
        assert code == 1
        assert out == ""
        assert err == f"verify: n=1: the {suite} suite needs at least 2 draws\n"


def test_no_command_usage(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("argv,flag", [
    (("sample", "sym-stable", "--alpha", "x"), "--alpha"),
    (("sample", "gamma-series", "--a", "0.5", "--t", "1", "--terms", "abc"),
     "--terms"),
    (("sample", "gamma-series", "--a", "0.5", "--t", "1", "--terms", "2.5"),
     "--terms"),
    (("eval", "lt-T", "--alpha", "x", "--q", "1", "--a", "1"), "--alpha"),
    (("eval", "lt-T", "--alpha", "1.5", "--q", "1,,2", "--a", "1"), "--q"),
    (("invert", "lt-T", "--alpha", "x", "--a", "1", "--t", "1"), "--alpha"),
    (("invert", "lt-T", "--alpha", "1.5", "--a", "1", "--t", "1,y"), "--t"),
    (("verify", "formula_algebra", "--alpha", "1.5,z"), "--alpha"),
])
def test_non_numeric_flag_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (("sample", "gamma", "--a", "nan"), "--a"),
    (("sample", "t-point", "--alpha", "1.5", "--a", "inf"), "--a"),
    (("eval", "z", "--a", "1", "--x", "inf"), "--x"),
    (("eval", "density", "--alpha", "1.5", "--t", "1,nan", "--x", "0"), "--t"),
    (("invert", "lt-T", "--alpha", "1.5", "--a=-inf", "--t", "1"), "--a"),
    (("invert", "lt-T", "--alpha", "1.5", "--a", "1", "--t", "1,inf"), "--t"),
])
def test_non_finite_flag_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {flag}:" in err and "finite" in err


def test_gamma_series_zero_terms_exit_one(capsys):
    # parsed but outside the domain: a numeric failure, not a usage error
    code, out, err = run(capsys, "sample", "gamma-series", "--a", "0.5",
                         "--t", "1", "--terms", "0")
    assert code == 1
    assert out == ""
    assert err == "sample: n_terms must be >= 1\n"


@pytest.mark.parametrize("argv,message", [
    (("eval", "meixner", "--beta", "0", "--t", "1e-310", "--x", "1"),
     "eval: Meixner density: log B(5e-311, 5e-311) is not finite"),
    (("eval", "z", "--a", "1e-310", "--x", "1"),
     "eval: z density: log B(1e-310, 1e-310) is not finite"),
    (("sample", "gamma-series", "--a", "1e-200", "--t", "1", "-n", "3"),
     "sample: gamma-series shape a = 1e-200 is below 3.36e-155"),
])
def test_unrepresentable_shape_exit_one(capsys, argv, message):
    # unchecked, these would print nan or inf and exit 0
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "nan" not in out and "inf" not in out
    assert err.startswith(message)


def test_degenerate_denominator_exit_one(capsys):
    # u_q(0)^2 - u_q(a)^2 rounds to 0 at a level far below q^{-1/alpha}
    code, out, err = run(capsys, "eval", "lt-Xi", "--alpha", "1.5", "--q", "1",
                         "--a", "1e-300")
    assert code == 1
    assert out == "alpha,q,a,value\n"
    assert err == "eval: u_q(0)^2 - u_q(d)^2 = 0.0 for d = 1e-300\n"


def test_huge_z_shape_against_mpmath(capsys):
    # the normaliser is a series from a = 30 on, finite up to 1.8e308; at
    # x = 0 the density is pi / (4^a B(a, a)), about sqrt(pi a)/2
    code, out, err = run(capsys, "eval", "z", "--a", "1e308", "--x", "0")
    assert code == 0 and err == ""
    with mp.workdps(360):
        aa = mp.mpf(1e308)
        want = mp.exp(mp.log(mp.pi) - mp.log(mp.beta(aa, aa)) - 2 * aa * mp.log(2))
    assert float(rows(out)[0]["value"]) == pytest.approx(float(want), rel=1e-13, abs=0)


class FlushCounter(io.StringIO):
    """A stdout that counts its flushes."""

    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


def _eval_lines():
    lines = ["alpha,q,a,x,value"]
    for q in (0.5, 2.0):
        value = hl.lt_hit_point(hl.HittingQuery(1.5, q, x=0.0, a=1.0))
        lines.append(f"1.5,{q!r},1.0,0.0,{value!r}")
    return lines


def _invert_lines():
    lines = ["t,p,note"]
    best = 0.0
    for t in (0.5, 2.0):
        p = laplace_invert_cdf(
            lambda q: hl.lt_hit_point(hl.HittingQuery(1.5, float(q), a=1.0)), t)
        best = max(best, p)
        lines.append(f"{t!r},{best!r},")
    return lines


def _sample_lines():
    draws = smp.sample_gamma(2.0, smp.RandomStream(3, 0), 4)
    return ["draw"] + [repr(float(v)) for v in draws]


@pytest.mark.parametrize("argv,expected", [
    (("eval", "lt-T", "--alpha", "1.5", "--q", "0.5,2", "--a", "1"), _eval_lines),
    (("invert", "lt-T", "--alpha", "1.5", "--a", "1", "--t", "0.5,2"), _invert_lines),
    (("sample", "gamma", "--a", "2", "-n", "4", "--seed", "3"), _sample_lines),
], ids=["eval", "invert", "sample"])
def test_rows_written_unchanged_and_flushed_once(monkeypatch, argv, expected):
    out = FlushCounter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(list(argv)) == 0
    assert out.getvalue() == "\n".join(expected()) + "\n"
    assert out.flushes == 1


_EDGE_VALUES = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "-1", "nan",
                "inf", "-inf")
_EDGE_BASE = {"q": "1", "r": "2", "x": "0.5", "a": "1", "b": "-1", "t": "1",
              "beta": "0.5"}


@pytest.mark.parametrize("kind", sorted(EVAL_KINDS))
def test_eval_edge_values_keep_exit_codes(capsys, kind):
    # every flag of the kind set in turn to an edge value: a package error
    # is exit 1, a non-finite flag exit 2, and exit 0 prints finite values
    required, optional, _ = EVAL_KINDS[kind]
    flags = list(required) + list(optional)
    for alpha in ("0.5", "1", "2"):
        base = {**_EDGE_BASE, "alpha": alpha}
        for flag in flags:
            for edge in _EDGE_VALUES:
                params = {**base, flag: edge}
                argv = ["eval", kind] + [f"--{name}={params[name]}"
                                         for name in flags]
                code, out, err = run(capsys, *argv)
                assert code in (0, 1, 2), argv
                assert "Traceback" not in err
                if code == 0:
                    values = [float(row["value"]) for row in rows(out)]
                    assert all(math.isfinite(v) for v in values), argv


# each eval kind and the library call one of its rows stands for; a flag the
# kind does not list reads as None
_EVAL_DIRECT = {
    "density": lambda p: transition_density(p["alpha"], p["t"], p["x"]),
    "resolvent": lambda p: resolvent_density(p["alpha"], p["q"], p["x"]),
    "h": lambda p: potential_kernel(p["alpha"], p["x"]),
    "lt-T": lambda p: hl.lt_hit_point(
        hl.HittingQuery(p["alpha"], p["q"], x=p["x"], a=p["a"])),
    "lt-G": lambda p: hl.lt_last_exit(p["alpha"], p["q"], p["a"]),
    "lt-Xi": lambda p: hl.lt_post_exit(p["alpha"], p["q"], p["a"]),
    "lt-T-abs": lambda p: hl.lt_hit_abs(p["alpha"], p["q"], p["a"]),
    "lt-G-abs": lambda p: hl.lt_last_exit_abs(p["alpha"], p["q"], p["a"]),
    "lt-Xi-abs": lambda p: hl.lt_post_exit_abs(p["alpha"], p["q"], p["a"]),
    "exc-n": lambda p: (
        hl.excursion_hit_mass(p["alpha"], p["a"]) if p["q"] is None
        else hl.excursion_hit_lt(p["alpha"], p["q"], p["a"], r=p["r"])),
    "exc-m": lambda p: (
        hl.excursion_hit_mass_abs(p["alpha"], p["a"]) if p["q"] is None
        else hl.excursion_hit_lt_abs(p["alpha"], p["q"], p["a"], r=p["r"])),
    "getoor": lambda p: hl.prob_hit_before(p["alpha"], p["x"], p["a"], p["b"]),
    "linnik": lambda p: linnik_density(p["alpha"], p["x"]),
    "meixner": lambda p: meixner_density(p["beta"], p["t"], p["x"]),
    "z": lambda p: z_density(p["a"], p["x"]),
    "rayleigh-survival": lambda p: alpha_rayleigh_survival(p["alpha"], p["x"]),
}
_EVAL_GRID = {"alpha": "1.5", "q": "0.5,2", "r": "1", "x": "0.5,1.5",
              "a": "1,2", "b": "-1", "t": "0.5,2", "beta": "0.5"}


@pytest.mark.parametrize("kind,given", [
    *[(kind, (*EVAL_KINDS[kind][0], *EVAL_KINDS[kind][1]))
      for kind in sorted(EVAL_KINDS)],
    ("exc-n", ("alpha", "a", "q")), ("exc-m", ("alpha", "a", "q")),
    ("exc-n", ("alpha", "a")), ("exc-m", ("alpha", "a")),
    ("lt-T", ("alpha", "q", "a")),
])
def test_eval_rows_are_the_library_values(capsys, kind, given):
    code, out, _ = run(capsys, "eval", kind,
                       *[f"--{name}={_EVAL_GRID[name]}" for name in given])
    assert code == 0
    required, optional, _ = EVAL_KINDS[kind]
    got = rows(out)
    assert len(got) == math.prod(
        len(_EVAL_GRID[name].split(",")) for name in (*required, *optional)
        if name in given)
    for row in got:
        p = dict.fromkeys(_EVAL_GRID)
        p.update({k: float(v) for k, v in row.items() if k != "value" and v})
        assert row["value"] == repr(float(_EVAL_DIRECT[kind](p))), row


# the eval kinds in q; each is called once per alpha, with its other flags
# as array columns
_Q_KINDS = sorted(kind for kind, (required, optional, _) in EVAL_KINDS.items()
                  if "q" in (*required, *optional))
_Q_GRID = {"alpha": [1.05, 1.3, 1.5, 1.8, 2.0],
           "q": [float(v) for v in np.geomspace(1e-3, 1e3, 100)],
           "a": [0.3, 1.0, 2.5, 7.0], "x": [0.0, 0.5], "r": [0.4]}


def _flag(name, values):
    return f"--{name}=" + ",".join(map(repr, values))


@pytest.mark.parametrize("kind", _Q_KINDS)
def test_q_grid_rows_are_the_library_values(capsys, kind):
    required, optional, _ = EVAL_KINDS[kind]
    grid = dict(_Q_GRID)
    if kind == "resolvent":
        grid["x"] = [0.0, 1e-3, -1.0, 50.0]
    given = [name for name in (*required, *optional) if name in grid]
    code, out, err = run(capsys, "eval", kind,
                         *[_flag(name, grid[name]) for name in given])
    assert (code, err) == (0, "")
    got = rows(out)
    assert len(got) == math.prod(len(grid[name]) for name in given) >= 2000
    for row in got:
        p = dict.fromkeys(_EVAL_GRID)
        p.update({k: float(v) for k, v in row.items() if k != "value" and v})
        assert row["value"] == repr(float(_EVAL_DIRECT[kind](p))), row


# the eval kinds that take alpha; each is called once per alpha, with its
# other flags as array columns
_ALPHA_KINDS = sorted(kind for kind, (required, _, _) in EVAL_KINDS.items()
                      if "alpha" in required)


@pytest.mark.parametrize("kind", _ALPHA_KINDS)
def test_one_law_call_per_group(capsys, monkeypatch, kind):
    # each alpha is one group: one call, with every other flag an array
    # column over the product of the other grids.  A law that stopped
    # broadcasting would raise in that call and be evaluated row by row,
    # with the same output; only the count of calls shows it
    required, optional, _ = EVAL_KINDS[kind]
    calls = _counted_law(monkeypatch, kind)
    grid = {"q": [0.5, 2.0], "a": [1.0, -2.5], "x": [0.5, 1.5],
            "t": [0.5, 2.0], "b": [-1.0], "r": [1.0]}
    # the excursion masses are the kinds exc-n and exc-m without --q
    givens = [(*required, *optional)]
    if "q" in optional:
        givens.append(required)
    for given in givens:
        first = given[1]
        for n, n_rest in [(1, 1), (3, 1), (20, 2)]:
            flags = {name: grid[name][:n_rest] for name in given[2:]}
            flags[first] = np.geomspace(0.1, 10, n).tolist()
            calls.clear()
            code, out, err = run(capsys, "eval", kind, "--alpha=1.5,1.7", *[
                _flag(name, values) for name, values in flags.items()])
            assert (code, err) == (0, ""), given
            size = math.prod(len(values) for values in flags.values())
            assert len(rows(out)) == 2 * size
            assert [c["alpha"] for c in calls] == [1.5, 1.7]
            for call in calls:
                columns = {name: v for name, v in call.items()
                           if name != "alpha"}
                assert sorted(columns) == sorted(given[1:])
                assert all(isinstance(v, np.ndarray) and v.shape == (size,)
                           for v in columns.values()), columns


@pytest.mark.parametrize("kind", ["lt-T-abs", "lt-G-abs", "lt-Xi-abs",
                                  "exc-m"])
def test_abs_levels_share_their_rule_rows(capsys, monkeypatch, kind):
    # a law of |X| reads u(a) and u(2a); with a in {0.5, 1, 2} the levels
    # 0.5, 1, 2 and 4 are read, and u(2a) at a = 0.5 and 1 takes the rule
    # rows of u(a) at a = 1 and 2: 4 rule rows per q, not 6
    ruled = []
    rule = resolvent._u1_rule

    def counted(alpha, w):
        ruled.append(np.shape(w)[0])
        return rule(alpha, w)

    monkeypatch.setattr(resolvent, "_u1_rule", counted)
    q = [0.3, 1.0, 7.0]
    code, out, err = run(capsys, "eval", kind, "--alpha=1.5", _flag("q", q),
                         "--a=0.5,1,2")
    assert (code, err) == (0, "")
    assert len(rows(out)) == 9
    assert sum(ruled) == 4 * len(q)


# every eval kind's flags: a range of ordinary values, and the edge values
# that fail or take a closed form, such as a level far below the scale, a
# rate whose q^{1/alpha} overflows and alpha below 1
_HYPOTHESIS_VALUES = {
    "alpha": ((1.01, 1.99), [0.9, 1.0, 1.05, 1.999, 2.0]),
    "q": ((0.1, 10.0), [1e300, 1e-300, 0.0]),
    "r": ((0.1, 10.0), [1e-300, 0.0]),
    "a": ((0.1, 3.0), [1e-300, 3e-12, 0.0, -2.5, 0.5, 1.0, 2.0]),
    "x": ((0.0, 3.0), [1e-300, 3e-12, -1.0]),
    "b": ((-3.0, -0.1), [1.0, 2.0]),
    "t": ((0.1, 10.0), [1e-300]),
    "beta": ((-3.0, 3.0), [3.2]),
}


@st.composite
def _eval_argv(draw):
    kind = draw(st.sampled_from(sorted(EVAL_KINDS)))
    required, optional, _ = EVAL_KINDS[kind]
    argv = ["eval", kind]
    for name in (*required, *optional):
        if name in required or draw(st.booleans()):
            (lo, hi), edges = _HYPOTHESIS_VALUES[name]
            ordinary = st.floats(lo, hi)
            value = st.one_of(ordinary, ordinary, st.sampled_from(edges))
            argv.append(_flag(name, draw(st.lists(value, min_size=1,
                                                  max_size=3))))
    return argv


def _main_output(argv):
    """The exit code, stdout and stderr of ``main``; in place of the exit
    code, the repr of an exception that ``main`` lets through."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except ArithmeticError as exc:
            code = repr(exc)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_eval_argv())
@example(["eval", "lt-T", "--alpha=1.5,1.999", "--q=1e-4,0.01,1,100,1e4",
          "--a=3e-12"])
@example(["eval", "lt-Xi-abs", "--alpha=1.5,0.9", "--q=1,1e300,2",
          "--a=1,1e-300,0.5,2"])
@example(["eval", "exc-m", "--alpha=1.5", "--a=1,1e-300", "--q=1,2"])
@example(["eval", "density", "--alpha=0.9,1.999,2", "--t=0.5,2",
          "--x=0,3,5,1e-300"])
@example(["eval", "rayleigh-survival", "--alpha=0.9,1.5", "--x=0,3e-12,1.5"])
@example(["eval", "rayleigh-survival", "--alpha=1.5", "--x=0.5,-1,2"])
@example(["eval", "linnik", "--alpha=1.5,0.9", "--x=1,0,2"])
@example(["eval", "getoor", "--alpha=1.5,0.9", "--x=0.5,1", "--a=1,2",
          "--b=-1,1"])
def test_eval_equals_row_by_row(argv):
    # the array calls of eval print what one call a row prints: its rows,
    # its message and its exit code
    at_once = _main_output(argv)
    with mock.patch.object(cli, "_at_once", lambda *args, **kwargs: None):
        assert _main_output(argv) == at_once


@pytest.mark.parametrize("kind,flags,printed", [
    # u_1's half-step check fails at w = 3e-12, the q = 1 row, in the
    # middle of its group
    ("lt-T", ["--alpha=1.5,1.999", "--q=1e-4,0.01,1,100,1e4", "--a=3e-12"], 7),
    # u_q(0)^2 - u_q(a)^2 rounds to 0 at a = 1e-300
    ("lt-Xi", ["--alpha=1.5", "--q=1,2,3,4,5", "--a=1,1e-300,2"], 1),
    ("exc-m", ["--alpha=1.5", "--a=1,1e-300", "--q=1,2,3,4,5"], 5),
    # alpha outside (1, 2] in the middle of the grid
    ("lt-G", ["--alpha=1.5,0.9,1.7", "--q=1,2,3,4,5", "--a=1"], 5),
])
def test_failing_row_ends_the_output(capsys, kind, flags, printed):
    code, out, err = run(capsys, "eval", kind, *flags)
    got = rows(out)
    assert code == 1 and len(got) == printed
    for row in got:
        p = dict.fromkeys(_EVAL_GRID)
        p.update({k: float(v) for k, v in row.items() if k != "value" and v})
        assert row["value"] == repr(float(_EVAL_DIRECT[kind](p))), row
    # the row after the last printed one raises the message printed
    failing = {"lt-T": {"alpha": 1.999, "q": 1.0, "a": 3e-12, "x": 0.0},
               "lt-Xi": {"alpha": 1.5, "q": 1.0, "a": 1e-300},
               "exc-m": {"alpha": 1.5, "a": 1e-300, "q": 1.0},
               "lt-G": {"alpha": 0.9, "q": 1.0, "a": 1.0}}[kind]
    p = dict.fromkeys(_EVAL_GRID)
    p.update(failing)
    with pytest.raises((ArithmeticError, ValueError)) as info:
        _EVAL_DIRECT[kind](p)
    assert err == f"eval: {info.value}\n"


def test_overflowing_group_is_evaluated_row_by_row(capsys):
    # a q^{1/alpha} = 1e500 overflows in the array; the float path gives
    # u_1(inf) = 0 with no warning
    code, out, err = run(capsys, "eval", "lt-G", "--alpha=1.5",
                         "--q=1e300,1e-300,1,2,3", "--a=1e300,1")
    assert (code, err) == (0, "")
    for row in rows(out):
        p = {k: float(v) for k, v in row.items() if k != "value"}
        assert row["value"] == repr(hl.lt_last_exit(p["alpha"], p["q"], p["a"]))


# each sample dist, its flags, and the draws of one stream
_SAMPLE_DIRECT = {
    "gamma": ({"a": 2.0}, lambda s, n: smp.sample_gamma(2.0, s, n)),
    "beta": ({"a": 1.0, "b": 2.0}, lambda s, n: smp.sample_beta(1.0, 2.0, s, n)),
    "exponential": ({}, smp.sample_exponential),
    "uniform": ({}, smp.sample_uniform),
    "sign": ({}, smp.sample_bernoulli_sign),
    "sym-stable": ({"alpha": 1.5}, lambda s, n: smp.sample_sym_stable(1.5, s, n)),
    "unilateral": ({"beta": 0.5},
                   lambda s, n: smp.sample_unilateral_stable(0.5, s, n)),
    "size-biased": ({"beta": 0.5},
                    lambda s, n: smp.sample_size_biased_stable(0.5, s, n)),
    "alpha-cauchy": ({"alpha": 1.5},
                     lambda s, n: smp.sample_alpha_cauchy(1.5, s, n)),
    "alpha-rayleigh": ({"alpha": 1.5},
                       lambda s, n: smp.sample_alpha_rayleigh(1.5, s, n)),
    "linnik": ({"alpha": 1.5}, lambda s, n: smp.sample_linnik(1.5, s, n)),
    "t-point": ({"alpha": 1.5, "a": 1.0},
                lambda s, n: smp.sample_hitting_time(1.5, 1.0, s, n)),
    "overshoot": ({"alpha": 1.5, "a": 1.0},
                  lambda s, n: smp.sample_overshoot(1.5, 1.0, s, n)),
    "excursion": ({"gamma": 0.5},
                  lambda s, n: smp.sample_excursion_age_duration(0.5, s, n)),
    "excursion-exp": ({"gamma": 0.5},
                      lambda s, n: smp.sample_excursion_at_exp_time(0.5, s, n)),
    "gamma-series": ({"a": 0.5, "t": 1.0},
                     lambda s, n: smp.sample_gamma_series_subordinator(0.5, 1.0, s, n)),
    "tanh-law": ({}, lambda s, n: smp.sample_from_lt(smp.tanh_subordinator_lt(), s, n)),
}


@pytest.mark.parametrize("dist", sorted(_SAMPLE_DIRECT))
def test_sample_rows_are_the_library_draws(capsys, dist):
    flags, draw = _SAMPLE_DIRECT[dist]
    code, out, _ = run(capsys, "sample", dist, "-n", "5", "--seed", "7",
                       *[f"--{name}={value!r}" for name, value in flags.items()])
    draws = draw(smp.RandomStream(7, 0), 5)
    columns = draws if isinstance(draws, tuple) else (draws,)
    assert code == 0
    assert out.splitlines()[1:] == [",".join(repr(float(v)) for v in row)
                                    for row in zip(*columns)]


def _library_rows(draw, seed, n, streams):
    """The CSV rows of ``n`` draws split over ``streams`` as ``sample`` splits
    them, each cell ``repr`` of the draw as a float."""
    columns = []
    for i in range(streams):
        count = n // streams + (1 if i < n % streams else 0)
        draws = draw(smp.RandomStream(seed, i), count)
        columns.append(draws if isinstance(draws, tuple) else (draws,))
    return [",".join(repr(float(v)) for v in row)
            for row in zip(*(np.concatenate(c) for c in zip(*columns)))]


@pytest.mark.parametrize("streams", [1, 3])
@pytest.mark.parametrize("dist", sorted(_SAMPLE_DIRECT))
def test_sample_rows_written_in_blocks(capsys, monkeypatch, dist, streams):
    # 7 rows in blocks of 3 end one block short; stdout must be the rows
    # written one at a time
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    flags, draw = _SAMPLE_DIRECT[dist]
    code, out, _ = run(capsys, "sample", dist, "-n", "7", "--seed", "11",
                       "--streams", str(streams),
                       *[f"--{name}={value!r}" for name, value in flags.items()])
    assert code == 0
    assert out.splitlines()[1:] == _library_rows(draw, 11, 7, streams)
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_sample_inf_rows_written_in_blocks(capsys, monkeypatch):
    # about half the hitting times at alpha = 1.001 pass the double range
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    code, out, _ = run(capsys, "sample", "t-point", "--alpha", "1.001",
                       "--a", "1", "-n", "7", "--seed", "7", "--streams", "3")
    want = _library_rows(
        lambda s, n: smp.sample_hitting_time(1.001, 1.0, s, n), 7, 7, 3)
    assert code == 0
    assert "inf" in want and any(row != "inf" for row in want)
    assert out == "\n".join(["draw", *want]) + "\n"


def _fresh_process(argv):
    """Exit code, stdout and stderr of ``argv`` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(stable_hitting.__file__))
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "stable_hitting.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_cached_parser_keeps_no_state(capsys, monkeypatch):
    # one parser serves every main call in a process; each call must print
    # what it prints as the first call of a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    gamma = ("sample", "gamma", "--a", "2", "-n", "3", "--seed", "1")
    exponential = ("sample", "exponential", "-n", "3", "--seed", "1")
    usage_error = ("sample", "gamma", "--a", "2", "-n", "0")
    help_ = ("sample", "--help")
    fresh = {argv: _fresh_process(argv)
             for argv in (gamma, exponential, usage_error, help_)}
    assert fresh[exponential][0] == 0
    assert fresh[usage_error][0] == 2 and fresh[help_][0] == 0
    for first in (gamma, usage_error, help_):
        assert run(capsys, *first) == fresh[first], first
        assert run(capsys, *exponential) == fresh[exponential], first
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("command,table,offered", [
    ("eval", EVAL_KINDS, cli._EVAL_FLAGS),
    ("sample", SAMPLE_DISTS, cli._SAMPLE_FLAGS),
])
def test_unlisted_flag_usage_error(capsys, command, table, offered):
    # every kind with all its flags and one it does not list
    values = {"alpha": "1.5", "q": "1", "r": "2", "x": "0.5", "a": "1",
              "b": "2", "t": "1", "beta": "0.5", "gamma": "0.5", "terms": "8"}
    for kind, (required, optional, _) in table.items():
        listed = [*required, *optional]
        for extra in (f for f in offered if f not in listed):
            argv = [command, kind, *[f"--{f}={values[f]}" for f in listed],
                    f"--{extra}={values[extra]}"]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == (f"{command} {kind}: --{extra} given, but this "
                           "kind does not take it\n")


def test_every_eval_kind_and_sample_dist_is_pinned():
    assert set(_EVAL_DIRECT) == set(EVAL_KINDS)
    assert set(_SAMPLE_DIRECT) == set(SAMPLE_DISTS)


def _readme_commands():
    """The ``stable-hitting ...`` lines of the README's CLI block."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as f:
        readme = f.read()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```")[0]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("stable-hitting ")]


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert ["eval", "lt-T", "--alpha", "1.5", "--q", "1", "--a",
            "-2,0.5"] in commands
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("argv,flag,value", [
    (("eval", "lt-T", "--alpha", "1.5", "--q", "1"), "--a", "-2,0.5"),
    (("eval", "resolvent", "--alpha", "1.5", "--q", "1"), "--x", "-1e-3"),
    (("eval", "lt-T", "--alpha", "1.5", "--q", "1", "--a", "1"), "--x", "-.25"),
    (("sample", "t-point", "--alpha", "1.5", "-n", "3"), "--a", "-1e0"),
    (("invert", "lt-T", "--alpha", "1.5", "--t", "1,2"), "--a", "-2e0"),
])
def test_negative_value_after_its_flag(capsys, argv, flag, value):
    # a value of "-" and a digit or "." reads as with "=" (argparse alone
    # would take it for a flag)
    spaced = run(capsys, *argv, flag, value)
    joined = run(capsys, *argv, f"{flag}={value}")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1].count("\n") >= 2


def test_flag_without_value_stays_usage_error(capsys):
    code, _, err = run(capsys, "eval", "lt-T", "--alpha", "1.5", "--q", "1",
                       "--a", "--x", "1")
    assert code == 2 and "--a: expected one argument" in err


def test_every_package_error_reaches_main_as_exit_one():
    # a new error class fails here until ``main`` handles it; UnknownSuite
    # is out of reach, since argparse's ``choices`` checks the suite name
    defined = {obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert defined - set(cli._NUMERIC_ERRORS) == {errors.UnknownSuite}
