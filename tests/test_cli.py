import io
import json
import math
import sys

import pytest

from stable_hitting import hitting_laws as hl
from stable_hitting import sampling as smp
from stable_hitting import verify as vf
from stable_hitting.cli import main
from stable_hitting.errors import NonConvergence
from stable_hitting.numerics import laplace_invert_cdf


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

    def test_zero_streams_usage_error(self, capsys):
        code, out, err = run(capsys, "sample", "exponential", "-n", "5",
                             "--streams", "0")
        assert code == 2
        assert out == ""
        assert "--streams" in err

    def test_overflow_exit_one(self, capsys):
        code, _, err = run(capsys, "sample", "size-biased", "--beta", "0.995",
                           "-n", "3")
        assert code == 1
        assert err.startswith("sample:")
        assert "beta=0.995" in err

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

    def test_monotone_output(self, capsys):
        code, out, _ = run(capsys, "invert", "lt-T-abs", "--alpha", "1.5",
                           "--a", "1", "--t", "0.1,0.5,1,2,5,10")
        assert code == 0
        ps = [float(r["p"]) for r in rows(out)]
        assert all(b >= a for a, b in zip(ps, ps[1:]))
        assert all(0 <= p <= 1 for p in ps)


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

    def test_mc_small(self, capsys):
        code, _, _ = run(capsys, "verify", "mc_vs_formula", "--alpha", "1.5",
                         "--seed", "4", "--n", "20000")
        assert code == 0


def test_no_command_usage(capsys):
    assert main([]) == 2


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
