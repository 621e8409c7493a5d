"""End-to-end CLI tests run through subprocesses, plus output determinism."""

import argparse
import csv
import io
import json
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from rabi_spectra import SectorLabel, TwoPhoton, cli, models, modulation, predicted_phase, sectors
from test_cli_golden import run_main

DATA = Path(__file__).parent / "data"


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "rabi_spectra", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def parse_csv(text: str):
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


class TestClassify:
    def test_two_photon_critical(self):
        cp = run_cli("classify", "--model", "two-photon", "--g", "0.5", "--delta", "1")
        assert cp.returncode == 0, cp.stderr
        rows = parse_csv(cp.stdout)
        assert [r["sector"] for r in rows] == ["0-", "0+", "1-", "1+"]
        for row in rows:
            assert row["kind"] == "critical-half-line"
            assert float(row["endpoint"]) == -0.5
            assert row["direction"] == "up"

    def test_anisotropic_mean_critical(self):
        cp = run_cli("classify", "--model", "anisotropic",
                     "--g-plus", "0.8", "--g-minus", "0.2", "--delta", "3")
        assert cp.returncode == 0, cp.stderr
        rows = parse_csv(cp.stdout)
        assert len(rows) == 4
        for row in rows:
            assert row["kind"] == "critical-half-line"
            assert float(row["endpoint"]) == -0.5

    def test_rabi_stark_empty(self):
        cp = run_cli("classify", "--model", "rabi-stark",
                     "--g", "0.7", "--kappa", "2", "--delta", "0")
        assert cp.returncode == 0, cp.stderr
        for row in parse_csv(cp.stdout):
            assert row["kind"] == "empty-essential"
            assert row["endpoint"] == ""

    def test_json_round_trips_report_fields_bit_exactly(self):
        cp = run_cli("classify", "--model", "two-photon",
                     "--g", "0.5", "--delta", "1", "--format", "json")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        model = TwoPhoton(g=0.5, delta=1.0)
        for row, sector in zip(payload["rows"], sectors(model)):
            report = predicted_phase(model, sector)
            assert row["sector"] == str(sector)
            assert row["kind"] == report.kind.value
            assert row["trace"] == report.trace
            assert row["clause"] == report.notes
            assert row["indicator_c1"] == report.indicator.c1
            assert row["indicator_c0"] == report.indicator.c0
            assert row["endpoint"] == report.essential_spectrum.endpoint
            assert row["direction"] == report.essential_spectrum.direction

    def test_critical_preset(self):
        exact = run_cli("classify", "--model", "two-photon", "--g", "0.5")
        preset = run_cli("classify", "--model", "two-photon", "--g", "critical")
        assert preset.stdout == exact.stdout

    def test_on_circle_preset(self):
        cp = run_cli("classify", "--model", "rabi-stark",
                     "--kappa", "0.6", "--delta", "1", "--on-circle")
        assert cp.returncode == 0, cp.stderr
        for row in parse_csv(cp.stdout):
            assert row["kind"] == "critical-half-line"
            assert float(row["endpoint"]) == pytest.approx(-0.62, abs=1e-12)


class TestParams:
    def test_intensity_table(self):
        cp = run_cli("params", "--model", "intensity", "--g", "1", "--kappa", "1",
                     "--delta", "2", "--sector", "+", "--n", "0..3")
        assert cp.returncode == 0, cp.stderr
        rows = parse_csv(cp.stdout)
        assert [int(r["n"]) for r in rows] == [0, 1, 2, 3]
        assert float(rows[0]["a"]) == np.sqrt(2.0)
        assert float(rows[0]["b"]) == 1.0
        assert float(rows[1]["b"]) == 0.0

    @pytest.mark.parametrize("n", ["-4..12", "999990..1000001"])
    def test_table_is_a_call_per_index(self, n):
        # the table evaluates each rule once over the range; a call per index
        # is the reference, -0.0 and NaN (sqrt of a negative at n = -2) included
        argv = ["params", "--model", "intensity", "--g", "0.3", "--delta", "1",
                "--kappa", "1.5", f"--n={n}"]
        with pytest.warns(RuntimeWarning) if n.startswith("-") else nullcontext():
            code, out, _ = run_main(argv)
        assert code == 0
        model = cli._build_model(cli._build_parser().parse_args(argv))
        want = []
        with np.errstate(invalid="ignore"):
            for sector in sectors(model):
                params = models.jacobi_params(model, sector)
                want += [[str(sector), str(i), repr(float(params.a(i))), repr(float(params.b(i)))]
                         for i in cli._parse_index_range(n)]
        assert [[r["sector"], r["n"], r["a"], r["b"]] for r in parse_csv(out)] == want


    @pytest.mark.parametrize("n", ["9223372036854775808", "-9223372036854775809",
                                   "9223372036854775807..9223372036854775808"])
    def test_index_outside_int64_exits_one(self, n):
        code, out, err = run_main(["params", "--model", "two-photon", "--g", "0.3", f"--n={n}"])
        assert (code, out) == (1, "")
        assert err == (f"rabi-spectra: error: --n {n!r} holds an index outside "
                       "[-9223372036854775808, 9223372036854775807]\n")

    def test_int64_limits_are_indices(self):
        code, out, _ = run_main(["params", "--model", "two-photon", "--g", "0.3", "--sector", "0+",
                                 "--n=-9223372036854775808..-9223372036854775807"])
        assert code == 0
        assert [r["n"] for r in parse_csv(out)] == ["-9223372036854775808", "-9223372036854775807"]


class TestSpectrum:
    def test_windowed_spectrum(self):
        cp = run_cli("spectrum", "--model", "two-photon", "--g", "0.3", "--delta", "1",
                     "--sector", "0+", "--cutoff", "60", "--window", "-2", "10")
        assert cp.returncode == 0, cp.stderr
        rows = parse_csv(cp.stdout)
        values = [float(r["eigenvalue"]) for r in rows]
        assert values == sorted(values)
        assert all(-2 <= v < 10 for v in values)

    def test_couplings_that_overflow_when_squared_exit_one(self):
        # the largest coupling of a 6-row section is 1.05e154 at g 1e153 and
        # 1.05e155 at g 1e154, above sqrt(float max) ~ 1.341e154
        argv = ["spectrum", "--model", "two-photon", "--delta", "1", "--cutoff", "6"]
        code, out, err = run_main(argv + ["--g", "1e153"])
        assert code == 0 and len(parse_csv(out)) == 4 * 6
        code, out, err = run_main(argv + ["--g", "1e154"])
        assert (code, out) == (1, "") and "sqrt(float max)" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-3"])
    def test_bad_tol_is_exit_one(self, tol):
        # an infinite tol used to print every eigenvalue as the window midpoint
        argv = ["spectrum", "--model", "two-photon", "--g", "0.3", "--delta", "1",
                "--sector", "0+", "--cutoff", "30", "--tol", tol]
        code, out, err = run_main(argv)
        assert (code, out) == (1, "") and "tol" in err


class TestCollapse:
    def test_matches_golden_file(self):
        cp = run_cli("collapse", "--model", "two-photon", "--delta", "1",
                     "--grid", "0.30:0.49:0.01", "--cutoff", "400", "-k", "20")
        assert cp.returncode == 0, cp.stderr
        golden = (DATA / "collapse_two_photon.csv").read_text()
        assert cp.stdout == golden

    def test_warns_outside_discrete_regime(self):
        cp = run_cli("collapse", "--model", "two-photon", "--delta", "1",
                     "--grid", "0.4,0.5,0.8", "--cutoff", "80", "-k", "4")
        assert cp.returncode == 0
        assert "not in the purely discrete regime" in cp.stderr
        # grid values print as plain floats, not numpy reprs
        assert "coupling 0.5 is not" in cp.stderr and "coupling 0.8 is not" in cp.stderr
        assert "coupling 0.4" not in cp.stderr and "np.float64" not in cp.stderr


class TestEdge:
    def test_counts_grow_on_essential_side(self):
        cp = run_cli("edge", "--model", "two-photon", "--g", "critical", "--delta", "1",
                     "--cutoffs", "100,200,400", "--window-width", "5")
        assert cp.returncode == 0, cp.stderr
        rows = parse_csv(cp.stdout)
        ess = [int(r["essential_count"]) for r in rows]
        assert ess[0] < ess[1] < ess[2]

    def test_non_critical_model_is_regime_error(self):
        cp = run_cli("edge", "--model", "two-photon", "--g", "0.3", "--delta", "1")
        assert cp.returncode == 2
        assert "regime error" in cp.stderr


class TestVerifyDecomp:
    def test_two_photon(self):
        cp = run_cli("verify-decomp", "--model", "two-photon",
                     "--g", "0.7", "--delta", "1.3", "--cutoff", "200")
        assert cp.returncode == 0, cp.stderr
        row = parse_csv(cp.stdout)[0]
        assert float(row["max_deviation"]) <= 1e-12
        assert float(row["max_cross"]) == 0.0


class TestExitCodesAndDeterminism:
    def test_usage_error_is_exit_one(self):
        assert run_cli("classify", "--model", "two-photon").returncode == 1  # missing --g
        assert run_cli("classify", "--model", "nope", "--g", "1").returncode == 1
        cp = run_cli("classify", "--model", "anisotropic",
                     "--g-plus", "0.8", "--g-minus", "-0.2", "--delta", "0")
        assert cp.returncode == 1
        assert "g_minus" in cp.stderr

    def test_degenerate_parameters_are_exit_two(self):
        cp = run_cli("classify", "--model", "intensity", "--g", "0.5",
                     "--kappa", "0", "--delta", "1")
        assert cp.returncode == 2
        assert "kappa = 0" in cp.stderr

    def test_cancelled_indicator_is_summed_exactly(self):
        # the float indicator loses the anisotropic edge to cancellation at a
        # mean coupling of 1e6; its exact sum restores the closed form's -1/2
        cp = run_cli("classify", "--model", "anisotropic", "--g-plus", "1000000.5",
                     "--g-minus", "999999.5", "--delta", "1")
        assert cp.returncode == 0, cp.stderr
        rows = parse_csv(cp.stdout)
        assert [r["sector"] for r in rows] == ["0-", "0+", "1-", "1+"]
        for row in rows:
            assert row["kind"] == "critical-half-line"
            assert float(row["endpoint"]) == -0.5
            assert row["direction"] == "down"

    def test_unconfirmed_closed_form_is_exit_two(self, monkeypatch):
        # an indicator that neither the float nor the exact sum confirms: one
        # regime-error line, no traceback and no table
        float_sum, exact_sum, exact_calls = models.edge_indicator, models.exact_edge_indicator, []

        def shifted(indicator):
            # the endpoint -c0 / c1 moves down by 1
            return modulation.EdgeIndicator(indicator.c1, indicator.c0 + indicator.c1)

        def exact_shifted(*args):
            exact_calls.append(args)
            indicator = shifted(exact_sum(*args)[0])
            return indicator, modulation.essential_halfline(indicator)

        monkeypatch.setattr(models, "edge_indicator", lambda *args: shifted(float_sum(*args)))
        monkeypatch.setattr(models, "exact_edge_indicator", exact_shifted)
        code, out, err = run_main(["classify", "--model", "two-photon", "--g", "0.5"])
        assert code == 2
        assert out == ""
        assert err.startswith("rabi-spectra: regime error: indicator half-line")
        assert len(err.splitlines()) == 1
        assert len(exact_calls) == 1

    @pytest.mark.parametrize("delta", ["1e100", "1e308"])
    def test_indicator_lost_at_huge_delta_is_exit_two(self, delta):
        # the float indicator's endpoint reads 0.0; summed exactly it gives
        # -3/2 in sectors mu = 1, whose gamma (+-delta/2 + 1) rounds to
        # +-delta/2, so the closed form's -1/2 is not confirmed and nothing prints
        cp = run_cli("classify", "--model", "two-photon", "--g", "critical", "--delta", delta)
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert cp.stderr.startswith("rabi-spectra: regime error: indicator half-line")
        assert len(cp.stderr.splitlines()) == 1

    def test_byte_identical_reruns(self):
        args = ("classify", "--model", "rabi-stark", "--kappa", "0.6",
                "--delta", "1", "--on-circle", "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "table.csv"
        direct = run_cli("classify", "--model", "two-photon", "--g", "0.5")
        to_file = run_cli("classify", "--model", "two-photon", "--g", "0.5",
                          "--out", str(out))
        assert to_file.returncode == 0
        assert out.read_text() == direct.stdout


class TestOptionValues:
    """In-process checks of option parsing (no subprocess per case)."""

    @pytest.mark.parametrize("exp_form, plain_form", [
        (["classify", "--model", "rabi-stark", "--g", "0.3", "--kappa", "-3.4e-05"],
         ["classify", "--model", "rabi-stark", "--g", "0.3", "--kappa=-3.4e-05"]),
        (["classify", "--model", "two-photon", "--g", "0.3", "--delta", "-1e-05"],
         ["classify", "--model", "two-photon", "--g", "0.3", "--delta", "-0.00001"]),
        (["spectrum", "--model", "two-photon", "--g", "0.3", "--sector", "0+",
          "--cutoff", "20", "--window", "-1E-05", "10"],
         ["spectrum", "--model", "two-photon", "--g", "0.3", "--sector", "0+",
          "--cutoff", "20", "--window", "-0.00001", "10"]),
    ])
    def test_negative_exponent_values(self, exp_form, plain_form):
        code, out, err = run_main(exp_form)
        assert code == 0, err
        assert (code, out) == run_main(plain_form)[:2]

    @pytest.mark.parametrize("argv, option", [
        (["classify", "--model", "two-photon", "--g", "0.3", "--kappa", "5",
          "--g-plus", "9"], "--kappa"),
        (["classify", "--model", "anisotropic", "--g", "0.9",
          "--g-plus", "0.8", "--g-minus", "0.2"], "--g"),
        (["collapse", "--model", "two-photon", "--g", "0.9", "--on-circle",
          "--grid", "0.3,0.4"], "--g"),
        (["collapse", "--model", "rabi-stark", "--kappa", "0.5", "--on-circle",
          "--grid", "0.3,0.4"], "--on-circle"),
    ])
    def test_option_the_model_does_not_take_is_rejected(self, argv, option):
        code, out, err = run_main(argv)
        assert code == 1
        assert out == ""
        assert option in err

    # -k 1, sector 2+, a NaN width and a negative g fail right after the size
    # check, so an input at the limit exits fast too instead of building it
    @pytest.mark.parametrize("argv, message", [
        (["collapse", "--model", "two-photon", "--grid", "1:10001:1", "-k", "1"], "--grid"),
        (["collapse", "--model", "two-photon", "--grid", "1:10000:1", "--cutoff", "100",
          "-k", "1"], "k must be"),
        (["collapse", "--model", "two-photon", "--grid", "0:1e308:1e-308", "-k", "1"], "--grid"),
        (["collapse", "--model", "two-photon", "-k", "1",
          "--grid", ",".join(["0.1"] * 10_001)], "--grid"),
        (["params", "--model", "two-photon", "--g", "0.3", "--sector", "2+",
          "--n", "0..1000000"], "--n"),
        (["params", "--model", "two-photon", "--g", "0.3", "--sector", "2+",
          "--n", "0..999999"], "sector"),
        (["collapse", "--model", "two-photon", "--grid", ","], "--grid"),
        (["collapse", "--model", "two-photon", "--grid", ""], "--grid"),
        (["spectrum", "--model", "two-photon", "--g", "0.3", "--cutoff", "1000001"], "--cutoff"),
        (["spectrum", "--model", "two-photon", "--g", "0.3", "--sector", "2+",
          "--cutoff", "1000000"], "sector"),
        (["collapse", "--model", "two-photon", "--grid", "0.3", "--cutoff", "1000001"],
         "--cutoff"),
        (["collapse", "--model", "two-photon", "--grid", "0.3", "--cutoff", "1000000",
          "-k", "1"], "k must be"),
        (["edge", "--model", "two-photon", "--g", "critical", "--cutoffs", "2000000000"],
         "--cutoffs"),
        (["edge", "--model", "two-photon", "--g", "critical", "--cutoffs", "100,1000001"],
         "--cutoffs"),
        (["edge", "--model", "two-photon", "--g", "critical", "--cutoffs", "1000000",
          "--window-width", "nan"], "window width"),
        (["verify-decomp", "--model", "two-photon", "--g", "0.7", "--cutoff", "100000"],
         "--cutoff"),
        (["verify-decomp", "--model", "two-photon", "--g", "0.7", "--cutoff", "2001"],
         "--cutoff"),
        (["verify-decomp", "--model", "two-photon", "--g", "-0.7", "--cutoff", "2000"],
         "g must be"),
        # the scan holds grid points x cutoff section rows, at most 10^6
        (["collapse", "--model", "two-photon", "--grid", "1:10000:1", "-k", "1"],
         "--grid points x --cutoff = 10000 x 400"),
        (["collapse", "--model", "two-photon", "--grid", "0.1,0.2", "--cutoff", "500001",
          "-k", "1"], "--grid points x --cutoff = 2 x 500001"),
    ])
    def test_input_size_limits(self, argv, message):
        code, out, err = run_main(argv)
        assert code == 1
        assert message in err


class TestInProcessCalls:
    """Repeated ``cli.main`` calls in one interpreter share one parser."""

    CLASSIFY = ["classify", "--model", "two-photon", "--g", "0.5", "--delta", "1"]

    def test_parser_is_built_on_the_first_call_only(self, monkeypatch):
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(parser, *args, **kwargs):
            calls.append(args)
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        cli._build_parser.cache_clear()
        assert run_main(self.CLASSIFY)[0] == 0
        assert len(calls) > 50  # the whole tree, every subcommand's options
        calls.clear()
        assert run_main(self.CLASSIFY)[0] == 0
        assert run_main(["params", "--model", "two-photon", "--g", "0.3"])[0] == 0
        assert calls == []

    def test_no_state_leaks_between_calls(self, tmp_path):
        first = run_main(self.CLASSIFY)
        assert first[0] == 0 and first[1].startswith("# command=classify")
        # a usage error exits 1 through the parser's error path
        code, out, err = run_main(["classify", "--model", "nope", "--g", "1"])
        assert (code, out) == (1, "") and "invalid choice" in err
        assert run_main(self.CLASSIFY) == first
        as_json = run_main(self.CLASSIFY + ["--format", "json"])
        assert as_json[0] == 0 and json.loads(as_json[1])["meta"]["command"] == "classify"
        assert run_main(self.CLASSIFY) == first
        table = tmp_path / "table.csv"
        assert run_main(self.CLASSIFY + ["--out", str(table)]) == (0, "", "")
        assert table.read_text() == first[1]
        assert run_main(self.CLASSIFY) == first

    def test_subcommand_defaults_survive_explicit_values(self):
        params = ["params", "--model", "two-photon", "--g", "0.3"]
        default = run_main(params)
        assert default[0] == 0 and len(parse_csv(default[1])) == 4 * 10  # --n 0..9
        narrowed = run_main(params + ["--sector", "0+", "--n", "2"])
        assert [r["n"] for r in parse_csv(narrowed[1])] == ["2"]
        assert run_main(params) == default
