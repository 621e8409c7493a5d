"""End-to-end CLI tests run through subprocesses, plus output determinism."""

import argparse
import csv
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("n", ["-4..-3", "-1..12", "999990..1000001"])
    def test_table_is_a_call_per_index(self, n):
        # the table evaluates each rule once over the range; a call per index
        # is the reference, -0.0 (a = 0.3 sqrt(-0.0) at n = -3) included; n = -2
        # (sqrt of a negative) is left out: a NaN exits 1 (test_nan_entry_exits_one)
        argv = ["params", "--model", "intensity", "--g", "0.3", "--delta", "1",
                "--kappa", "1.5", f"--n={n}"]
        code, out, _ = run_main(argv)
        assert code == 0
        model = cli._build_model(cli._build_parser().parse_args(argv))
        want = []
        for sector in sectors(model):
            params = models.jacobi_params(model, sector)
            want += [[str(sector), str(i), repr(float(params.a(i))), repr(float(params.b(i)))]
                     for i in cli._parse_index_range(n)]
        assert [[r["sector"], r["n"], r["a"], r["b"]] for r in parse_csv(out)] == want
        if n == "-4..-3":
            assert [r["a"] for r in parse_csv(out)][1::2] == ["-0.0", "-0.0"]


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

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "intensity", "--g", "1e300", "--delta", "-0.5", "--kappa", "1e17",
         "--cutoff", "3"],
        ["collapse", "--model", "intensity", "--delta=-1e-300", "--kappa", "1e154",
         "--grid", "1e300,1e301", "--cutoff", "3", "-k", "5"],
    ])
    def test_section_entries_that_overflow_exit_one_without_a_warning(self, argv):
        # a(n) overflows to inf while the section is built; it warned first
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_main(argv)
        assert (code, out) == (1, "") and "sqrt(float max)" in err
        assert len(err.splitlines()) == 1

    def test_work_above_the_limit_exits_one_before_any_section(self, monkeypatch):
        # 10^6 rows x 10^6 eigenvalues would bisect for hours
        built = []
        monkeypatch.setattr(cli, "jacobi_params", lambda *args: built.append(args))
        code, out, err = run_main(["spectrum", "--model", "two-photon", "--g", "0.3",
                                   "--sector", "0+", "--cutoff", "1000000"])
        assert (code, out, built) == (1, "", [])
        assert err == (f"rabi-spectra: error: --cutoff 1000000 rows x 1000000 eigenvalues = "
                       f"{10**12} is above the limit of {cli.MAX_SPECTRUM_WORK}\n")

    @pytest.mark.parametrize("sector, cutoff, eigenvalues", [
        ("0+", 20, 20), ("0+", 21, 21), ("all", 10, 40), ("all", 11, 44)])
    def test_full_spectrum_work_is_rows_times_rows(self, monkeypatch, sector, cutoff, eigenvalues):
        monkeypatch.setattr(cli, "MAX_SPECTRUM_WORK", 400)
        code, out, err = run_main(["spectrum", "--model", "two-photon", "--g", "0.3",
                                   "--sector", sector, "--cutoff", str(cutoff)])
        if cutoff * eigenvalues <= 400:
            assert code == 0 and len(out.splitlines()) == 2 + eigenvalues
        else:
            assert (code, out) == (1, "")
            assert err == (f"rabi-spectra: error: --cutoff {cutoff} rows x {eigenvalues} "
                           f"eigenvalues = {cutoff * eigenvalues} is above the limit of 400\n")

    def test_window_is_counted_against_the_limit(self, monkeypatch):
        argv = ["spectrum", "--model", "two-photon", "--g", "0.3", "--delta", "1",
                "--sector", "all", "--cutoff", "40", "--window", "-2", "10"]
        code, printed, err = run_main(argv)
        count = len(printed.splitlines()) - 2
        assert code == 0 and 0 < count < 4 * 40
        # below 4 x 40^2, where the window must be counted
        monkeypatch.setattr(cli, "MAX_SPECTRUM_WORK", 40 * count)
        assert run_main(argv) == (0, printed, "")
        monkeypatch.setattr(cli, "MAX_SPECTRUM_WORK", 40 * count - 1)
        code, out, err = run_main(argv)
        assert (code, out) == (1, "")
        assert err == (f"rabi-spectra: error: --cutoff 40 rows x {count} eigenvalues = "
                       f"{40 * count} is above the limit of {40 * count - 1}\n")

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


class TestOneSectorCommands:
    """edge and collapse solve one sector: 'all' is refused, the help names the default
    (which the goldens pin)."""

    @pytest.mark.parametrize("argv", [
        ["edge", "--model", "two-photon", "--g", "critical", "--delta", "1", "--cutoffs", "200,400"],
        ["collapse", "--model", "two-photon", "--delta", "1", "--grid", "0.3,0.31",
         "--cutoff", "40", "-k", "3"],
    ], ids=lambda argv: argv[0])
    def test_all_is_exit_one(self, argv):
        code, out, err = run_main([*argv, "--sector", "all"])
        assert (code, out) == (1, "")
        assert err == f"rabi-spectra: error: {argv[0]} solves one sector; give one label, not 'all'\n"

    @pytest.mark.parametrize("command", ["edge", "collapse"])
    def test_help_names_the_default(self, command):
        (action,) = [a for a in cli._build_parser().commands[command]._actions
                     if a.dest == "sector"]
        assert action.help == "one sector label (default 0+, or + for the intensity model)"


class TestSharedMonodromy:
    """classify forms one period product per distinct (alpha, beta), and still builds every sector."""

    @pytest.mark.parametrize("argv, products", [
        (["--model", "two-photon", "--g", "0.3", "--delta", "1"], 1),
        (["--model", "intensity", "--g", "0.3", "--kappa", "1", "--delta", "1"], 1),
        (["--model", "anisotropic", "--g-plus", "0.8", "--g-minus", "0.1", "--delta", "1"], 2),
        (["--model", "rabi-stark", "--g", "0.3", "--kappa", "0.5", "--delta", "1"], 2),
    ], ids=lambda value: value[1] if isinstance(value, list) else str(value))
    def test_products_and_sector_builds(self, monkeypatch, argv, products):
        starts, built = [], []
        period_product, jacobi_params = modulation._period_product, models.jacobi_params

        def spy_product(rows, i):
            starts.append(i)
            return period_product(rows, i)

        def spy_params(model, sector):
            built.append(str(sector))
            return jacobi_params(model, sector)

        monkeypatch.setattr(modulation, "_period_product", spy_product)
        monkeypatch.setattr(models, "jacobi_params", spy_params)
        code, out, err = run_main(["classify", *argv, "--sector", "all"])
        assert code == 0, err
        assert starts == [0] * products
        labels = ["-", "+"] if argv[1] == "intensity" else ["0-", "0+", "1-", "1+"]
        assert built == [row["sector"] for row in parse_csv(out)] == labels


class TestVerifyDecomp:
    def test_two_photon(self):
        cp = run_cli("verify-decomp", "--model", "two-photon",
                     "--g", "0.7", "--delta", "1.3", "--cutoff", "200")
        assert cp.returncode == 0, cp.stderr
        row = parse_csv(cp.stdout)[0]
        assert float(row["max_deviation"]) <= 1e-12
        assert float(row["max_cross"]) == 0.0


class TestJsonMatchesCsv:
    """Every JSON field is the value the CSV run writes as text: a float by repr, None as ""."""

    @staticmethod
    def text(value):
        return "" if value is None else repr(value) if isinstance(value, float) else str(value)

    @pytest.mark.parametrize("argv", [
        ["params", "--model", "intensity", "--g", "0.25", "--kappa", "1", "--delta", "2", "--n", "0..4"],
        ["params", "--model", "anisotropic", "--g-plus", "0.6", "--g-minus", "0.2", "--n", "7"],
        ["spectrum", "--model", "two-photon", "--g", "0.3", "--sector", "0+", "--cutoff", "40",
         "--window", "-2", "10"],
        ["spectrum", "--model", "rabi-stark", "--g", "0.3", "--kappa", "0.5", "--cutoff", "30"],
        ["verify-decomp", "--model", "two-photon", "--g", "0.7", "--delta", "1.3", "--cutoff", "60"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_fields_equal_the_csv_text(self, argv):
        code, csv_out, err = run_main(argv)
        assert code == 0, err
        code, json_out, err = run_main([*argv, "--format", "json"])
        assert code == 0, err
        payload = json.loads(json_out)
        meta_line, body = csv_out.split("\n", 1)
        assert meta_line == "# " + " ".join(f"{k}={self.text(v)}" for k, v in payload["meta"].items())
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == list(payload["rows"][0])
        assert rows[1:] == [[self.text(v) for v in row.values()] for row in payload["rows"]]


class TestStreamedJson:
    """JSON is written a batch of rows at a time, with the bytes of the payload dumped whole."""

    META = {"command": "params", "text": 'a "quoted"\\ line\n\u00e9', "z": -0.0}
    HEADER = ["model", "sector", "n", "a", "b"]

    @pytest.mark.parametrize("rows", [
        [],
        [["two-photon", "0+", 0, 0.5, None]],
        [["x", "\t\u2603", -1, float("nan"), float("inf")], [None, "", 2**70, -0.0, -float("inf")]],
        [["two-photon", "1-", n, n / 3, -n * 1e300] for n in range(2 * cli._JSON_BATCH + 1)],
        [["two-photon", "1-", n, n / 7, 2.0 * n] for n in range(cli._JSON_BATCH)],
    ], ids=["empty", "one", "special-values", "batches-and-one", "one-batch"])
    def test_bytes_equal_the_whole_payload(self, rows):
        out = io.StringIO()
        cli._write_json(out, self.META, self.HEADER, iter(rows))
        payload = {"meta": self.META, "rows": [dict(zip(self.HEADER, row)) for row in rows]}
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "two-photon", "--g", "0.3", "--cutoff", "10", "--window", "5", "5"],
        ["params", "--model", "two-photon", "--g", "0.3", "--n", "0..600"],
        ["classify", "--model", "two-photon", "--g", "0.5", "--delta", "1"],
    ], ids=["no-rows", "params", "classify"])
    def test_commands_print_the_whole_payload_bytes(self, argv):
        code, out, err = run_main([*argv, "--format", "json"])
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


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

    @pytest.mark.parametrize("kappa, delta, sector, endpoint", [
        ("1e-6", "1e9", "+", "-1e-06"),
        ("4.33e-8", "-5.4e11", "-", "-4.33e-08"),
    ])
    def test_small_endpoint_beside_a_large_delta_is_summed_exactly(self, kappa, delta, sector, endpoint):
        # c0 sums terms of size |delta| / 2 that cancel: the float endpoints
        # read -1.0132789611816406e-06 and 0.0, inside the check's tolerance
        # but more than 1e-9 relative from the closed form
        code, out, err = run_main(["classify", "--model", "intensity", "--g", "0.5", "--kappa", kappa,
                                   f"--delta={delta}", "--sector", sector])
        assert code == 0, err
        assert parse_csv(out)[0]["endpoint"] == endpoint

    def test_edge_windows_sit_at_the_exact_endpoint(self):
        code, out, err = run_main(["edge", "--model", "intensity", "--g", "0.5", "--kappa", "1e-6",
                                   "--delta", "1e9", "--sector", "+", "--cutoffs", "20,40"])
        assert code == 0, err
        meta = dict(field.split("=", 1) for field in out.splitlines()[0][2:].split())
        assert meta["endpoint"] == "-1e-06"

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

    def test_unwritable_out_is_exit_one(self, tmp_path):
        # one error line where a FileNotFoundError traceback ended the run
        out = tmp_path / "missing" / "table.csv"
        code, stdout, err = run_main(["classify", "--model", "two-photon", "--g", "0.5",
                                      "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert err.startswith("rabi-spectra: error: ") and str(out) in err
        assert len(err.splitlines()) == 1
        assert not out.parent.exists()

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    def test_write_error_partway_is_exit_one(self):
        # /dev/full opens, and every write to it fails with ENOSPC
        code, stdout, err = run_main(["params", "--model", "two-photon", "--g", "0.3",
                                      "--n", "0..9999", "--out", "/dev/full"])
        assert (code, stdout) == (1, "")
        assert err.startswith("rabi-spectra: error: ") and len(err.splitlines()) == 1


class TestNonFiniteResults:
    """A number float64 cannot hold exits 1 with one error line and prints nothing."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["classify", "--model", "rabi-stark", "--g", "0.5", "--delta",
                      "0.5000000000000001", "--kappa", "1e154", "--sector", "1-"],
                     "the trace or edge indicator of sector 1- is not finite", id="trace-inf"),
        pytest.param(["classify", "--model", "two-photon", "--g", "5e-324", "--delta", "1e154",
                      "--sector", "0+"],
                     "the trace or edge indicator of sector 0+ is not finite", id="trace-nan"),
        # every sector's product overflows (-inf from T_0 on, nan when it started from the identity)
        pytest.param(["classify", "--model", "rabi-stark", "--delta=0.5", "--g=1e-300",
                      "--kappa=1e+154"],
                     "the trace or edge indicator of sector 0- is not finite", id="trace-overflow"),
        pytest.param(["params", "--model", "two-photon", "--g", "1e300", "--delta", "-1e300",
                      "--sector", "0+", "--n", "9007199254740993"],
                     "a(n) of sector 0+ is not finite", id="a-inf"),
        # sqrt((n + 1)(n + 3)) of a negative at n = -2
        pytest.param(["params", "--model", "intensity", "--g", "0.3", "--delta", "1", "--kappa",
                      "1.5", "--n=-4..12"],
                     "a(n) of sector - is not finite", id="a-nan"),
        # the product at a certified critical point overflows to a nan trace
        pytest.param(["classify", "--model", "rabi-stark", "--kappa", "1", "--g", "5e-324"],
                     "disagrees with the computed trace nan", id="critical-trace-nan"),
        pytest.param(["classify", "--model", "rabi-stark", "--kappa", "1", "--g", "1e-300"],
                     "the edge indicator of rabi-stark sector 0- overflows", id="indicator-inf"),
        pytest.param(["edge", "--model", "rabi-stark", "--kappa", "1", "--g", "1e-300",
                      "--delta", "1"],
                     "the edge indicator of rabi-stark sector 0+ overflows",
                     id="edge-indicator-inf"),
        # s = 2 kappa = inf: the exact re-sum raised an OverflowError traceback
        pytest.param(["classify", "--model", "intensity", "--g", "0.5", "--kappa", "1e308"],
                     "t and s must be positive and finite", id="offset-inf"),
        # the dense matrix's couplings overflowed with a RuntimeWarning before a truncation
        # refused them
        pytest.param(["verify-decomp", "--model", "intensity", "--g", "1e300", "--kappa", "1e154",
                      "--cutoff", "10"],
                     "offdiag entries must be strictly positive and at most sqrt(float max)",
                     id="verify-decomp-coupling-inf"),
        # kappa m overflows in the dense diagonal where the sector entry is finite
        pytest.param(["verify-decomp", "--model", "rabi-stark", "--g", "0.3",
                      "--kappa=-2.9961552247705e+307", "--delta=1e308", "--cutoff", "8"],
                     "a deviation of the dense check is not finite", id="verify-decomp-diagonal-inf"),
    ])
    def test_exits_one_with_one_error_line(self, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_main(argv)
        assert (code, out) == (1, "")
        assert err.startswith("rabi-spectra: error: ") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("rule", ["a", "b"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_params_checks_every_sector_before_a_row(self, monkeypatch, tmp_path, rule, fmt):
        # rows are written as they are formed, so the last sector's check comes first too
        argv = ["params", "--model", "two-photon", "--g", "0.3", "--n", "0..3", "--format", fmt]
        last = sectors(TwoPhoton(g=0.3, delta=0.0))[-1]
        evaluate = getattr(models.JacobiParams, rule)

        def overflowing(params, n):
            values = evaluate(params, n)
            return np.full_like(values, np.inf) if params.label == last else values

        monkeypatch.setattr(models.JacobiParams, rule, overflowing)
        out = tmp_path / "table"
        for given in ([], ["--out", str(out)]):
            code, stdout, err = run_main(argv + given)
            assert (code, stdout) == (1, "")
            assert err == (f"rabi-spectra: error: {rule}(n) of sector {last} is not finite "
                           "in float64 at these parameters\n")
        assert not out.exists()

    def test_huge_stark_coupling_is_off_the_circle(self):
        # kappa^2 + 4 g^2 overflowed in a float ** (OverflowError traceback)
        code, out, err = run_main(["classify", "--model", "rabi-stark", "--g", "1e300",
                                   "--delta=-1e300", "--kappa", "0.49999999999999994"])
        assert code == 0, err
        rows = parse_csv(out)
        assert {(r["kind"], r["clause"]) for r in rows} == {
            ("full-line-ac", "|kappa|<1, kappa^2+4g^2>1")}
        code, out, err = run_main(["edge", "--model", "rabi-stark", "--g", "1e155",
                                   "--kappa", "0.5", "--delta", "0"])
        assert (code, out) == (2, "")
        assert err.startswith("rabi-spectra: regime error: edge accumulation requires")


# option values at the edges of float64, a few plain ones, and the preset
_EDGE_VALUES = ("0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e154", "1e155", "1e300",
                "-1e300", "nan", "inf", "-inf", "0.49999999999999994", "0.5000000000000001",
                "critical", "0.3", "0.5", "1", "-1", "2", "")
# the values argparse reads as floats; "-inf" on its own reads as an option
_FLOAT_VALUES = tuple(v for v in _EDGE_VALUES if v not in ("critical", ""))
_ERROR_LINE = re.compile(r"rabi-spectra: (regime )?error: ")


def _printed_numbers(out: str, fmt: str) -> list[float]:
    """Every number in a classify or params output (meta included)."""
    if fmt == "json":
        payload = json.loads(out)
        cells = [*payload["meta"].values(), *(v for row in payload["rows"] for v in row.values())]
        return [float(v) for v in cells if isinstance(v, (int, float))]
    meta, body = out.split("\n", 1)
    cells = [field.split("=", 1)[1] for field in meta[2:].split(" ")]
    cells += [cell for row in csv.reader(io.StringIO(body)) for cell in row]
    numbers = []
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:
            pass
    return numbers


class TestArgvGrammar:
    """Every subcommand over every model option and edge-of-float64 values."""

    @given(
        command=st.sampled_from(("classify", "params")),
        model=st.sampled_from(tuple(cli._MODELS)),
        values=st.fixed_dictionaries(
            {p: st.none() | st.sampled_from(_EDGE_VALUES) for p in cli._PARAMS}),
        own_only=st.booleans(),
        on_circle=st.booleans(),
        sector=st.sampled_from(("all", "+", "-", "0+", "0-", "1+", "1-")),
        fmt=st.sampled_from(("csv", "json")),
        n=st.sampled_from(("0..5", "-2..2", "9007199254740993", "9223372036854775807")),
    )
    @settings(max_examples=400, deadline=None)
    def test_exit_code_and_output_are_as_documented(self, command, model, values, own_only,
                                                   on_circle, sector, fmt, n):
        argv = [command, "--model", model, f"--sector={sector}", f"--format={fmt}"]
        argv += [f"{cli._flag(p)}={v}" for p, v in values.items()
                 if v is not None and (p in cli._FIELDS[model] or not own_only)]
        argv += ["--on-circle"] * on_circle + [f"--n={n}"] * (command == "params")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_main(argv)
        assert code in (0, 1, 2)
        if code:
            assert out == ""
            assert len(err.splitlines()) == 1 and _ERROR_LINE.match(err), err
        else:
            assert err == ""
            assert all(map(math.isfinite, _printed_numbers(out, fmt)))

    @given(
        command=st.sampled_from(("spectrum", "collapse", "edge", "verify-decomp")),
        model=st.sampled_from(tuple(cli._MODELS)),
        values=st.fixed_dictionaries(
            {p: st.none() | st.sampled_from(_EDGE_VALUES) for p in cli._PARAMS}),
        own_only=st.booleans(),
        on_circle=st.booleans(),
        sector=st.sampled_from(("default", "all", "+", "-", "0+", "0-", "1+", "1-")),
        fmt=st.sampled_from(("csv", "json")),
        cutoff=st.sampled_from((1, 2, 3, 10, 40)),
        # argparse reads --window, --tol and --window-width as floats: other
        # text is its usage error, not the program's
        window=st.none() | st.lists(st.sampled_from(tuple(v for v in _FLOAT_VALUES if v != "-inf")),
                                    min_size=2, max_size=2),
        tol=st.none() | st.sampled_from(_FLOAT_VALUES),
        grid=st.lists(st.sampled_from(_EDGE_VALUES), min_size=1, max_size=3),
        k=st.sampled_from((1, 2, 5, 40)),
        cutoffs=st.sampled_from(("2,3", "10,40", "40", "3,2", "1")),
        width=st.none() | st.sampled_from(_FLOAT_VALUES),
    )
    @settings(max_examples=400, deadline=None)
    def test_solver_commands_exit_and_print_as_documented(
            self, command, model, values, own_only, on_circle, sector, fmt, cutoff, window, tol,
            grid, k, cutoffs, width):
        # the classify/params rules, with cutoffs <= 40; collapse may warn on exit 0;
        # verify-decomp checks every sector and takes no --sector
        argv = [command, "--model", model, f"--format={fmt}"]
        argv += [f"--sector={sector}"] * (command != "verify-decomp")
        argv += [f"{cli._flag(p)}={v}" for p, v in values.items()
                 if v is not None and (p in cli._FIELDS[model] or not own_only)]
        argv += ["--on-circle"] * on_circle
        if command in ("spectrum", "collapse", "verify-decomp"):
            argv.append(f"--cutoff={cutoff}")
        if command == "spectrum":
            argv += ["--window", *window] if window else []
            argv += [f"--tol={tol}"] if tol else []
        elif command == "collapse":
            argv += [f"--grid={','.join(grid)}", f"--lowest={k}"]
        elif command == "edge":
            argv += [f"--cutoffs={cutoffs}"] + ([f"--window-width={width}"] if width else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_main(argv)
        assert code in (0, 1, 2)
        if code:
            assert out == ""
            assert len(err.splitlines()) == 1 and _ERROR_LINE.match(err), err
        else:
            warned = [line for line in err.splitlines() if not line.startswith("warning: coupling ")]
            assert warned == [] and (command == "collapse" or err == "")
            assert all(map(math.isfinite, _printed_numbers(out, fmt)))


def _full_tree_main(argv):
    """``cli.main`` parsing through the whole tree: ``parse_args``, then main's output and errors.

    The top-level parser reads every argv, in place of main's subcommand
    parse; a help or usage error exits from it as from ``parse_args``.
    """
    with mock.patch.object(cli, "_read", lambda command, tokens: cli._build_parser().parse_args(argv)):
        return run_main(argv)


_COMMANDS = ("classify", "params", "spectrum", "collapse", "edge", "verify-decomp")
# tokens that no subcommand takes where they are put, or that argparse reads specially
_STRAYS = ("stray", "--bogus", "--", "-x", "--mod", "--he", "-1e-05", "-h", "--delta", "--sector")


@st.composite
def _grammar_argv(draw):
    """An argv of any subcommand from ``TestArgvGrammar``'s pools, options in any order.

    Values are all their own tokens, all joined by '=', or either; a model
    parameter may be given twice.
    """
    command = draw(st.sampled_from(_COMMANDS))
    model = draw(st.sampled_from(tuple(cli._MODELS)))
    joining = draw(st.sampled_from(("own", "joined", "mixed")))

    def option(flag, value):
        joined = joining == "joined" or joining == "mixed" and draw(st.booleans())
        return [f"{flag}={value}"] if joined else [flag, value]

    groups = [["--model", model], option("--format", draw(st.sampled_from(("csv", "json"))))]
    if command != "verify-decomp":
        groups.append(option("--sector",
                             draw(st.sampled_from(("default", "all", "+", "-", "0-", "1+")))))
    for param in cli._PARAMS:
        for value in draw(st.lists(st.sampled_from(_EDGE_VALUES), max_size=2)):
            groups.append(option(cli._flag(param), value))
    groups += [["--on-circle"]] * draw(st.booleans())
    if command == "params":
        groups.append(option("--n", draw(st.sampled_from(("0..5", "-2..2", "9007199254740993")))))
    if command in ("spectrum", "collapse", "verify-decomp"):
        # "1e3" is no int: argparse's usage error
        groups.append(option("--cutoff", draw(st.sampled_from(("1", "3", "40", "1e3")))))
    if command == "spectrum":
        if draw(st.booleans()):
            window = [v for v in _FLOAT_VALUES if v != "-inf"]
            # one value short is argparse's usage error
            groups.append(["--window", *draw(st.lists(st.sampled_from(window), min_size=1, max_size=2))])
        if draw(st.booleans()):
            groups.append(option("--tol", draw(st.sampled_from(_FLOAT_VALUES))))
    if command == "collapse":
        grid = draw(st.lists(st.sampled_from(_EDGE_VALUES), min_size=1, max_size=3))
        groups += [option("--grid", ",".join(grid)), ["-k", draw(st.sampled_from(("1", "5")))]]
    if command == "edge":
        groups.append(option("--cutoffs", draw(st.sampled_from(("2,3", "40", "1")))))
        if draw(st.booleans()):
            groups.append(option("--window-width", draw(st.sampled_from(_FLOAT_VALUES))))
    groups = draw(st.permutations(groups))
    groups += [[stray] for stray in draw(st.lists(st.sampled_from(_STRAYS), max_size=2))]
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


def _same_namespace(a, b):
    """Namespaces with the same attributes in the same order and equal values, NaN equal to NaN."""
    a, b = vars(a), vars(b)
    return list(a) == list(b) and all(
        type(a[k]) is type(b[k]) and (a[k] == b[k] or a[k] != a[k] and b[k] != b[k]) for k in a)


def _readme_examples():
    """The README's CLI examples, as argv lists without the program name."""
    text = (Path(__file__).parent.parent / "README.md").read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1).replace("\\\n", " ")
    return [line.split()[1:] for line in block.splitlines() if line.startswith("rabi-spectra ")]


class TestDispatch:
    """``cli.main`` parses a subcommand's argv with that subcommand's parser only.

    Each call must give the bytes of a parse through the whole tree, so the
    top-level parser's wording (usage line, error prefix) is pinned on every
    Python that runs the suite.  A well-formed argv is read from the
    subcommand's action table (``cli._read``) and must give the namespace
    argparse gives; every other argv is argparse's.
    """

    @given(argv=_grammar_argv())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_the_full_tree(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run_main(argv) == _full_tree_main(argv)

    @given(argv=_grammar_argv())
    @settings(max_examples=500, deadline=None)
    def test_reader_takes_only_what_argparse_reads_alike(self, argv):
        command = cli._build_parser().commands[argv[0]]
        read = cli._read(command, argv[1:])
        if read is not None:
            args, extras = command.parse_known_args(argv[1:])
            assert extras == [] and _same_namespace(read, args), (vars(read), vars(args))

    CLASSIFY = ["classify", "--model", "two-photon", "--g", "0.3"]

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"],
        ["classify", "-h"], ["edge", "--help"],
        ["nope"], ["-x"], ["--model", "x", "classify"],
        CLASSIFY + ["stray"],
        ["params", "--bogus", "--model", "two-photon", "--g", "0.3"],
        ["verify-decomp", "--model", "two-photon", "--g", "0.7", "--cutoff", "5", "a", "b"],
        ["classify", "--", "x"],
        ["spectrum", "--model", "two-photon", "--g", "0.3", "--cutoff", "10",
         "--window", "-1", "2", "--", "q"],
        ["classify", "--mod", "two-photon", "--g", "0.3"], ["classify", "--he"],
        CLASSIFY + ["--delta", "-1e-05"],
        ["classify"],
    ])
    def test_malformed_and_help_argv(self, argv):
        assert run_main(argv) == _full_tree_main(argv)

    # a store_true option, and an option given twice, which keeps its last value
    @pytest.mark.parametrize("argv, given", [
        (["params", "--model", "two-photon", "--g", "0.3", "--n", "2"], {"n": "2"}),
        (["params", "--model", "rabi-stark", "--on-circle", "--kappa", "0.6", "--n", "0..3",
          "--n", "2"], {"on_circle": True, "n": "2"}),
    ])
    def test_commands_get_the_full_tree_namespace(self, argv, given):
        seen = []
        params = cli._build_parser().commands["params"]
        assert cli._read(params, argv[1:]) is not None
        params.set_defaults(fn=lambda args: seen.append(vars(args)) or ({}, [], []))
        try:
            assert run_main(argv)[0] == _full_tree_main(argv)[0] == 0
        finally:
            params.set_defaults(fn=cli.cmd_params)
        assert seen[0] == seen[1] and seen[0]["command"] == "params"
        assert {k: seen[0][k] for k in given} == given

    def test_reader_defers_an_unseen_string_default(self):
        # argparse converts it by its type; given, the option's value is read
        parser = cli._Parser(prog="t")
        parser.add_argument("--x", type=int, default="5")
        parser.add_argument("--y", type=int)
        assert cli._read(parser, ["--y", "1"]) is None
        assert vars(parser.parse_known_args(["--y", "1"])[0]) == {"x": 5, "y": 1}
        argv = ["--x", "2", "--y", "1"]
        assert vars(cli._read(parser, argv)) == vars(parser.parse_known_args(argv)[0]) == {
            "x": 2, "y": 1}
        # so no call of this tool is deferred for it
        assert not [action for command in cli._build_parser().commands.values()
                    for action in command._actions
                    if isinstance(action.default, str) and action.type is not None]

    SPECTRUM = ["spectrum", "--model", "two-photon", "--g", "0.3", "--sector", "0+", "--cutoff", "10"]

    @pytest.mark.parametrize("argv", [
        CLASSIFY + ["--delta=-1e-05"],
        ["classify", "--mod", "two-photon", "--g", "0.3"],
        ["collapse", "--model", "two-photon", "--grid", "0.3,0.31", "--cutoff", "40", "-k5"],
        ["classify", "-h"],
        SPECTRUM + ["--window", "-1", "2"],
        SPECTRUM + ["--window", "2", "--tol", "1e-9"],
        SPECTRUM[:-1] + ["1e3"],
        CLASSIFY + ["stray"],
        CLASSIFY + ["--format", "xml"],
        CLASSIFY + ["--delta"],
    ])
    def test_argparse_reads_what_the_reader_defers(self, monkeypatch, argv):
        calls = self.spy_on_commands(monkeypatch)
        assert run_main(argv)[0] in (0, 1)
        assert calls == [argv[1:]]

    def test_reader_takes_the_readme_examples(self, monkeypatch):
        # all but spectrum's, whose --window takes two values
        calls = self.spy_on_commands(monkeypatch)
        examples = _readme_examples()
        assert len(examples) == 8
        for argv in examples + [self.CLASSIFY + ["--delta", "-1e-05"]]:
            assert run_main(argv)[0] == 0, argv
        assert calls == [argv[1:] for argv in examples if argv[0] == "spectrum"]

    def test_reader_takes_a_lone_dash(self, monkeypatch):
        # the intensity model's sector '-', which argparse reads as a value too
        argv = ["params", "--model", "intensity", "--g", "0.3", "--kappa", "1", "--sector", "-",
                "--n", "0..2"]
        command = cli._build_parser().commands["params"]
        read = cli._read(command, argv[1:])
        assert read is not None and _same_namespace(read, command.parse_known_args(argv[1:])[0])
        calls = self.spy_on_commands(monkeypatch)
        assert run_main(argv)[0] == 0
        assert calls == []

    @staticmethod
    def spy_on_commands(monkeypatch):
        """Record the argv of every subcommand parser's ``parse_known_args``."""
        calls = []

        def spying(command):
            def spy(args=None, namespace=None):
                calls.append(args)
                return argparse.ArgumentParser.parse_known_args(command, args, namespace)
            return spy

        for command in cli._build_parser().commands.values():
            monkeypatch.setattr(command, "parse_known_args", spying(command))
        return calls

    def test_top_level_parser_only_for_help_and_usage_errors(self, monkeypatch):
        parser = cli._build_parser()
        calls = []

        def spy(argv):
            calls.append(argv)
            return argparse.ArgumentParser.parse_args(parser, argv)

        monkeypatch.setattr(parser, "parse_args", spy)
        assert run_main(self.CLASSIFY)[0] == 0
        assert run_main(self.CLASSIFY + ["stray"])[0] == 1
        assert calls == []
        assert run_main(["--help"])[0] == 0
        assert run_main(["nope"])[0] == 1
        assert calls == [["--help"], ["nope"]]


class TestEveryOptionIsRead:
    """Each option a subcommand's parser defines is read, by its command or by main's output."""

    CALLS = (
        ["classify", "--model", "two-photon", "--g", "0.3"],
        ["params", "--model", "two-photon", "--g", "0.3", "--n", "0..2"],
        ["spectrum", "--model", "two-photon", "--g", "0.3", "--sector", "0+", "--cutoff", "10"],
        ["collapse", "--model", "two-photon", "--grid", "0.3,0.31", "--cutoff", "40", "-k", "3"],
        ["edge", "--model", "two-photon", "--g", "critical", "--cutoffs", "20,40"],
        ["verify-decomp", "--model", "two-photon", "--g", "0.7", "--cutoff", "20"],
    )

    def test_one_call_per_command_reads_every_option(self):
        assert [argv[0] for argv in self.CALLS] == list(cli._build_parser().commands)
        for argv in self.CALLS:
            read = set()

            class Spy(argparse.Namespace):
                def __getattribute__(self, name):
                    read.add(name)
                    return super().__getattribute__(name)

            args = cli._build_parser().commands[argv[0]].parse_args(argv[1:], namespace=Spy())
            read.clear()  # argparse reads the namespace while it fills it
            # main runs the command on this namespace and writes its rows
            with mock.patch.object(cli, "_read", lambda command, tokens: args):
                assert run_main(argv)[0] == 0, argv
            assert set(vars(args)) - {"fn"} - read == set(), argv


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

    @pytest.mark.parametrize("argv, option, value, joined", [
        (["params", "--model", "two-photon", "--g", "0.3"], "--n", "-2..2", (0, "")),
        # read joined, the grid's first coupling is then refused as a g
        (["collapse", "--model", "two-photon", "--cutoff", "40", "-k", "3"], "--grid", "-0.3,0.3",
         (1, "rabi-spectra: error: g must be a positive finite number, got -0.3\n")),
    ])
    def test_value_starting_with_a_dash_is_read_joined_by_equals(self, argv, option, value, joined):
        # as its own token, a value that starts with '-' and is not one number reads as an option
        code, out, err = run_main([*argv, option, value])
        assert (code, out) == (1, "")
        assert err.endswith(f"rabi-spectra {argv[0]}: error: argument {option}: expected one argument\n")
        code, out, err = run_main([*argv, f"{option}={value}"])
        assert (code, err) == joined
        if code == 0:
            assert [row["n"] for row in parse_csv(out)] == [str(n) for n in range(-2, 3)] * 4

    @pytest.mark.parametrize("argv, option", [
        (["classify", "--model", "two-photon", "--g", "0.3", "--kappa", "5",
          "--g-plus", "9"], "--kappa"),
        (["classify", "--model", "anisotropic", "--g", "0.9",
          "--g-plus", "0.8", "--g-minus", "0.2"], "--g"),
        (["collapse", "--model", "two-photon", "--g", "0.9", "--on-circle",
          "--grid", "0.3,0.4"], "--g"),
        (["collapse", "--model", "rabi-stark", "--kappa", "0.5", "--on-circle",
          "--grid", "0.3,0.4"], "--on-circle"),
        # an empty --g is given too
        (["collapse", "--model", "two-photon", "--g", "", "--grid", "0.3,0.31", "--cutoff", "40",
          "-k", "3"], "drop --g"),
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


# run by a child interpreter: the CLI as its own child, then that child's peak RSS on stderr
_PEAK_RSS = """
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


class TestSizeLimitMemory:
    """Solves at the documented size limits stay within a fixed peak RSS.

    Each runs in a child process and is measured from a wrapper process, so
    no other process of the test run counts.  Before the solve stack's
    row-dominance thresholds the collapse (2 x 500,000 rows) peaked at
    141 MB and the spectrum (10^6 rows) at 100 MB; they now take about 81
    and 70 MB (x86-64 Linux, numpy 2.4).  The edge ladder to 10^6 rows takes
    about 77 MB and verify-decomp's dense 4000 x 4000 matrix about 282 MB.
    params over 4 sectors x 2 x 10^5 indices took 283 MB while its CSV text
    was built whole; written row by row it takes about 60 MB.  As JSON it
    took 1,157 MB formed whole; written a batch of rows at a time, about 57 MB.
    """

    # bounds about 20-30 MB over today's peaks (collapse and spectrum: below their earlier ones)
    @pytest.mark.parametrize("argv, last_row, mb", [
        (["collapse", "--model", "two-photon", "--delta", "1", "--grid", "0.3,0.4",
          "--cutoff", "500000", "-k", "15"], "0.4,1.182342006662102,0.911600897215919", 120),
        (["spectrum", "--model", "two-photon", "--g", "0.3", "--sector", "0+",
          "--cutoff", "1000000", "--window", "-2", "10"], "two-photon,0+,6,9.499999046325684", 90),
        (["edge", "--model", "two-photon", "--g", "critical", "--delta", "1",
          "--cutoffs", "500000,1000000"], "1000000,1424,0", 100),
        (["verify-decomp", "--model", "two-photon", "--g", "0.7", "--delta", "1.3",
          "--cutoff", "2000"], "2000,0.0,0.0,0.0,0.0", 305),
        (["params", "--model", "two-photon", "--g", "0.3", "--sector", "all",
          "--n", "0..199999"], "two-photon,1+,199999,120000.14999990624,399999.0", 90),
        (["params", "--model", "two-photon", "--g", "0.3", "--sector", "all",
          "--n", "0..199999", "--format", "json"],
         '      "a": 120000.14999990624,\n      "b": 399999.0\n    }\n  ]\n}', 90),
    ], ids=["collapse", "spectrum", "edge", "verify-decomp", "params", "params-json"])
    def test_peak_rss(self, argv, last_row, mb):
        run = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "rabi_spectra",
                              *argv], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        tail = last_row.split("\n")
        assert run.stdout.splitlines()[-len(tail):] == tail
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        peak = int(run.stderr.splitlines()[-1]) * (1 if sys.platform == "darwin" else 1024)
        assert peak <= mb * 2**20


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
