"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from anchormosaic import cli, experiments, sampler


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_reproduces_1d_table_row(self, capsys):
        code, out, _ = run(capsys, "constants", "--k", "1", "--n", "2..9")
        assert code == cli.EXIT_OK
        table = json.loads(out)["table"]
        published = {
            "2": (1.00, 0.27, 1.27), "3": (1.09, 0.36, 1.46), "4": (1.16, 0.42, 1.58),
            "5": (1.22, 0.45, 1.67), "6": (1.26, 0.48, 1.74), "7": (1.29, 0.50, 1.79),
            "8": (1.32, 0.51, 1.84), "9": (1.35, 0.53, 1.87),
        }
        for n, (c00, c01, d0) in published.items():
            assert round(table[n]["C[0,0]"], 2) == pytest.approx(c00)
            assert round(table[n]["C[0,1]"], 2) == pytest.approx(c01)
            assert round(table[n]["D[0]"], 2) == pytest.approx(d0)

    def test_2d_table_row(self, capsys):
        code, out, _ = run(capsys, "constants", "--k", "2", "--n", "3")
        table = json.loads(out)["table"]["3"]
        assert table["C[1,1]"] == pytest.approx(2.47, abs=0.005)
        assert table["D[2]"] == pytest.approx(2.92, abs=0.005)

    def test_zero_threshold_column(self, capsys):
        code, out, _ = run(capsys, "constants", "--k", "2", "--n", "3", "--r0", "0")
        table = json.loads(out)["table"]["3"]
        for key, value in table.items():
            if key.startswith("E["):
                assert value == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "constants", "--k", "1", "--n", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "type,ell,m,n,constant,expected"
        assert len(lines) == 6  # three interval types, two simplex dimensions
        assert all(line.split(",")[5] == "" for line in lines[1:])  # no --r0
        # every value of the JSON table is a CSV cell
        flags = ("constants", "--k", "2", "--n", "3..4", "--r0", "0.5")
        _, text, _ = run(capsys, *flags)
        table = json.loads(text)["table"]
        _, out, _ = run(capsys, *flags, "--format", "csv")
        from_csv = {}
        for line in out.strip().splitlines()[1:]:
            kind, ell, m, n, constant, expected = line.split(",")
            if kind == "interval":
                keys = (f"C[{ell},{m}]", f"E[c({ell},{m})](r0)")
            else:
                assert kind == "simplex" and ell == m
                keys = (f"D[{m}]", f"E[d({m})](r0)")
            entry = from_csv.setdefault(n, {})
            entry[keys[0]], entry[keys[1]] = float(constant), float(expected)
        assert from_csv == table


class TestSimulateCommand:
    def test_runs_and_reports(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "simulate", "--n", "2", "--k", "1", "--rho", "1",
            "--window", "60", "--reps", "2", "--seed", "7", "--out", str(out_path),
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["config"]["seed"] == 7
        assert len(payload["intervals"]) == 3
        assert len(payload["simplices"]) == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                capsys, "simulate", "--n", "2", "--k", "1", "--window", "40",
                "--reps", "2", "--seed", "5", "--out", str(path),
            )
            assert code == cli.EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "2", "--k", "1", "--window", "10",
            "--reps", "1", "--seed", str(2**64 - 1),
        )
        assert code == cli.EXIT_OK
        assert json.loads(out)["config"]["seed"] == 2**64 - 1

    def test_dimensions_without_constants_fail_before_sampling(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampled although n <= k has no constants")

        monkeypatch.setattr(sampler, "_sample_poisson_box", never)
        code, out, err = run(
            capsys, "simulate", "--n", "2", "--k", "2", "--window", "2500", "--reps", "40"
        )
        assert code == cli.EXIT_NUMERICAL
        assert out == ""
        assert "numerical error: ambient dimension must exceed k" in err

    def test_csv_schema(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "2", "--k", "1", "--window", "40",
            "--reps", "2", "--seed", "3", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "type,ell,m,count,rate,se,predicted,z"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"interval", "simplex"}

    def test_golden_report_schema(self, capsys):
        # versioned key sets pinned so downstream consumers can rely on them
        code, out, _ = run(
            capsys, "simulate", "--n", "2", "--k", "1", "--window", "40",
            "--reps", "2", "--seed", "3",
        )
        payload = json.loads(out)
        assert sorted(payload) == ["config", "intervals", "kind", "schema_version", "simplices"]
        assert payload["schema_version"] == 1
        assert sorted(payload["config"]) == [
            "buffer", "k", "n", "r0", "replicates", "rho", "seed", "window",
        ]
        for entry in payload["intervals"] + payload["simplices"]:
            assert sorted(entry) == [
                "count_mean", "ell", "m", "predicted", "rate", "se", "z",
            ]


class TestVerifyCommand:
    def test_angle(self, capsys):
        code, out, _ = run(capsys, "verify", "angle", "--n", "3")
        assert code == cli.EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_gamma_lemma(self, capsys):
        code, out, _ = run(capsys, "verify", "gamma-lemma", "--seed", "1")
        assert code == cli.EXIT_OK

    def test_gamma_lemma_runs_the_draws_asked_for(self, capsys):
        code, out, _ = run(capsys, "verify", "gamma-lemma", "--samples", "10000")
        assert code == cli.EXIT_OK
        assert json.loads(out)["draws"] == 10000

    def test_beta_law(self, capsys):
        code, out, _ = run(
            capsys, "verify", "beta-law", "--n", "4", "--k", "2", "--samples", "8000"
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["p_half_dims"] > 0.01

    def test_beta_law_default_plane_is_numerical_error(self, capsys):
        # the default n = 2 cannot tell the law from its alternative
        code, out, err = run(capsys, "verify", "beta-law")
        assert code == cli.EXIT_NUMERICAL
        assert out == ""
        assert "Beta(1/2, 1/2)" in err

    def test_bp_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "bp", "--n", "2", "--k", "1", "--m", "1",
            "--samples", "2e5", "--seed", "0",
        )
        payload = json.loads(out)
        assert payload["analytic"] == pytest.approx(9.8696044, rel=1e-6)
        assert code in (cli.EXIT_OK, cli.EXIT_STATISTICAL)

    def test_bp_reports_weight_health(self, capsys):
        _, out, _ = run(
            capsys, "verify", "bp", "--n", "3", "--k", "2", "--m", "1",
            "--samples", "3e4", "--seed", "1",
        )
        payload = json.loads(out)
        assert payload["right_nonfinite"] == 0
        assert 0.0 < payload["right_ess"] < payload["samples"]
        assert 0.0 < payload["right_max_share"] <= 1.0


class TestVerifyDocument:
    @pytest.mark.parametrize(
        "kind,check,extra",
        [
            ("bp", experiments.BPCheck, ("--n", "2", "--k", "1", "--samples", "2000")),
            ("angle", experiments.AngleIntegralCheck, ("--n", "3")),
            ("gamma-lemma", experiments.GammaLemmaCheck, ("--samples", "5")),
            ("beta-law", experiments.BetaLawCheck, ("--n", "4", "--k", "2", "--samples", "2000")),
        ],
    )
    def test_keys_are_the_check_fields(self, capsys, kind, check, extra):
        code, out, _ = run(capsys, "verify", kind, *extra)
        payload = json.loads(out)
        fields = {f.name for f in dataclasses.fields(check)}
        assert set(payload) == fields | {"kind", "schema_version", "passed"}
        assert payload["kind"] == f"verify-{kind}"
        assert payload["passed"] is (code == cli.EXIT_OK)

    def test_bp_names_its_test_function(self, capsys):
        _, out, _ = run(
            capsys, "verify", "bp", "--n", "2", "--k", "1", "--m", "1",
            "--test-function", "bump", "--samples", "2000",
        )
        assert json.loads(out)["test_function"] == "bump"


class TestErrorPaths:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "constants", "--k", "5", "--n", "3")
        assert code == cli.EXIT_USAGE
        assert "usage error" in err

    def test_missing_command(self, capsys):
        assert run(capsys)[0] == cli.EXIT_USAGE

    def test_numerical_error(self, capsys):
        # n <= k has no constants
        code, _, err = run(capsys, "constants", "--k", "2", "--n", "2")
        assert code == cli.EXIT_NUMERICAL
        assert "numerical error" in err

    def test_zero_dimension_is_refused_before_use(self, capsys):
        # n = 0 is refused by the constants, not by a division by n
        code, out, err = run(capsys, "constants", "--k", "2", "--n", "0..3")
        assert code == cli.EXIT_NUMERICAL
        assert out == ""
        assert err == "numerical error: ambient dimension must exceed k, got n=0, k=2\n"

    @pytest.mark.parametrize("text", ["x", "2..", "5..3"])
    def test_bad_dimension_range_is_usage_error(self, capsys, text):
        # unparsable text and an empty range; n <= k stays a numerical error
        code, out, err = run(capsys, "constants", "--k", "1", "--n", text)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "kind,extra", [("bp", ()), ("gamma-lemma", ()), ("beta-law", ("--n", "4", "--k", "2"))]
    )
    @pytest.mark.parametrize("samples", ["0", "-5", "2.5"])
    def test_bad_sample_count_is_usage_error(self, capsys, kind, extra, samples):
        code, out, err = run(capsys, "verify", kind, *extra, "--samples", samples)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "flag,value", [("--reps", "0"), ("--reps", "2.5"), ("--window", "-5"), ("--window", "nan")]
    )
    def test_bad_simulate_count_or_window_is_usage_error(self, capsys, flag, value):
        argv = {"--n": "2", "--k": "1", "--window": "100", "--reps": "2", flag: value}
        code, out, err = run(capsys, "simulate", *[t for item in argv.items() for t in item])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--k", "1", "--n", "2", "--rho", "0"),
            ("constants", "--k", "1", "--n", "2", "--rho", "-1"),
            ("constants", "--k", "1", "--n", "2", "--rho", "inf"),
            ("constants", "--k", "1", "--n", "2", "--rho", "nan"),
            ("constants", "--k", "1", "--n", "2", "--r0", "-1"),
            ("constants", "--k", "1", "--n", "2", "--r0", "nan"),
            ("simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1", "--rho", "0"),
            ("simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1", "--buffer", "-1"),
            ("simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1", "--buffer", "nan"),
            ("simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1", "--r0", "-1"),
            ("simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1", "--r0", "nan"),
            ("simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1", "--r0", "x"),
        ],
    )
    def test_out_of_range_density_buffer_or_threshold_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "usage error" in err

    def test_infinite_threshold_is_accepted(self, capsys):
        # r0 = inf is the default threshold: every radius counts
        code, out, _ = run(capsys, "constants", "--k", "1", "--n", "2", "--r0", "inf")
        assert code == cli.EXIT_OK

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["r0"] is None
        table = doc["table"]["2"]
        assert table["E[c(0,0)](r0)"] == pytest.approx(table["C[0,0]"], rel=1e-12)

    def test_zero_buffer_with_n_above_k_is_numerical_error(self, capsys):
        # a valid buffer on its own; SamplingConfig needs a positive one when n > k
        code, out, err = run(
            capsys, "simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1",
            "--buffer", "0",
        )
        assert code == cli.EXIT_NUMERICAL
        assert out == ""
        assert "a positive buffer is required" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1"),
            ("verify", "gamma-lemma", "--samples", "1"),
            ("verify", "beta-law", "--n", "4", "--k", "2", "--samples", "100"),
        ],
    )
    @pytest.mark.parametrize("seed", ["-1", "-3", str(2**64), str(2**128), "1.5", "abc"])
    def test_seed_outside_the_key_range_is_usage_error(self, capsys, argv, seed):
        # a seed is a whole number in [0, 2^64), the generators' key range
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "usage error" in err
