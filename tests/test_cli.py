"""Tests for the command-line interface."""

import dataclasses
import hashlib
import json
import math

import pytest

from anchormosaic import cli, constants, experiments, sampler, specfun


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

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
    def test_expected_column_is_the_census_prediction(self, capsys, n, k):
        # one prediction path: at a unit window the census predicts, bit for
        # bit, the table's expectation column
        dims = ("--n", str(n), "--k", str(k), "--r0", "0.5")
        _, text, _ = run(capsys, "constants", *dims)
        table = json.loads(text)["table"][str(n)]
        _, text, _ = run(capsys, "simulate", *dims, "--window", "1", "--reps", "1")
        report = json.loads(text)
        predicted = {f"E[c({r['ell']},{r['m']})](r0)": r["predicted"] for r in report["intervals"]}
        predicted |= {f"E[d({r['m']})](r0)": r["predicted"] for r in report["simplices"]}
        expected = {key: value.hex() for key, value in table.items() if key.startswith("E[")}
        assert {key: value.hex() for key, value in predicted.items()} == expected


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


class TestDocumentBytes:
    # sha256 of stdout for the standard documents; a change that moves any
    # byte of them moves the pin. --r0 documents are left out: their
    # predicted column carries the last bits of scipy's gammainc. The
    # simulate pins carry the last bits of scipy's gammaincinv all the same:
    # their default buffer (sampler.choose_buffer) is printed as
    # config.buffer and sets the box that every point is drawn uniformly in.
    DIGESTS = {
        ("simulate --n 2 --k 1 --window 1000 --reps 20 --seed 2025", "json"):
            "2f2a6ad54717858e63f7be1cc94e4eb0ddf03108aa8d1c6c090160af686fc8ff",
        ("simulate --n 2 --k 1 --window 1000 --reps 20 --seed 2025", "csv"):
            "e85b0da2ba3a9133f2bf0bebb8bd1d8972eea02cc1c805cab3a43974bad0b135",
        ("simulate --n 3 --k 2 --window 400 --reps 20 --seed 2025", "json"):
            "7487b20fee03d3ce1a5cb72d39c87001bd1bfdb1dc1916feb557be6d4c57cffa",
        ("simulate --n 3 --k 2 --window 400 --reps 20 --seed 2025", "csv"):
            "31651351107d3ce80b215785d052b90c3d2e6aa8b334c1d884627036132daa20",
        ("constants --k 1 --n 2..12", "json"):
            "89b13753df339c51e48ffa5c6c44aa373a25fe6fd59d82c0e0a283cd2e8e213d",
        ("constants --k 1 --n 2..12", "csv"):
            "b0e75f7944ed4d1b9338e23f9ea66592921dbb758f5288eed4beba0b10393a82",
        ("constants --k 2 --n 3..12", "json"):
            "7706a0c87258d357bc0b7e839d8f2b7308e6ba50aded297f391c6c450ee53fbd",
        ("constants --k 2 --n 3..12", "csv"):
            "a3ab4e5c4019346ad254f2f13dafe8e7e6f6d55eebc3aa5e150b833480d3538e",
    }

    @pytest.mark.parametrize("command,fmt", list(DIGESTS))
    def test_stdout_is_pinned(self, capsys, command, fmt):
        code, out, _ = run(capsys, *command.split(), "--format", fmt)
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[command, fmt]


class TestErrorPaths:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "constants", "--k", "5", "--n", "3")
        assert code == cli.EXIT_USAGE
        assert "usage error" in err

    def test_missing_command(self, capsys):
        assert run(capsys)[0] == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--k", "1", "--n", "2"),
            ("simulate", "--n", "2", "--k", "1", "--window", "10", "--reps", "1"),
            ("simulate", "--n", "3", "--k", "2", "--window", "400", "--reps", "5"),
            ("verify", "bp", "--samples", "400000"),
        ],
    )
    def test_unwritable_out_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # refused before any replicate is sampled or any bp chunk is weighed
        def never(*args, **kwargs):
            raise AssertionError("worked although --out cannot be opened")

        monkeypatch.setattr(sampler, "_sample_poisson_box", never)
        monkeypatch.setattr(experiments, "_bp_chunk", never)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.json"))
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error") and "Traceback" not in err

    def test_out_is_left_empty_by_a_numerical_error(self, capsys, tmp_path):
        # --out is opened, like a shell redirection, before the command fails
        path = tmp_path / "x.json"
        path.write_text("old report", encoding="utf-8")
        code, out, _ = run(capsys, "constants", "--k", "2", "--n", "2", "--out", str(path))
        assert code == cli.EXIT_NUMERICAL
        assert out == ""
        assert path.read_text(encoding="utf-8") == ""

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

    @pytest.mark.parametrize("k,n,r0", [("1", "453", "inf"), ("2", "700", "3")])
    def test_threshold_past_the_ball_volume_underflow(self, capsys, k, n, r0):
        # nu_n underflows to 0 from n = 453; the expectations stay finite
        code, out, _ = run(capsys, "constants", "--k", k, "--n", n, "--r0", r0)
        assert code == cli.EXIT_OK

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        table = json.loads(out, parse_constant=reject)["table"][n]
        assert all(math.isfinite(value) for value in table.values())

    @pytest.mark.parametrize(
        "target,value,message",
        [
            ("_HYP3F2_MAX_TERMS", 3, "3F2 series hit the 3-term cap"),
            ("hyp3f2", lambda *args: 0.0, "3F2 sum must be positive, got 0.0"),
            ("angle_bracket", lambda n: 0.0, "angle-integral bracket must be positive, got 0.0"),
        ],
    )
    def test_refused_constant_is_numerical_error(self, capsys, monkeypatch, target, value, message):
        # the typed refusals of the constants layer, each forced at n = 5
        module = constants if target == "angle_bracket" else specfun
        monkeypatch.setattr(module, target, value)
        # a refusal is never cached, so only the values cached before need to go
        constants.vertex_edge_pair_constant.cache_clear()
        constants._pair_constant_1d.cache_clear()
        k = "1" if target == "angle_bracket" else "2"
        code, out, err = run(capsys, "constants", "--k", k, "--n", "5")
        assert code == cli.EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical error: " + message)

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
