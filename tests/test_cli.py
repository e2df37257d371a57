import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from ptomech import analytic
from ptomech.cli import EXIT_DISCREPANCY, EXIT_INVALID, EXIT_OK, EXIT_UNSTABLE, RunConfig, main
from ptomech.presets import PRESETS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    footer = {
        kv[0]: kv[1]
        for ln in text.strip().splitlines()
        if ln.startswith("# ")
        for kv in [ln[2:].split("=", 1)]
    }
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows, footer


class TestClassifyCommand:
    def test_region4_record(self, capsys):
        code, out, _ = run(capsys, "classify", "--gamma", "0.6", "--G", "1.2")
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["region_id"] == "4"
        assert record["pt"] == "PTSymmetric"
        assert record["stability"] == "AsymptoticallyStable"
        assert float(record["max_re_lambda"]) == pytest.approx(-0.2, abs=1e-12)
        # Identical supermode linewidths in the PT regime.
        assert float(record["omega_plus_im"]) == pytest.approx(float(record["omega_minus_im"]))

    def test_exceptional_point(self, capsys):
        code, out, _ = run(capsys, "classify", "--gamma", "1", "--G", "1")
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert rows[0][2] == "EP"
        assert rows[0][4] == "UnstableDegenerate"

    def test_invalid_params_exit_code_and_diagnostic(self, capsys):
        code, _, err = run(capsys, "classify", "--gamma", "-1", "--G", "1")
        assert code == EXIT_INVALID
        assert "gamma" in err

    def test_missing_params_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--gamma", "0.5")
        assert code == EXIT_INVALID
        assert "--G" in err


class TestSweepCommand:
    def test_determinism_digest(self, tmp_path, capsys):
        digests = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run(
                capsys, "sweep", "--gamma-res", "41", "--G-res", "41", "--out", str(path)
            )
            assert code == EXIT_OK
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_degenerate_row_at_equal_gain(self, capsys):
        code, out, _ = run(
            capsys, "sweep",
            "--gamma-min", "1", "--gamma-max", "1", "--gamma-res", "1",
            "--G-min", "0", "--G-max", "2", "--G-res", "41",
        )
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        ids = [r[2] for r in rows]
        assert set(ids) == {"1", "6", "EP"}
        assert ids.count("EP") == 1

    def test_resolution_two_gives_four_rows(self, capsys):
        code, out, _ = run(
            capsys, "sweep",
            "--gamma-min", "0", "--gamma-max", "2", "--gamma-res", "2",
            "--G-min", "0", "--G-max", "2", "--G-res", "2",
        )
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert len(rows) == 4

    def test_inverted_range_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--gamma-min", "2", "--gamma-max", "1")
        assert code == EXIT_INVALID
        assert "inverted" in err


class TestEvolveCommand:
    def test_columns_and_footer(self, capsys):
        code, out, _ = run(
            capsys, "evolve", "--gamma", "0.6", "--G", "1.2", "--t-end", "2", "--samples", "50"
        )
        assert code == EXIT_OK
        header, rows, footer = parse_csv(out)
        assert header == ["t", "x_analytic", "x_numeric",
                          "n_a", "n_b", "n_a_st", "n_b_st", "n_a_sp", "n_b_sp"]
        assert len(rows) == 50
        assert float(footer["max_rel_discrepancy_x"]) < 1e-6
        assert footer["numbers_source"] == "analytic"

    def test_zero_init_zero_gain_all_zero(self, capsys):
        code, out, _ = run(
            capsys, "evolve", "--gamma", "0", "--G", "1.2",
            "--alpha-mag", "0", "--beta-mag", "0", "--t-end", "2", "--samples", "20",
        )
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        for row in rows:
            assert all(float(v) == 0.0 for v in row[1:])

    @staticmethod
    def assert_closed_form_checked(out):
        _, _, footer = parse_csv(out)
        assert footer["numbers_source"] == "analytic"
        assert 0.0 < float(footer["max_rel_discrepancy_numbers"]) <= 1e-6

    def test_near_equal_gain_uses_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "evolve", "--gamma", "1.00005", "--G", "1.5", "--t-end", "2", "--samples", "20"
        )
        assert code == EXIT_OK
        self.assert_closed_form_checked(out)

    def test_f_zero_curve_uses_closed_form(self, capsys):
        code, out, _ = run(capsys, "figure", "3e")
        assert code == EXIT_OK
        self.assert_closed_form_checked(out)

    def test_discrepancy_threshold_exit_code(self, capsys):
        code, _, err = run(
            capsys, "evolve", "--gamma", "0.6", "--G", "1.2", "--t-end", "2",
            "--samples", "20", "--max-discrepancy", "1e-15",
        )
        assert code == EXIT_DISCREPANCY
        assert "discrepancy" in err

    def test_equal_gain_uses_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "evolve", "--gamma", "1", "--G", "1.5", "--t-end", "2", "--samples", "20"
        )
        assert code == EXIT_OK
        self.assert_closed_form_checked(out)

    def test_series_truncate_at_common_horizon(self, capsys):
        # The second moments reach the overflow guard one sample before the first.
        code, out, _ = run(
            capsys, "evolve", "--gamma", "1.8", "--G", "1.2", "--t-end", "30", "--samples", "5"
        )
        assert code == EXIT_OK
        _, rows, footer = parse_csv(out)
        assert 2 <= len(rows) < 5
        assert float(footer["truncated_at_t"]) == float(rows[-1][0])
        assert float(footer["max_rel_discrepancy_x"]) <= 1e-6
        assert float(footer["max_rel_discrepancy_numbers"]) <= 1e-6

    def test_nonfinite_discrepancy_fails_gate(self, capsys):
        # Over 400/kappa the second moments overflow to inf inside one sample.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "evolve", "--gamma", "1.8", "--G", "1.2", "--t-end", "400", "--samples", "2"
            )
        assert code == EXIT_DISCREPANCY
        assert err.count("\n") == 1 and "discrepancy nan" in err
        _, _, footer = parse_csv(out)
        assert footer["max_rel_discrepancy_numbers"] == "nan"
        assert "truncated_at_t" in footer

    def test_long_horizon_in_the_stable_regime(self, capsys):
        # cosh(Omega t/2) overflows here while the moments decay: the closed forms
        # must not turn that into 0 * inf.
        code, out, _ = run(
            capsys, "evolve", "--gamma", "0.1", "--G", "0.4", "--t-end", "2000", "--samples", "3"
        )
        assert code == EXIT_OK
        _, rows, footer = parse_csv(out)
        assert len(rows) == 3 and "truncated_at_t" not in footer
        assert float(footer["max_rel_discrepancy_numbers"]) <= 1e-6

    def test_closed_form_error_exit_code(self, capsys, monkeypatch):
        def overflowing(params, init, t):
            raise analytic.ClosedFormError("n_b_sp is not finite from t = 1.0e-05 s on")

        monkeypatch.setattr(analytic, "numbers", overflowing)
        code, out, err = run(
            capsys, "evolve", "--gamma", "0.6", "--G", "1.2", "--t-end", "2", "--samples", "5"
        )
        assert code == EXIT_DISCREPANCY
        assert out == ""
        assert err == "ptomech: n_b_sp is not finite from t = 1.0e-05 s on\n"


class TestSteadyCommand:
    def test_single_point_record(self, capsys):
        code, out, _ = run(capsys, "steady", "--gamma", "0.6", "--G", "0.798")
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert float(record["n_a_s"]) == pytest.approx(25.953863710466255, rel=1e-11)
        assert float(record["n_b_s"]) == pytest.approx(42.25643951744376, rel=1e-11)

    def test_unstable_point_exit_code(self, capsys):
        code, _, err = run(capsys, "steady", "--gamma", "1.8", "--G", "1.2")
        assert code == EXIT_UNSTABLE
        assert "no finite steady state" in err

    def test_zero_gain(self, capsys):
        code, out, _ = run(capsys, "steady", "--gamma", "0", "--G", "0.798")
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert float(rows[0][2]) == 0.0 and float(rows[0][3]) == 0.0

    def test_G_sweep_monotone_decrease_toward_limit(self, capsys):
        code, out, _ = run(
            capsys, "steady", "--gamma", "0.6",
            "--sweep", "G", "--sweep-min", "0.8", "--sweep-max", "20", "--sweep-points", "50",
        )
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        assert header[0] == "G_over_kappa"
        n_a = [float(r[1]) for r in rows if r[3] == "1"]
        assert n_a == sorted(n_a, reverse=True)
        assert n_a[-1] == pytest.approx(1.5, abs=3e-3)

    def test_gamma_sweep_monotone_increase(self, capsys):
        code, out, _ = run(
            capsys, "steady", "--G", "0.798",
            "--sweep", "gamma", "--sweep-min", "0", "--sweep-max", "0.6", "--sweep-points", "30",
        )
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        stable = [r for r in rows if r[3] == "1"]
        n_b = [float(r[2]) for r in stable]
        assert n_b == sorted(n_b)

    def test_sweep_marks_unstable_points(self, capsys):
        code, out, _ = run(
            capsys, "steady", "--gamma", "0.6",
            "--sweep", "G", "--sweep-min", "0", "--sweep-max", "2", "--sweep-points", "21",
        )
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        flags = {r[3] for r in rows}
        assert flags == {"0", "1"}
        assert all(r[1] == "nan" for r in rows if r[3] == "0")


class TestFigureCommand:
    # Regression-pinned preset parameter table (rates in kappa units).
    EXPECTED = {
        "3a": (0.6, 1.2), "3b": (1.0, 1.5), "3c": (1.8, 2.1),
        "3d": (0.6, 0.798), "3e": (0.6, math.sqrt(0.6)), "3f": (1.8, 1.2),
        "4top": (1.0, 1.5), "4bot": (1.0, 0.8),
        "5a": (0.6, 1.2), "5b": (0.6, 0.798), "5c": (0.6, 0.6),
        "5d": (0.6, 1.2), "5e": (0.6, 0.798), "5f": (0.6, 0.6),
        "5g": (0.6, 1.2), "5h": (0.6, 0.798), "5i": (0.6, 0.6),
    }

    def test_preset_parameter_table(self):
        for name, (gamma, G) in self.EXPECTED.items():
            preset = PRESETS[name]
            assert preset.kind == "evolve"
            assert (preset.gamma, preset.G) == (gamma, G)
        assert PRESETS["6a"].kind == "steady_sweep"
        assert PRESETS["6a"].gamma == 0.6 and PRESETS["6a"].sweep_param == "G"
        assert PRESETS["6b"].kind == "steady_sweep"
        assert PRESETS["6b"].G == 0.798 and PRESETS["6b"].sweep_param == "gamma"
        # The common initial state alpha = 2 exp(i pi/6), beta = 2 exp(i pi/3)
        # and kappa = 6.45 MHz scale are pinned in the presets module.
        from ptomech import presets as pm

        assert pm.KAPPA_HZ_DEFAULT == 6.45e6
        assert pm.MASS_DEFAULT == 5e-11
        assert pm.OMEGA1_OVER_KAPPA_DEFAULT == pytest.approx(2 * math.pi * 23.4e6 / 6.45e6)
        assert (pm.ALPHA_MAG_DEFAULT, pm.ALPHA_PHASE_DEFAULT) == (2.0, math.pi / 6)
        assert (pm.BETA_MAG_DEFAULT, pm.BETA_PHASE_DEFAULT) == (2.0, math.pi / 3)

    def test_show_preset(self, capsys):
        code, out, _ = run(capsys, "figure", "3a", "--show-preset")
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        record = dict(zip(header, rows[0]))
        assert record["name"] == "3a"
        assert float(record["gamma_over_kappa"]) == 0.6
        assert float(record["G_over_kappa"]) == 1.2

    def test_figure_3a_runs_evolution(self, capsys):
        code, out, _ = run(capsys, "figure", "3a", "--t-end", "2", "--samples", "20")
        assert code == EXIT_OK
        header, rows, footer = parse_csv(out)
        assert header[0] == "t"
        assert len(rows) == 20
        assert float(footer["max_rel_discrepancy_x"]) < 1e-6

    def test_figure_6b_runs_steady_sweep(self, capsys):
        code, out, _ = run(capsys, "figure", "6b")
        assert code == EXIT_OK
        header, rows, _ = parse_csv(out)
        assert header[0] == "gamma_over_kappa"
        assert len(rows) == 61

    def test_unknown_preset_rejected(self, capsys):
        code, _, err = run(capsys, "figure", "9z")
        assert code == EXIT_INVALID
        assert "unknown figure preset" in err


class TestOutputFormats:
    def test_json_mirror_field_names(self, capsys):
        code, out, _ = run(
            capsys, "evolve", "--gamma", "0.6", "--G", "1.2", "--t-end", "2",
            "--samples", "10", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["columns"] == ["t", "x_analytic", "x_numeric",
                                      "n_a", "n_b", "n_a_st", "n_b_st", "n_a_sp", "n_b_sp"]
        assert len(payload["rows"]) == 10
        assert set(payload["rows"][0]) == set(payload["columns"])
        assert "max_rel_discrepancy_x" in payload["summary"]

    def test_csv_json_values_agree_at_declared_precision(self, capsys):
        args = ("steady", "--gamma", "0.6", "--G", "0.798")
        _, out_csv, _ = run(capsys, *args)
        _, out_json, _ = run(capsys, *args, "--format", "json")
        _, rows, _ = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert float(rows[0][2]) == payload["rows"][0]["n_a_s"]

    def test_config_round_trip(self):
        cfg = RunConfig(
            command="evolve",
            params_in_kappa_units={"gamma": 0.6, "G": 1.2, "omega1": 22.794811812093382},
            init={"alpha_mag": 2.0, "alpha_phase": math.pi / 6,
                  "beta_mag": 2.0, "beta_phase": math.pi / 3},
            t_end=10.0,
            dt=None,
            samples=200,
        )
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_env_variable_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PTOM_GAMMA", "0.6")
        monkeypatch.setenv("PTOM_G", "1.2")
        code, out, _ = run(capsys, "classify")
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert rows[0][2] == "4"

    def test_bad_env_value_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("PTOM_GAMMA", "abc")
        code, out, err = run(capsys, "classify", "--G", "1.2")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.count("\n") == 1 and "PTOM_GAMMA" in err

    def test_env_read_only_for_the_chosen_subcommand(self, capsys, monkeypatch):
        monkeypatch.setenv("PTOM_GAMMA", "abc")  # sweep has no --gamma
        code, out, _ = run(capsys, "sweep", "--gamma-res", "2", "--G-res", "2")
        assert code == EXIT_OK
        assert len(parse_csv(out)[1]) == 4

    def test_env_value_checked_against_choices(self, capsys, monkeypatch):
        monkeypatch.setenv("PTOM_FORMAT", "xml")
        code, out, err = run(capsys, "classify", "--gamma", "0.6", "--G", "1.2")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.count("\n") == 1 and "PTOM_FORMAT" in err and "invalid choice" in err

    def test_explicit_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PTOM_GAMMA", "1.8")
        monkeypatch.setenv("PTOM_FORMAT", "json")
        code, out, _ = run(capsys, "classify", "--gamma", "0.6", "--G", "1.2", "--format", "csv")
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert rows[0][2] == "4"

    def test_precision_below_one_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--gamma", "0.6", "--G", "1.2", "--precision", "0")
        assert code == EXIT_INVALID
        assert err.count("\n") == 1 and "--precision must be >= 1" in err

    def test_unwritable_output_path(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, "classify", "--gamma", "0.6", "--G", "1.2", "--out", str(path))
        assert code == EXIT_INVALID
        assert err.count("\n") == 1 and str(path) in err

    def test_seedless_flag_accepted(self, capsys):
        code, _, _ = run(capsys, "classify", "--gamma", "0.6", "--G", "1.2", "--seedless")
        assert code == EXIT_OK

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "steady", "--gamma", "0.6", "--G", "0.798", "--precision", "6")
        assert code == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert rows[0][2] == "2.59539e+01"
