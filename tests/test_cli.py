import json
import math

import numpy as np
import pytest

from entrobound import cli
from entrobound.cli import (
    ExperimentConfig,
    bounds_compare,
    counterexample_curve,
    counterexample_scan,
    family_closed_form,
    family_pair,
    fig1_scatter,
    fig2_fixed_angle,
    render_csv,
)
from entrobound.errors import OutOfRangeError
from entrobound.states import dense_state_to_json, make_density


def cfg(**kwargs):
    return ExperimentConfig(**{"subcommand": "fig1", **kwargs})


def write_pair(tmp_path, rho, sigma, name="pair.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "rho": dense_state_to_json(make_density(rho), rho.shape[0], 1),
                "sigma": dense_state_to_json(make_density(sigma), sigma.shape[0], 1),
            }
        )
    )
    return str(path)


class TestFamily:
    def test_lambda_zero_is_the_entangled_state(self):
        angle, diff = family_closed_form(2, 2, 0.0)
        assert angle == 0.0 and diff == 0.0

    def test_closed_form_matches_matrix_route(self):
        from entrobound.entropy import conditional_entropy
        from entrobound.metrics import angular_distance

        for d_a, d_b in ((2, 2), (3, 2), (2, 4)):
            for lam in (0.1, 0.5, 0.9, 1.0):
                angle_cf, diff_cf = family_closed_form(d_a, d_b, lam)
                rho, sigma = family_pair(d_a, d_b, lam)
                assert angle_cf == pytest.approx(angular_distance(rho, sigma), abs=1e-9)
                diff_mx = abs(
                    conditional_entropy(rho, d_a, d_b) - conditional_entropy(sigma, d_a, d_b)
                )
                assert diff_cf == pytest.approx(diff_mx, abs=1e-9)

    def test_headline_numbers(self):
        angle, diff = family_closed_form(2, 2, 0.5)
        from entrobound.entropy import lipschitz_u

        assert diff == pytest.approx(1.074, abs=1e-3)
        assert lipschitz_u(2) * angle == pytest.approx(1.061, abs=1e-3)
        assert diff > lipschitz_u(2) * angle


class TestTables:
    def test_fig1_rows_respect_bound(self):
        header, rows = fig1_scatter(cfg(n_samples=50, seed=5))
        assert header == ["angular", "entropy_diff", "bound"]
        assert len(rows) == 50
        cap = math.log(2)
        for angle, diff, bound in rows:
            assert diff <= bound + 1e-9
            assert bound <= cap + 1e-12
        assert rows == sorted(rows)

    def test_fig2_rows(self):
        config = cfg(subcommand="fig2", n_samples=20, angles=(1e-6, 5e-6), seed=6)
        header, rows = fig2_fixed_angle(config)
        assert len(rows) == 40
        for angle, diff, bound in rows:
            assert diff <= bound + 1e-12
            assert min(abs(angle - 1e-6), abs(angle - 5e-6)) <= 1e-9

    def test_curve_routes_agree(self):
        header, rows = counterexample_curve(cfg(subcommand="curve", lambda_step=0.1))
        assert rows[0][0] == 0.0
        assert rows[0][3] == 0.0  # equal states at lambda = 0
        for row in rows:
            # the angle at lambda = 0 is limited by arccos conditioning at
            # fidelity 1 (~sqrt(eps)); every other row is tight
            angle_tol = 1e-9 if row[0] > 0 else 1e-7
            assert row[1] == pytest.approx(row[2], abs=angle_tol)
            assert row[3] == pytest.approx(row[4], abs=1e-9)
        by_lambda = {row[0]: row for row in rows}
        assert by_lambda[0.5][6] == 1  # the qubit-qubit violation

    def test_fig1_single_row_is_deterministic(self):
        _, rows_a = fig1_scatter(cfg(n_samples=1, seed=123))
        _, rows_b = fig1_scatter(cfg(n_samples=1, seed=123))
        assert rows_a == rows_b
        assert len(rows_a) == 1

    def test_curve_large_da_never_violates(self):
        _, rows = counterexample_curve(cfg(subcommand="curve", d_a=8, d_b=2, lambda_step=0.02))
        assert all(row[6] == 0 for row in rows)

    def test_converted_bound_cannot_beat_audenaert_at_small_t(self):
        header, rows = bounds_compare(cfg(subcommand="compare", d_a=2, lambda_step=0.02))
        row = dict(zip(header, rows[1]))
        assert row["trace_distance"] == pytest.approx(0.02)
        assert row["angular_conversion"] == pytest.approx(0.3224, abs=1e-4)
        assert row["audenaert"] == pytest.approx(0.0980, abs=1e-4)
        assert row["angular_conversion"] > row["audenaert"]

    def test_scan_flags_only_the_qubit_cell(self):
        header, rows = counterexample_scan(cfg(subcommand="scan", lambda_step=0.05))
        violating = [r for r in rows if r[3] > 1e-9]
        assert [(r[0], r[1]) for r in violating] == [(2, 2)]
        row = violating[0]
        assert row[4] <= 0.5 <= row[5]
        assert row[3] == pytest.approx(0.0132, abs=2e-3)

    def test_compare_columns(self):
        header, rows = bounds_compare(cfg(subcommand="compare", d_a=4, lambda_step=0.5))
        assert header[0] == "trace_distance"
        first = dict(zip(header, rows[0]))
        assert first["audenaert"] == 0.0
        assert first["dominance_holds"] == 0  # ln(3) + 2 > u(4); recorded, not hidden
        mid = dict(zip(header, rows[1]))
        assert mid["angular_conversion"] > 0.0


class TestRendering:
    def test_csv_is_deterministic(self):
        a = render_csv(fig1_scatter(cfg(n_samples=20, seed=9)))
        b = render_csv(fig1_scatter(cfg(n_samples=20, seed=9)))
        assert a == b
        assert a.splitlines()[0] == "angular,entropy_diff,bound"

    def test_csv_uses_full_precision(self):
        text = render_csv((["x"], [(1 / 3,)]))
        assert "0.33333333333333331" in text


class TestMain:
    def test_fig1_to_file(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = cli.main(["fig1", "--n", "10", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "angular,entropy_diff,bound"
        assert len(lines) == 11

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("ENTROBOUND_SEED", "52")
        assert cli.main(["fig1", "--n", "5", "--out", str(out1)]) == 0
        monkeypatch.delenv("ENTROBOUND_SEED")
        assert cli.main(["fig1", "--n", "5", "--seed", "52", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "compare.json"
        code = cli.main(
            ["compare", "--da", "2", "--lambda-step", "0.25", "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["trace_distance"] == 0.0

    def test_svg_format(self, tmp_path):
        out = tmp_path / "curve.svg"
        code = cli.main(["curve", "--lambda-step", "0.1", "--format", "svg", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_classify_upper_saturated(self, tmp_path, capsys):
        b = 0.25
        path = write_pair(
            tmp_path,
            np.diag([1 / (1 + b), b / (1 + b)]),
            np.diag([b / (1 + b), 1 / (1 + b)]),
        )
        assert cli.main(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == "UpperSaturated"
        assert report["c"] == pytest.approx(0.5, abs=1e-9)

    def test_classify_equal(self, tmp_path, capsys):
        path = write_pair(tmp_path, np.diag([0.6, 0.4]), np.diag([0.6, 0.4]))
        assert cli.main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "Equal"

    def test_classify_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli.main(["classify", str(path)]) == 2

    def test_classify_invalid_state_exits_2(self, tmp_path):
        path = tmp_path / "bad_state.json"
        blob = {
            "rho": {"dim_a": 2, "dim_b": 1, "kind": "dense",
                    "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]},
            "sigma": {"dim_a": 2, "dim_b": 1, "kind": "dense",
                      "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        }
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2

    def test_classify_header_overflow_exits_2(self, tmp_path):
        # JSON reads 1e400 as inf, which int() cannot convert.
        blob = {
            "rho": dense_state_to_json(make_density(np.diag([0.6, 0.4])), 2, 1),
            "sigma": dense_state_to_json(make_density(np.diag([0.5, 0.5])), 2, 1),
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(blob).replace('"dim_a": 2', '"dim_a": 1e400', 1))
        assert "1e400" in path.read_text()
        assert cli.main(["classify", str(path)]) == 2

    def test_classify_non_finite_entry_exits_2(self, tmp_path):
        # A diagonal matrix passes LAPACK with a NaN on its diagonal, so only
        # the validation boundary can reject it.
        blob = {
            "rho": dense_state_to_json(make_density(np.diag([0.6, 0.4])), 2, 1),
            "sigma": dense_state_to_json(make_density(np.diag([0.5, 0.5])), 2, 1),
        }
        blob["rho"]["matrix"][0][0] = [math.nan, 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2

    def test_classify_missing_file_exits_1(self):
        assert cli.main(["classify", "/nonexistent/pair.json"]) == 1

    def test_sample_then_classify(self, tmp_path, capsys):
        path = tmp_path / "sampled.json"
        assert cli.main(["sample", "--kind", "qc", "--da", "2", "--db", "2",
                         "--seed", "11", "--out", str(path)]) == 0
        assert cli.main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] in {
            "Equal", "LowerSaturated", "UpperSaturated", "NeitherSaturated"
        }

    def test_sample_dense_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["sample", "--kind", "dense", "--seed", "4", "--out", str(a)])
        cli.main(["sample", "--kind", "dense", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_angles_exit_2(self):
        assert cli.main(["fig2", "--n", "2", "--angles", "2.0"]) == 2

    def test_bad_sample_count_exit_2(self):
        assert cli.main(["fig1", "--n", "0"]) == 2


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(OutOfRangeError):
            cfg(n_samples=0)
        with pytest.raises(OutOfRangeError):
            cfg(lambda_step=0.0)
        with pytest.raises(OutOfRangeError):
            cfg(angles=(0.0,))
        with pytest.raises(OutOfRangeError):
            cfg(d_a=0)
