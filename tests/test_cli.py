import argparse
import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from entrobound import cli, experiments, linalg, states
from entrobound.cli import render_csv
from entrobound.errors import OutOfRangeError
from entrobound.experiments import (
    bounds_compare,
    counterexample_curve,
    counterexample_scan,
    family_closed_form,
    family_pair,
    fig1_scatter,
    fig2_fixed_angle,
)
from entrobound.states import dense_state_to_json, make_density, make_qc_state, qc_state_to_json

SEED = cli.DEFAULT_SEED

# The option strings each subcommand registered before the subcommand table;
# the five table subcommands hold 27 of them.
PARENT_OPTIONS = {
    "fig1": {"--da", "--db", "--n", "--full", "--seed", "--out", "--format"},
    "fig2": {"--da", "--db", "--n", "--full", "--seed", "--angles", "--out", "--format"},
    "curve": {"--da", "--db", "--lambda-step", "--out", "--format"},
    "scan": {"--lambda-step", "--out", "--format"},
    "compare": {"--da", "--lambda-step", "--out", "--format"},
    "classify": {"input", "--out"},
    "sample": {"--kind", "--da", "--db", "--seed", "--out"},
}
TABLE_OPERATIONS = {
    "fig1": "fig1_scatter",
    "fig2": "fig2_fixed_angle",
    "curve": "counterexample_curve",
    "scan": "counterexample_scan",
    "compare": "bounds_compare",
}


def registered_actions(subcommand):
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in subparsers.choices[subcommand]._actions if a.dest != "help"]


class ReadRecorder:
    """A parsed namespace that records the names of the attributes read from it."""

    def __init__(self, namespace):
        self._namespace = namespace
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._namespace, name)


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


def qc_pair_blob():
    state = make_qc_state([(0.5, make_density(np.eye(2) / 2)),
                           (0.5, make_density(np.diag([1.0, 0.0])))])
    return {"rho": qc_state_to_json(state), "sigma": qc_state_to_json(state)}


def non_numeric_entry(blob):
    blob["rho"]["blocks"][0]["matrix"][0][0] = ["x", 0.0]


def header_disagrees_with_blocks(blob):
    blob["rho"]["dim_b"] = 3


def block_without_weight(blob):
    del blob["rho"]["blocks"][0]["weight"]


def no_sigma(blob):
    del blob["sigma"]


def different_splits(blob):
    blob["sigma"] = dense_state_to_json(make_density(np.eye(4) / 4), 4, 1)


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

    def test_lambda_outside_the_unit_interval(self):
        with pytest.raises(OutOfRangeError):
            family_pair(2, 2, 1.5)
        with pytest.raises(OutOfRangeError):
            family_closed_form(2, 2, 1.5)


class TestTables:
    def test_fig1_rows_respect_bound(self):
        header, rows = fig1_scatter(2, 2, 50, 5)
        assert header == ["angular", "entropy_diff", "bound"]
        assert len(rows) == 50
        cap = math.log(2)
        for angle, diff, bound in rows:
            assert diff <= bound + 1e-9
            assert bound <= cap + 1e-12
        assert rows == sorted(rows)

    def test_fig2_rows(self):
        header, rows = fig2_fixed_angle(2, 2, 20, 6, angles=(1e-6, 5e-6))
        assert len(rows) == 40
        for angle, diff, bound in rows:
            assert diff <= bound + 1e-12
            assert min(abs(angle - 1e-6), abs(angle - 5e-6)) <= 1e-9

    def test_curve_routes_agree(self):
        header, rows = counterexample_curve(2, 2, 0.1)
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

    @pytest.mark.parametrize(
        "table, config",
        [
            (fig1_scatter, (2, 2, 3, SEED)),
            (counterexample_curve, (2, 2, 0.25)),
        ],
    )
    def test_package_built_states_skip_the_boundary_check(self, monkeypatch, table, config):
        calls = []
        original = linalg.as_hermitian

        def counting(m):
            calls.append(1)
            return original(m)

        # Rebind every module attribute that holds the function, not only linalg's.
        for name, module in list(sys.modules.items()):
            if name == "entrobound" or name.startswith("entrobound."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        table(*config)
        assert calls == []
        states.make_density(np.eye(2) / 2)  # outside input still goes through the check
        assert calls == [1]

    def test_fig1_single_row_is_deterministic(self):
        _, rows_a = fig1_scatter(2, 2, 1, 123)
        _, rows_b = fig1_scatter(2, 2, 1, 123)
        assert rows_a == rows_b
        assert len(rows_a) == 1

    def test_curve_large_da_never_violates(self):
        _, rows = counterexample_curve(8, 2, 0.02)
        assert all(row[6] == 0 for row in rows)

    def test_converted_bound_cannot_beat_audenaert_at_small_t(self):
        header, rows = bounds_compare(2, 0.02)
        row = dict(zip(header, rows[1]))
        assert row["trace_distance"] == pytest.approx(0.02)
        assert row["angular_conversion"] == pytest.approx(0.3224, abs=1e-4)
        assert row["audenaert"] == pytest.approx(0.0980, abs=1e-4)
        assert row["angular_conversion"] > row["audenaert"]

    def test_scan_flags_only_the_qubit_cell(self):
        header, rows = counterexample_scan(0.05)
        violating = [r for r in rows if r[3] > 1e-9]
        assert [(r[0], r[1]) for r in violating] == [(2, 2)]
        row = violating[0]
        assert row[4] <= 0.5 <= row[5]
        assert row[3] == pytest.approx(0.0132, abs=2e-3)

    def test_compare_columns(self):
        header, rows = bounds_compare(4, 0.5)
        assert header[0] == "trace_distance"
        first = dict(zip(header, rows[0]))
        assert first["audenaert"] == 0.0
        assert first["dominance_holds"] == 0  # ln(3) + 2 > u(4); recorded, not hidden
        mid = dict(zip(header, rows[1]))
        assert mid["angular_conversion"] > 0.0


class TestRendering:
    def test_csv_is_deterministic(self):
        a = render_csv(fig1_scatter(2, 2, 20, 9))
        b = render_csv(fig1_scatter(2, 2, 20, 9))
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

    def test_fig1_svg_draws_one_circle_per_row(self, tmp_path):
        out = tmp_path / "fig1.svg"
        argv = ["fig1", "--n", "7", "--seed", "3", "--format", "svg", "--out", str(out)]
        assert cli.main(argv) == 0
        text = out.read_text()
        assert text.count("<circle") == 7 and text.count("<polyline") == 1

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
        # JSON reads 1e400 as inf, a float, which the dimension check rejects.
        blob = {
            "rho": dense_state_to_json(make_density(np.diag([0.6, 0.4])), 2, 1),
            "sigma": dense_state_to_json(make_density(np.diag([0.5, 0.5])), 2, 1),
        }
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(blob).replace('"dim_a": 2', '"dim_a": 1e400', 1))
        assert "1e400" in path.read_text()
        assert cli.main(["classify", str(path)]) == 2

    @pytest.mark.parametrize("dim", ["2.7", '"2"', "2.0"])
    def test_classify_header_dims_must_be_json_integers(self, tmp_path, dim):
        blob = {
            "rho": dense_state_to_json(make_density(np.diag([0.6, 0.4])), 2, 1),
            "sigma": dense_state_to_json(make_density(np.diag([0.5, 0.5])), 2, 1),
        }
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(blob).replace('"dim_a": 2', f'"dim_a": {dim}'))
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

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (non_numeric_entry, "malformed complex matrix"),
            (header_disagrees_with_blocks, "header says"),
            (block_without_weight, "weight"),
            (no_sigma, "'rho' and 'sigma'"),
            (different_splits, "but sigma is"),
        ],
    )
    def test_classify_malformed_pair_files_exit_2(self, tmp_path, capsys, mutate, message):
        blob = qc_pair_blob()
        mutate(blob)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(blob))
        assert cli.main(["classify", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_classify_missing_file_exits_1(self):
        assert cli.main(["classify", "/nonexistent/pair.json"]) == 1

    def test_classify_directory_exits_1(self, tmp_path):
        assert cli.main(["classify", str(tmp_path)]) == 1

    def test_classify_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"rho": "\xff"}')
        assert cli.main(["classify", str(path)]) == 2
        assert "utf-8" in capsys.readouterr().err

    def test_classify_file_nested_too_deep_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert cli.main(["classify", str(path)]) == 2
        assert "recursion" in capsys.readouterr().err

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

    def test_angles_that_are_not_numbers_exit_2(self):
        assert cli.main(["fig2", "--n", "2", "--angles", "1e-6,abc"]) == 2

    @pytest.mark.parametrize("angles", [",", "", " , "])
    def test_angles_listing_no_angle_exit_2_before_drawing(self, monkeypatch, angles):
        calls = []
        monkeypatch.setattr(cli, "fig2_fixed_angle", lambda *args: calls.append(args))
        assert cli.main(["fig2", "--n", "2", "--angles", angles]) == 2
        assert calls == []

    def test_absent_angles_give_the_ten_defaults(self, capsys):
        assert cli.main(["fig2", "--n", "1", "--seed", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 10

    @pytest.mark.parametrize("step", ["1e-300", "5e-324", "9e-7"])
    def test_curve_rejects_grids_of_more_than_a_million_steps(self, monkeypatch, capsys, step):
        def built(*args):
            raise AssertionError("the grid was built")

        # Fails fast, without filling rows, if the grid check is missing.
        monkeypatch.setattr(experiments, "family_closed_form", built)
        assert cli.main(["curve", "--lambda-step", step]) == 2
        assert "grid steps" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["curve", "scan", "compare"])
    @pytest.mark.parametrize("step", ["0.3", "0.4", "0.6", "0.7", "0.15"])
    def test_lambda_steps_must_divide_one(self, monkeypatch, capsys, subcommand, step):
        def built(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(experiments, "family_closed_form", built)
        assert cli.main([subcommand, "--lambda-step", step]) == 2
        assert "does not divide 1" in capsys.readouterr().err

    def test_registered_options_are_the_parents(self):
        registered = {
            name: {s for a in registered_actions(name) for s in a.option_strings or [a.dest]}
            for name in cli.SUBCOMMANDS
        }
        assert registered == PARENT_OPTIONS
        assert sum(len(PARENT_OPTIONS[name]) for name in TABLE_OPERATIONS) == 27

    @pytest.mark.parametrize("subcommand, operation", list(TABLE_OPERATIONS.items()))
    def test_table_calls_read_exactly_their_options(
        self, monkeypatch, subcommand, operation
    ):
        calls = []

        def stub(*args):
            calls.append(args)
            return ["x", "y"], [(0.0, 1.0)]

        options = {a.dest for a in registered_actions(subcommand)}
        recorder = ReadRecorder(cli.build_parser().parse_args([subcommand]))
        monkeypatch.setattr(cli, operation, stub)
        monkeypatch.setattr(cli, "_emit", lambda text, path: None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: SimpleNamespace(parse_args=lambda argv: recorder))
        monkeypatch.delenv("ENTROBOUND_SEED", raising=False)
        assert cli.main([subcommand]) == 0
        assert len(calls) == 1
        # main reads the subcommand's name, which no option sets.
        assert recorder.read - {"subcommand"} == options

    def test_bad_sample_count_exit_2(self):
        assert cli.main(["fig1", "--n", "0"]) == 2

    @pytest.mark.parametrize(
        "subcommand, flag",
        [
            ("fig1", "--lambda-step"), ("fig1", "--angles"),
            ("fig2", "--lambda-step"),
            ("curve", "--n"), ("curve", "--full"), ("curve", "--seed"), ("curve", "--angles"),
            ("scan", "--da"), ("scan", "--db"), ("scan", "--n"), ("scan", "--full"),
            ("scan", "--seed"), ("scan", "--angles"),
            ("compare", "--db"), ("compare", "--n"), ("compare", "--full"),
            ("compare", "--seed"), ("compare", "--angles"),
        ],
    )
    def test_table_subcommands_reject_options_they_do_not_read(self, capsys, subcommand, flag):
        argv = [subcommand, flag] + ([] if flag == "--full" else ["0.1"])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_curve_resolves_no_seed(self, tmp_path, monkeypatch):
        out = tmp_path / "curve.csv"
        monkeypatch.setenv("ENTROBOUND_SEED", "abc")
        assert cli.main(["curve", "--lambda-step", "0.5", "--out", str(out)]) == 0
        assert out.read_text().startswith("lambda,")
        assert cli.main(["fig1", "--n", "1"]) == 2  # fig1 does resolve one

    def test_parser_is_built_once(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = parser.parse_args(["fig1", "--n", "3"])
        second = parser.parse_args(["fig1"])
        assert first is not second and (first.n, second.n) == (3, None)

    def test_sample_dense_rejects_dims_below_one(self, tmp_path):
        # The product of the two dimensions is 2, a valid joint dimension.
        path = tmp_path / "pair.json"
        argv = ["sample", "--kind", "dense", "--da", "-1", "--db", "-2", "--out", str(path)]
        assert cli.main(argv) == 2
        assert not path.exists()


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(OutOfRangeError):
            fig1_scatter(2, 2, 0, SEED)
        with pytest.raises(OutOfRangeError):
            counterexample_curve(2, 2, 0.0)
        with pytest.raises(OutOfRangeError):
            fig2_fixed_angle(2, 2, 1, SEED, angles=(0.0,))
        with pytest.raises(OutOfRangeError):
            fig1_scatter(0, 2, 1, SEED)

    def test_each_reader_checks_its_values(self):
        # Each value is checked by the operation or helper that reads it.
        with pytest.raises(OutOfRangeError):
            fig2_fixed_angle(2, 2, 0, SEED)
        with pytest.raises(OutOfRangeError):
            counterexample_scan(1.5)
        with pytest.raises(OutOfRangeError):
            bounds_compare(2, math.nan)
        with pytest.raises(OutOfRangeError):
            fig1_scatter(2, 0, 1, SEED)
        with pytest.raises(OutOfRangeError):
            fig2_fixed_angle(2, 0, 1, SEED)
        with pytest.raises(OutOfRangeError):
            counterexample_curve(0, 2, 0.5)
        with pytest.raises(OutOfRangeError):
            counterexample_curve(2, 0, 0.5)  # d_B = 0 would reach log(0)

    def test_lambda_grid_allows_a_million_steps(self):
        grid = experiments._lambda_grid(1e-6)
        assert grid.size == 10**6 + 1 and grid[0] == 0.0 and grid[-1] == 1.0

    @pytest.mark.parametrize("step", [0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1e-6])
    def test_lambda_grid_walks_steps_that_divide_one(self, step):
        grid = experiments._lambda_grid(step)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        # pytest.approx(step, rel=1e-9)'s tolerance: rel * step, at least its default abs 1e-12.
        assert np.all(np.abs(np.diff(grid) - step) <= max(1e-9 * step, 1e-12))

    def test_scan_misses_the_qubit_violation_only_at_step_one(self):
        # The (2, 2) violation lies on [0.358, 0.595]; grid {0, 1} has no point there.
        cells = {step: {row[:2]: row for row in counterexample_scan(step)[1]}
                 for step in (1.0, 0.5)}
        assert cells[1.0][(2, 2)][3] == 0.0 and cells[1.0][(2, 2)][4] == -1.0
        assert cells[0.5][(2, 2)][3] > 0.01
        assert cells[0.5][(2, 2)][4:] == pytest.approx((0.358, 0.595))

    def test_fig2_checks_every_angle_before_drawing(self, monkeypatch):
        calls = []
        original = experiments.sample_classical_pair_at_angle

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "sample_classical_pair_at_angle", counting)
        with pytest.raises(OutOfRangeError):
            fig2_fixed_angle(2, 2, 1000, SEED, angles=(1e-6, 2.0))
        assert calls == []
