import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from rumorlab.adversary import first_spy_position
from rumorlab.analytics import FORMULAS, diffusion_ft
from rumorlab import cli, harness
from rumorlab.cli import build_parser, main
from rumorlab.graphs import load_edge_list
from rumorlab.spreading import trace_to_csv, trial_stream


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def experiment_args(command):
    """compare runs both protocols and takes no --protocol."""
    return [command] if command == "compare" else [command, "--protocol", "trickle"]


def forbid_graph_builds(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(cli, "build_graph", no_build)
    monkeypatch.setattr(harness, "build_graph", no_build)


def parse_report_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


class TestTheory:
    def test_diffusion_value(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--formula", "diffusion_ft",
                               "--d", "4", "--theta", "1")
        assert code == 0
        row = parse_report_csv(out)[0]
        assert float(row["value"]) == pytest.approx(0.5493, abs=1e-4)

    def test_ml_upper_value(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--formula", "trickle_ml_ub",
                               "--d", "4", "--theta", "1")
        assert float(parse_report_csv(out)[0]["value"]) == pytest.approx(0.6)

    def test_rc_constant_value(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--formula", "rc_constant", "--d", "3")
        assert float(parse_report_csv(out)[0]["value"]) == pytest.approx(0.25)

    def test_grid_over_d(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--formula", "diffusion_ft",
                               "--d", "3,4,6", "--theta", "1")
        rows = parse_report_csv(out)
        assert [r["d"] for r in rows] == ["3", "4", "6"]

    def test_table2_layout(self, capsys):
        # One row per eavesdropper (estimator, protocol) of METHODS with a
        # closed form, in METHODS order; trickle_ml_lb needs --t.
        code, out, _ = run_cli(capsys, "theory", "--table2", "--d", "4", "--theta", "1")
        assert code == 0
        rows = parse_report_csv(out)
        assert [(r["estimator"], r["protocol"], r["formula_id"]) for r in rows] == [
            ("first-timestamp", "trickle", "trickle_ft_lb"),
            ("first-timestamp", "diffusion", "diffusion_ft"),
            ("ball-centrality", "trickle", "trickle_ml_lb"),
            ("timestamp-rumor-centrality", "trickle", "trickle_ml_ub"),
            ("reporting-centrality", "diffusion", "rc_constant"),
        ]
        values = {r["formula_id"]: r["value"] for r in rows}
        assert float(values["diffusion_ft"]) == diffusion_ft(4, 1).value
        assert values["trickle_ml_lb"] == ""
        _, out, _ = run_cli(capsys, "theory", "--table2", "--d", "4", "--theta", "1",
                            "--t", "6")
        assert all(r["value"] for r in parse_report_csv(out))

    def test_table2_leaves_cells_undefined_at_d_2_empty(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--table2", "--d", "2", "--theta", "1")
        assert code == 0
        values = {r["formula_id"]: r["value"] for r in parse_report_csv(out)}
        assert float(values["trickle_ft_lb"]) > 0
        assert float(values["trickle_ml_ub"]) > 0
        assert values["diffusion_ft"] == values["rc_constant"] == ""

    def test_table2_grid_is_one_table_per_point(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--table2", "--d", "3,4", "--theta", "1,2")
        assert code == 0
        rows = parse_report_csv(out)
        assert len(rows) == 20
        for i, (d, theta) in enumerate([(3, 1), (3, 2), (4, 1), (4, 2)]):
            _, single, _ = run_cli(capsys, "theory", "--table2", "--d", str(d),
                                   "--theta", str(theta))
            assert rows[5 * i:5 * i + 5] == parse_report_csv(single)

    @pytest.mark.parametrize("argv, message", [
        # No eavesdropper closed form reads p, so a p grid would repeat each table.
        (("--d", "4", "--theta", "1", "--p", "0.3"), "takes no --p"),
        (("--d", "", "--theta", "1"), "needs --d"),
    ], ids=["p", "empty-d"])
    def test_table2_input_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "theory", "--table2", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("rumorlab: error: ") and message in err

    def test_config_header_present(self, capsys):
        _, out, _ = run_cli(capsys, "theory", "--formula", "spy_ft_lb", "--p", "0.3")
        header = out.splitlines()[0]
        assert header.startswith("# config ")
        cfg = json.loads(header[len("# config "):])
        assert cfg["formula"] == "spy_ft_lb"

    def test_config_header_is_strict_json(self, capsys):
        # A non-finite float is written as the string float() reads back,
        # never as the bare Infinity or NaN that strict parsers reject.
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code, out, _ = run_cli(capsys, "theory", "--table2", "--d", "4", "--theta", "inf,nan,2")
        assert code == 0
        cfg = json.loads(out.splitlines()[0][len("# config "):], parse_constant=reject)
        assert cfg["theta"] == ["inf", "nan", 2.0]
        assert float(cfg["theta"][0]) == math.inf

    def test_json_rows_are_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code, out, _ = run_cli(capsys, "theory", "--table2", "--d", "4", "--theta", "inf,nan",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out, parse_constant=reject)["rows"]
        assert {row["theta"] for row in rows} == {"inf", "nan"}
        assert float(rows[0]["theta"]) == math.inf

    @pytest.mark.parametrize("argv, message", [
        ((), "formula"),
        *((("--formula", formula), "got None") for formula in FORMULAS),
    ], ids=["no-formula", *FORMULAS])
    def test_missing_formula_is_runtime_error(self, capsys, argv, message):
        # A formula given without its inputs ends on the error line, not a traceback.
        code, _, err = run_cli(capsys, "theory", *argv)
        assert code == 1
        assert err.startswith("rumorlab: error: ") and message in err


    @pytest.mark.parametrize("argv", [
        ("--formula", "trickle_ft_lb", "--d", "4", "--theta", "inf"),
        ("--formula", "diffusion_ft", "--d", "4", "--theta", "nan"),
        ("--formula", "trickle_ml_lb", "--d", "4", "--theta", "1", "--t", "nan"),
    ], ids=["inf-theta", "nan-theta", "nan-t"])
    def test_non_finite_input_is_runtime_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "theory", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("rumorlab: error: ")

    def test_table2_at_infinite_theta_leaves_theta_cells_empty(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--table2", "--d", "4", "--theta", "inf",
                               "--t", "6")
        assert code == 0
        values = {r["formula_id"]: r["value"] for r in parse_report_csv(out)}
        assert float(values.pop("rc_constant")) > 0
        assert set(values.values()) == {""}


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # --protocol required
        assert exc.value.code == 2

    def test_unknown_estimator_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--protocol", "trickle", "--estimator", "psychic"])
        assert exc.value.code == 2

    def test_unknown_formula_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--formula", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("--estimator", "timestamp-rumor-centrality", "--d", "4", "--t", "3"),
        ("--estimator", "timestamp-rumor-centrality", "--d", "8", "--t", "9"),
        ("--estimator", "timestamp-rumor-centrality", "--d", "4", "--t", "5",
         "--root-degree", "3"),
        ("--estimator", "ball-centrality", "--d", "4"),
        ("--adversary", "spy", "--spy-p", "0.5", "--d", "4"),
        ("--estimator", "timestamp-rumor-centrality", "--d", "4", "--max-infections", "50"),
        ("--spy-p", "0.4", "--d", "4", "--t", "5"),
        ("--adversary", "snapshot", "--estimator", "rumor-centers", "--spy-p", "0.4",
         "--d", "4", "--t", "5"),
    ])
    def test_rejected_spec_exits_2_before_any_trial(self, capsys, argv):
        code, out, err = run_cli(capsys, "simulate", "--protocol", "trickle", *argv,
                                 "--trials", "20")
        assert (code, out) == (2, "")
        assert err.startswith("rumorlab: error:")

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_rejected_sweep_spec_exits_2(self, capsys, command):
        code, out, _ = run_cli(capsys, *experiment_args(command), "--estimator",
                               "first-timestamp", "--adversary", "spy", "--spy-p", "0.5",
                               "--d", "4", "--axis", "theta", "--values", "1,2")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("values", ["", ","])
    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_empty_sweep_exits_2(self, capsys, monkeypatch, command, values):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        code, out, err = run_cli(capsys, *experiment_args(command), "--d", "4",
                                 "--max-infections", "50", "--axis", "theta",
                                 "--values", values, "--trials", "10")
        assert (code, out) == (2, "")
        assert "at least one value" in err

    @pytest.mark.parametrize("graph", [
        ("--graph", "tree", "--d", "1"),
        ("--graph", "balanced-tree", "--d", "1", "--depth", "3"),
        ("--graph", "random-regular", "--n", "7", "--d", "3"),
        ("--graph", "random-regular", "--n", "4", "--d", "4"),
    ])
    def test_graph_that_cannot_be_built_exits_2_before_any_trial(self, capsys, monkeypatch,
                                                                 graph):
        forbid_graph_builds(monkeypatch)
        code, out, err = run_cli(capsys, "simulate", "--protocol", "diffusion", *graph,
                                 "--max-infections", "10", "--trials", "5",
                                 "--estimator", "first-timestamp")
        assert (code, out) == (2, "")
        assert err.startswith("rumorlab: error:")

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("graph, values", [
        (("--graph", "tree"), "3,1"),
        (("--graph", "random-regular", "--n", "7"), "2,3"),
    ])
    def test_d_sweep_point_that_cannot_be_built_exits_2(self, capsys, monkeypatch, command,
                                                        graph, values):
        forbid_graph_builds(monkeypatch)
        code, out, err = run_cli(capsys, *experiment_args(command), *graph, "--d", "4",
                                 "--axis", "d", "--values", values, "--trials", "10")
        assert (code, out) == (2, "")
        assert err.startswith("rumorlab: error:")

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_sweep_point_rejected_when_built_exits_2(self, capsys, command):
        # The base spec (t=5) is valid; the point t=3 is not, and no point runs.
        code, out, err = run_cli(capsys, *experiment_args(command), "--estimator",
                                 "timestamp-rumor-centrality", "--d", "4", "--t", "5",
                                 "--axis", "t", "--values", "5,3", "--trials", "20")
        assert (code, out) == (2, "")
        assert "t >= d + theta" in err

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_p_axis_without_spy_exits_2(self, capsys, monkeypatch, command):
        # The spy probability would leave every eavesdropper point the same.
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        code, out, err = run_cli(capsys, *experiment_args(command), "--d", "4",
                                 "--axis", "p", "--values", "0.1,0.9", "--trials", "20")
        assert (code, out) == (2, "")
        assert "spy" in err

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_d_axis_on_a_file_graph_exits_2(self, capsys, monkeypatch, tmp_path, command):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        edges = tmp_path / "ring.edges"
        edges.write_text("".join(f"{v} {(v + 1) % 60}\n" for v in range(60)))
        code, out, err = run_cli(capsys, *experiment_args(command), "--graph", "file",
                                 "--graph-file", str(edges), "--axis", "d",
                                 "--values", "3,4,8", "--trials", "20")
        assert (code, out) == (2, "")
        assert "file graph" in err

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("axis, values", [("d", "4.5,5"), ("trials", "20.9")])
    def test_fractional_integer_axis_value_exits_2(self, capsys, monkeypatch, command,
                                                   axis, values):
        # int() would run d=4 or 20 trials under a row whose axis_value says otherwise.
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        code, out, err = run_cli(capsys, *experiment_args(command), "--d", "4",
                                 "--axis", axis, "--values", values, "--trials", "20")
        assert (code, out) == (2, "")
        assert "integer values" in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--protocol", "trickle", "--theta", "inf"),
        ("simulate", "--protocol", "trickle", "--t", "inf"),
        ("simulate", "--protocol", "diffusion", "--theta", "nan"),
        ("simulate", "--protocol", "diffusion", "--t", "nan", "--max-infections", "50"),
        ("simulate", "--protocol", "diffusion", "--workers", "0"),
        ("sweep", "--protocol", "diffusion", "--axis", "theta", "--values", "1,nan"),
        ("sweep", "--protocol", "trickle", "--axis", "t", "--values", "4,inf"),
    ], ids=["inf-theta", "inf-t", "nan-theta", "nan-t", "no-workers", "nan-theta-axis",
            "inf-t-axis"])
    def test_non_finite_input_or_no_worker_exits_2(self, capsys, monkeypatch, argv):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        code, out, err = run_cli(capsys, *argv, "--graph", "balanced-tree", "--d", "3",
                                 "--depth", "3", "--trials", "20")
        assert (code, out) == (2, "")
        assert err.startswith("rumorlab: error: ")

    def test_rumor_centers_on_graph_with_cycles_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--protocol", "diffusion",
                                 "--adversary", "snapshot", "--estimator", "rumor-centers",
                                 "--graph", "random-regular", "--n", "200", "--d", "4",
                                 "--t", "2", "--trials", "5")
        assert (code, out) == (2, "")
        assert "tree" in err

    @pytest.mark.parametrize("argv", [
        ("--graph", "balanced-tree", "--d", "4", "--depth", "5", "--root-degree", "2"),
        ("--graph", "tree", "--d", "4", "--depth", "2", "--max-infections", "100"),
        ("--graph", "random-regular", "--n", "100", "--d", "4", "--root-degree", "2",
         "--t", "2"),
        ("--graph", "file", "--graph-file", "g.edges", "--n", "100", "--t", "2"),
    ])
    def test_graph_flag_its_kind_ignores_exits_2(self, capsys, monkeypatch, argv):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        code, out, err = run_cli(capsys, "simulate", "--protocol", "diffusion", *argv,
                                 "--trials", "20")
        assert (code, out) == (2, "")
        assert "belongs to" in err

    def test_runtime_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "ingest", "--input", "/nonexistent/file")
        assert code == 1
        assert err


class TestSimulate:
    def test_report_roundtrip_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["simulate", "--protocol", "diffusion", "--estimator", "first-timestamp",
                "--d", "4", "--theta", "1", "--trials", "400", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        row = parse_report_csv(out1.read_text())[0]
        assert row["protocol"] == "diffusion"
        assert int(row["trials"]) == 400
        p_hat = float(row["p_hat"])
        assert float(row["ci_low"]) <= p_hat <= float(row["ci_high"])
        assert int(row["hits"]) == round(p_hat * 400)

    def test_thm3_setting_matches_formula(self, tmp_path):
        out = tmp_path / "thm3.csv"
        assert main(["simulate", "--protocol", "diffusion", "--d", "4", "--theta", "1",
                     "--root-degree", "2", "--trials", "3000", "--seed", "7",
                     "--out", str(out)]) == 0
        row = parse_report_csv(out.read_text())[0]
        assert abs(float(row["p_hat"]) - diffusion_ft(4, 1).value) < 0.04

    def test_json_format_mirrors_csv_fields(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--protocol", "trickle",
                               "--d", "3", "--theta", "1", "--trials", "50",
                               "--seed", "1", "--format", "json")
        data = json.loads(out)
        assert data["rows"][0]["protocol"] == "trickle"
        assert "p_hat" in data["rows"][0]

    def test_dump_trace(self, tmp_path):
        dump = tmp_path / "trace.csv"
        assert main(["simulate", "--protocol", "trickle", "--d", "3", "--theta", "1",
                     "--t", "5", "--trials", "10", "--seed", "3",
                     "--dump-trace", str(dump), "--out", str(tmp_path / "r.csv")]) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "node,X,first_report_time,parent"
        assert len(lines) > 1

    def test_dump_trace_builds_the_graph_once(self, tmp_path, monkeypatch):
        calls = []
        real = harness.build_random_regular

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(harness, "build_random_regular", counting)
        assert main(["simulate", "--protocol", "diffusion", "--graph", "random-regular",
                     "--n", "200", "--d", "4", "--trials", "70", "--seed", "3",
                     "--dump-trace", str(tmp_path / "x.csv"),
                     "--out", str(tmp_path / "r.csv")]) == 0
        assert len(calls) == 1

    def test_dump_trace_of_a_first_report_run_ends_at_its_first_report(self, tmp_path):
        # No horizon is needed at t = infinity; the dump used to run trial 0
        # as a full spread on the infinite tree, which never ended.
        dump = tmp_path / "trace.csv"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harness.__file__)))
        subprocess.run([sys.executable, "-m", "rumorlab.cli", "simulate", "--protocol",
                        "diffusion", "--d", "4", "--root-degree", "2", "--theta", "0.3",
                        "--trials", "2000", "--seed", "5", "--dump-trace", str(dump),
                        "--out", str(tmp_path / "r.csv")], env=env, timeout=120, check=True)
        records = list(csv.DictReader(io.StringIO(dump.read_text())))
        reported = [float(r["first_report_time"]) for r in records if r["first_report_time"]]
        assert len(reported) == 1
        assert reported[0] >= max(float(r["X"]) for r in records)

    def test_dump_trace_of_a_spy_run_is_its_trial_zero(self, tmp_path, monkeypatch):
        # A spy run draws no report times; the dump is the spread trial 0 ran,
        # which stops at its first spy: the position drawn first on block 0's
        # stream (the source is node 0 on a generated graph, drawn by none).
        traces = []
        real = harness.simulate_diffusion

        def recording(*args, **kw):
            traces.append(real(*args, **kw))
            return traces[-1]

        monkeypatch.setattr(harness, "simulate_diffusion", recording)
        dump = tmp_path / "trace.csv"
        assert main(["simulate", "--protocol", "diffusion", "--graph", "random-regular",
                     "--n", "60", "--d", "4", "--adversary", "spy", "--spy-p", "0.5",
                     "--estimator", "first-timestamp", "--trials", "3", "--seed", "5",
                     "--dump-trace", str(dump), "--out", str(tmp_path / "r.csv")]) == 0
        dumped, *run = traces  # the dump is written before the run starts
        assert len(run) == 3 and run[0] == dumped and run[1] != dumped
        assert dump.read_text() == trace_to_csv(run[0])
        records = list(csv.DictReader(io.StringIO(dump.read_text())))
        assert len(records) == len(run[0].X) < 60
        assert not any(r["first_report_time"] for r in records)
        # Diffusion has no ties: the last record is the first spy, X[j].
        assert len(records) == first_spy_position(0.5, trial_stream(5, 0)) + 1

    def test_dump_trace_on_file_graph_starts_at_trial_zero_source(self, tmp_path):
        edges = tmp_path / "ring.edges"
        edges.write_text("\n".join(f"{i} {(i + k) % 60}" for i in range(60) for k in (1, 7))
                         + "\n")
        dump = tmp_path / "trace.csv"
        assert main(["simulate", "--protocol", "trickle", "--graph", "file",
                     "--graph-file", str(edges), "--t", "6", "--trials", "5", "--seed", "5",
                     "--dump-trace", str(dump), "--out", str(tmp_path / "r.csv")]) == 0
        first = next(csv.DictReader(io.StringIO(dump.read_text())))
        source = trial_stream(5, 0).randrange(load_edge_list(str(edges)).node_count)
        assert source != 0
        assert (int(first["node"]), first["X"], first["parent"]) == (source, "0", "")

    @pytest.mark.parametrize("argv", [
        ("--protocol", "trickle", "--estimator", "ball-centrality", "--d", "8", "--t", "2"),
        ("--protocol", "diffusion", "--estimator", "reporting-centrality", "--d", "5",
         "--t", "0.05"),
    ])
    def test_trials_without_reports_count_as_misses(self, tmp_path, argv):
        out = tmp_path / "r.csv"
        assert main(["simulate", *argv, "--trials", "200", "--seed", "0",
                     "--out", str(out)]) == 0
        row = parse_report_csv(out.read_text())[0]
        assert 0 <= int(row["hits"]) <= int(row["trials"]) == 200


class TestSweepAndCompare:
    def test_loaded_snapshot_per_theta_report(self, tmp_path):
        edges = tmp_path / "snap.edges"
        edges.write_text("\n".join(f"{i} {(i + 1) % 20}" for i in range(20)) + "\n")
        out = tmp_path / "snap.csv"
        assert main(["sweep", "--protocol", "trickle", "--graph", "file",
                     "--graph-file", str(edges), "--theta", "1",
                     "--axis", "theta", "--values", "1,2", "--trials", "100",
                     "--seed", "4", "--out", str(out)]) == 0
        rows = parse_report_csv(out.read_text())
        assert len(rows) == 2
        assert all(0 <= float(r["p_hat"]) <= 1 for r in rows)

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--protocol", "diffusion", "--d", "4", "--theta", "1",
                     "--axis", "theta", "--values", "1,2,4", "--trials", "300",
                     "--seed", "5", "--out", str(out)]) == 0
        rows = parse_report_csv(out.read_text())
        assert [r["axis_value"] for r in rows] == ["1.0", "2.0", "4.0"]
        for row in rows:
            assert float(row["theory"]) == pytest.approx(
                diffusion_ft(4, float(row["axis_value"])).value
            )

    def test_compare_long_format(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--d", "4", "--theta", "1",
                     "--axis", "theta", "--values", "1,2", "--trials", "400",
                     "--seed", "6", "--out", str(out)]) == 0
        rows = parse_report_csv(out.read_text())
        assert len(rows) == 4
        protocols = {r["protocol"] for r in rows}
        assert protocols == {"trickle", "diffusion"}
        for row in rows:
            if row["protocol"] == "trickle":
                assert float(row["strict_win_rate"]) <= float(row["p_hat"])
            else:
                assert float(row["theory"]) == pytest.approx(
                    diffusion_ft(4, float(row["axis_value"])).value
                )


    def test_compare_takes_no_protocol(self, capsys):
        # The FOUND command: compare runs both protocols without --protocol.
        code, out, _ = run_cli(capsys, "compare", "--estimator", "first-timestamp",
                               "--d", "4", "--axis", "theta", "--values", "1", "--trials", "10")
        assert code == 0
        assert '"protocol": "trickle+diffusion"' in out.splitlines()[0]
        assert len(parse_report_csv(out)) == 2
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--protocol", "trickle", "--d", "4",
                  "--axis", "theta", "--values", "1"])
        assert exc.value.code == 2


class TestIngest:
    def test_mapping_emitted(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("# snapshot\n5 9\n9 70\n")
        code, out, _ = run_cli(capsys, "ingest", "--input", str(edges))
        assert code == 0
        assert "# nodes=3 edges=2" in out
        body = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert body[0] == "dense_id,original_id"
        assert body[1:] == ["0,5", "1,9", "2,70"]


def test_parser_choices_are_the_harness_lists():
    expected = {"estimator": harness.ESTIMATORS, "adversary": harness.ADVERSARIES,
                "graph": harness.GRAPH_KINDS, "axis": harness.SWEEP_AXES}
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    seen = set()
    for name in ("simulate", "sweep", "compare"):
        for action in subparsers[name]._actions:
            if action.dest in expected:
                assert tuple(action.choices) == expected[action.dest], (name, action.dest)
                seen.add((name, action.dest))
    assert len(seen) == 11  # three experiment lists in each command, plus two axes


TREE = "simulate --protocol diffusion --graph tree --d 5 --max-infections 200 --trials 40"
BALANCED = ("simulate --protocol diffusion --graph balanced-tree --d 3 --depth 7 "
            "--max-infections 150 --trials 40")
CUT = "simulate --protocol trickle --graph balanced-tree --d 3 --depth 3 --t 6 --trials 60"
INFINITE_TRC = ("simulate --protocol trickle --graph tree --d 4 --estimator "
                "timestamp-rumor-centrality")
SPY_RR = ("simulate --protocol diffusion --graph random-regular --n 200 --d 4 --adversary spy "
          "--spy-p 0.5 --estimator first-timestamp --trials 200")
RR_COMPARE = "compare --graph random-regular --n 200 --d 4 --axis theta --values 1,2,3"
TRICKLE_SPY = "simulate --protocol trickle --adversary spy --estimator first-timestamp --trials 200"

# (id, command, the worker counts compared).  {circulant} is the golden
# rows' 60-node circulant edge list.
WORKER_COUNT_CASES = [
    ("tree-rc", f"{TREE} --estimator reporting-centrality", (1, 2)),
    ("tree-spy-ft", f"{TREE} --adversary spy --spy-p 0.7 --estimator first-timestamp", (1, 2)),
    ("tree-rumor-centers", f"{TREE} --adversary snapshot --estimator rumor-centers", (1, 2)),
    ("balanced-spy-rc",
     f"{BALANCED} --adversary spy --spy-p 0.5 --estimator reporting-centrality", (1, 2)),
    ("balanced-rumor-centers",
     f"{BALANCED} --adversary snapshot --estimator rumor-centers", (1, 2)),
    ("cut-trc", f"{CUT} --estimator timestamp-rumor-centrality", (1, 2)),
    ("cut-ball", f"{CUT} --estimator ball-centrality", (1, 2)),
    # t = 5 = d + theta: every slot window ends at t.  t = 6 adds windows
    # that end before t, one sweep each.
    ("tree-trc-t5", f"{INFINITE_TRC} --t 5 --trials 60", (1, 2)),
    ("tree-trc-t6", f"{INFINITE_TRC} --t 6 --trials 60", (1, 2)),
    # 333 trials at 3 workers: chunks of 128, 128 and 77 trials, so each
    # chunk's blocks open their own TRC memos, the last block at 13 trials.
    # At seed 0 a run whose chunks restarted at stream 0 read the same hits.
    ("tree-trc-ragged", f"{INFINITE_TRC} --t 5 --trials 333 --seed 5", (1, 3)),
    # Spy runs draw no report times, here off the tree, where the relay loop
    # keeps each relay's sender; with --max-infections the K-th node must
    # record its sender too, as the spy reads it.
    ("rr-spy-ft", SPY_RR, (1, 2)),
    ("rr-spy-ft-k60", f"{SPY_RR} --max-infections 60", (1, 2)),
    # Trickle first reports on the tree pick each slot as it is served.
    ("tree-trickle-ft",
     "simulate --protocol trickle --graph tree --d 4 --estimator first-timestamp --trials 200",
     (1, 2)),
    ("rr-compare", f"{RR_COMPARE} --trials 200", (1, 2)),
    # 333 trials at 3 workers: chunks of 128, 128 and 77 trials, over 6
    # blocks of 64.
    ("rr-compare-ragged", f"{RR_COMPARE} --trials 333", (1, 3)),
    # 100 trials at 3 workers are 2 chunks of whole blocks, fewer than the
    # workers: the call runs on 2 processes, itself and one child.
    ("rr-few-chunks", "simulate --protocol diffusion --graph random-regular --n 200 --d 4 "
                      "--estimator first-timestamp --trials 100", (1, 3)),
    # A loaded snapshot draws each trial's source, so its first-report trials
    # run off any tree root.
    ("file-compare", "compare --graph file --graph-file {circulant} --axis theta "
                     "--values 1,2,3 --trials 300", (1, 2)),
    # Spy first-timestamp trials stop at a first spy drawn before the spread;
    # in trickle, spies infected in its step tie with it, and at p = 0.05 a
    # first spy often comes after the K-th infection, in its last step.  The
    # file graph draws each trial's source first.
    ("rr-trickle-spy",
     f"{TRICKLE_SPY} --graph random-regular --n 200 --d 4 --max-infections 60 --spy-p 0.05",
     (1, 2)),
    ("file-trickle-spy", f"{TRICKLE_SPY} --graph file --graph-file {{circulant}} --spy-p 0.2",
     (1, 2)),
]


class TestSameRowsAtAnyWorkerCount:
    """Each command prints the same rows at both worker counts; only the
    '#' config header, which names the worker count, may differ."""

    @pytest.mark.parametrize("command, workers", [case[1:] for case in WORKER_COUNT_CASES],
                             ids=[case[0] for case in WORKER_COUNT_CASES])
    def test_rows_identical(self, capsys, tmp_path, command, workers):
        circulant = tmp_path / "circulant.edges"
        circulant.write_text("".join(f"{v} {(v + k) % 60}\n" for v in range(60) for k in (1, 7)))
        argv = command.format(circulant=circulant).split()
        rows = []
        for w in workers:
            code, out, _ = run_cli(capsys, *argv, "--workers", str(w))
            assert code == 0
            rows.append([line for line in out.splitlines() if not line.startswith("#")])
        assert rows[0] and rows[0] == rows[1]
