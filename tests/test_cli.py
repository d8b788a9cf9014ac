import json
import re

import pytest
from click.testing import CliRunner

from fogassign.benchnet import BenchServer, make_dataset, start_server
from fogassign.cli import main
from fogassign.scenario import bundled_scenario


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def base_file(tmp_path):
    path = tmp_path / "base.json"
    bundled_scenario("vii_d_base").save(path)
    return path


class TestSolve:
    def test_json_to_stdout(self, runner, base_file):
        res = runner.invoke(main, ["solve", str(base_file), "--solver", "ua"])
        assert res.exit_code == 0, res.output
        record = json.loads(res.output)
        assert record["solver"] == "ua"
        assert record["total_utility"] == pytest.approx(5.08432143, abs=1e-6)
        assert len(record["tasks"]) == 10
        assert "scenario_hash" in record

    def test_csv_file(self, runner, base_file, tmp_path):
        out = tmp_path / "plan.csv"
        res = runner.invoke(
            main, ["solve", str(base_file), "--solver", "at", "--format", "csv",
                   "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0] == "task_id,status,node,option,utility,risk"
        assert len(lines) == 11

    def test_oracle_solver(self, runner, base_file):
        res = runner.invoke(main, ["solve", str(base_file), "--solver", "oracle"])
        assert res.exit_code == 0
        assert json.loads(res.output)["solver"] == "oracle"

    def test_missing_file(self, runner):
        assert runner.invoke(main, ["solve", "nope.json"]).exit_code != 0

    def test_wrong_solver_is_clean_error(self, runner, tmp_path):
        capped = tmp_path / "capped.json"
        bundled_scenario("vii_d_base").with_node_capacity("gateway", 2).save(capped)
        res = runner.invoke(main, ["solve", str(capped), "--solver", "ua"])
        assert res.exit_code != 0
        assert "solve_capacitated" in res.output
        assert "Traceback" not in res.output


class TestBaseline:
    def test_min_latency(self, runner, base_file):
        res = runner.invoke(
            main, ["baseline", str(base_file), "--strategy", "min-latency"]
        )
        assert res.exit_code == 0, res.output
        record = json.loads(res.output)
        assert all(row["node"] == "gateway" for row in record["tasks"])


class TestSimulateCmd:
    def test_small_run(self, runner, base_file):
        res = runner.invoke(
            main,
            ["simulate", str(base_file), "--reps", "2000", "--seed", "7",
             "--solver", "ua", "--with-baselines"],
        )
        assert res.exit_code == 0, res.output
        record = json.loads(res.output)
        assert record["reps"] == 2000
        assert abs(record["overall_mean"] - 0.5084) < 0.02
        assert set(record["baselines"]) == {"min-latency", "max-quality"}

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_non_positive_reps_is_a_usage_error(self, runner, base_file, reps):
        res = runner.invoke(main, ["simulate", str(base_file), "--reps", reps])
        assert res.exit_code == 2, res.output
        assert "--reps" in res.output
        assert "Traceback" not in res.output


class TestReproduceCmd:
    def test_single_experiment(self, runner):
        res = runner.invoke(main, ["reproduce", "uncap_split"])
        assert res.exit_code == 0, res.output
        assert "PASS" in res.output

    def test_timing_goes_to_stderr(self, runner):
        res = runner.invoke(main, ["reproduce", "uncap_split"])
        assert res.exit_code == 0, res.output
        assert re.fullmatch(r"  \(uncap_split: \d+\.\d\ds\)\n", res.stderr)
        assert res.stderr.strip() not in res.stdout

    def test_unknown_experiment(self, runner):
        res = runner.invoke(main, ["reproduce", "bogus"])
        assert res.exit_code != 0
        assert "unknown experiment" in res.output


class TestFitGev:
    def test_fits_measured_summary(self, runner):
        res = runner.invoke(
            main, ["fit-gev", "--median", "0.34", "--p10", "0.31", "--p90", "0.41"]
        )
        assert res.exit_code == 0, res.output
        cfg = json.loads(res.output)
        assert cfg["kind"] == "gev" and 0 < cfg["shape"] <= 2

    def test_infeasible_summary_fails_cleanly(self, runner):
        res = runner.invoke(
            main, ["fit-gev", "--median", "4.40", "--p10", "4.01", "--p90", "4.77"]
        )
        assert res.exit_code != 0
        assert "too symmetric" in res.output


class TestBenchCommands:
    def test_make_dataset(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["make-dataset", "--out", str(out), "--lines", "100"])
        assert res.exit_code == 0
        assert len(out.read_text().splitlines()) == 100

    @pytest.mark.parametrize("lines", ["0", "-5"])
    def test_make_dataset_needs_a_line(self, runner, tmp_path, lines):
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["make-dataset", "--out", str(out), "--lines", lines])
        assert res.exit_code == 2
        assert "--lines" in res.output
        assert not out.exists()

    def test_probe_and_characterize(self, runner, tmp_path):
        dataset = make_dataset(tmp_path / "data.csv", seed=3)
        server, _ = start_server(dataset, allow_out_of_range=True)
        try:
            schedule = tmp_path / "sched.json"
            schedule.write_text(json.dumps({
                "endpoints": [
                    {"url": server.url, "task": {"kind": "pic", "size": 10}},
                ],
                "mode": {"kind": "round_robin"},
                "count": 8,
            }))
            records = tmp_path / "records.csv"
            res = runner.invoke(
                main, ["probe", "--schedule", str(schedule), "--out", str(records)]
            )
            assert res.exit_code == 0, res.output
            assert "8 records" in res.output

            res = runner.invoke(main, ["characterize", str(records)])
            assert res.exit_code == 0, res.output
            report = json.loads(res.output)
            key = f"{server.url}/pic iters=10"
            assert report["per_endpoint"][key]["n"] == 8
            assert "skipped" in report["regimes"]  # no cold-regime gaps here
        finally:
            server.shutdown()
            server.server_close()

    def test_probe_unusable_url_is_clean_error(self, runner, tmp_path):
        schedule = tmp_path / "sched.json"
        schedule.write_text(json.dumps({
            "endpoints": [{"url": "not-a-url", "task": {"kind": "pic", "size": 10}}],
            "count": 2,
        }))
        res = runner.invoke(main, ["probe", "--schedule", str(schedule),
                                   "--out", str(tmp_path / "r.csv")])
        assert res.exit_code == 1
        assert "unknown url type" in res.output

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"endpoints": [{"url": "http://127.0.0.1:9", "task": {"kind": "pic", "size": 10}}]},
             "missing count"),
            ({"endpoints": [{"url": "http://127.0.0.1:9", "task": {"kind": "pic", "size": 10}}],
              "mode": {"kind": "random", "max_s": -1}, "count": 3},
             "max_s must be finite and >= 0"),
        ],
    )
    def test_probe_bad_schedule_fails_before_sending(self, runner, tmp_path, cfg, message):
        schedule = tmp_path / "sched.json"
        schedule.write_text(json.dumps(cfg))
        out = tmp_path / "r.csv"
        res = runner.invoke(main, ["probe", "--schedule", str(schedule), "--out", str(out)])
        assert res.exit_code == 1
        assert "Error: schedule" in res.output and message in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--bucket-width", "0"], "bucket_width must be finite and > 0"),
            (["--bucket-width", "-5"], "bucket_width must be finite and > 0"),
            (["--bucket-width", "nan"], "bucket_width must be finite and > 0"),
            (["--thresholds", "60", "10"], "thresholds require 0 <= lo < hi"),
        ],
    )
    def test_characterize_bad_arguments_fail_cleanly(self, runner, tmp_path, args, message):
        # 60 records whose gaps span the warm, mixed and cold regimes.
        records = tmp_path / "records.csv"
        records.write_text(
            "delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
            + "".join(f"{1.5 * i},{0.1 + 0.01 * (i % 7)},e,o,{1700000000000 + i}\n"
                      for i in range(60))
        )
        assert runner.invoke(main, ["characterize", str(records)]).exit_code == 0
        res = runner.invoke(main, ["characterize", str(records), *args])
        assert res.exit_code == 1
        assert f"Error: {message}" in res.output

    def test_characterize_skips_empty_latency_cells(self, runner, tmp_path):
        # The five-column format has no status, so an empty latency cell
        # reads as an ok row with no latency; it must not reach the fits.
        records = tmp_path / "records.csv"
        records.write_text(
            "delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
            ",0.12,e,o,1700000000000\n"
            "0.5,,e,o,1700000000500\n"
            "0.5,0.15,e,o,1700000001000\n"
        )
        reference = tmp_path / "ref.json"
        reference.write_text(json.dumps({"kind": "uniform", "lo": 0.1, "hi": 0.2}))
        res = runner.invoke(main, ["characterize", str(records), "--reference", str(reference)])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["per_endpoint"]["e o"]["n"] == 2
        assert 0.0 <= report["reference_distance"]["max"] <= 1.0


def test_scenarios_listing(runner):
    res = runner.invoke(main, ["scenarios"])
    assert res.exit_code == 0
    assert "vii_d_base" in res.output


def test_scenarios_export_round_trips(runner, tmp_path):
    out = tmp_path / "exported.json"
    res = runner.invoke(main, ["scenarios", "--export", "vii_d_base", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["solve", str(out), "--solver", "ua"])
    assert res.exit_code == 0
    assert json.loads(res.output)["total_utility"] == pytest.approx(5.08432143, abs=1e-6)
    res = runner.invoke(main, ["scenarios", "--export", "bogus", "--out", str(out)])
    assert res.exit_code != 0


def test_serve_requires_valid_dataset(runner, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("1.0\n2.0\n")
    res = runner.invoke(main, ["serve", "--dataset", str(short), "--bind", "127.0.0.1:0"])
    assert res.exit_code != 0
    assert "at least" in res.output


def test_serve_closes_its_socket_on_ctrl_c(runner, tmp_path, monkeypatch):
    dataset = make_dataset(tmp_path / "data.csv", seed=3)
    served = []

    def interrupt(self):  # runs inside serve_forever's loop, as a Ctrl-C would
        served.append(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(BenchServer, "service_actions", interrupt)
    res = runner.invoke(main, ["serve", "--dataset", str(dataset), "--bind", "127.0.0.1:0"])
    assert res.exit_code == 0, res.output
    assert "serving on" in res.output
    assert served[0].socket.fileno() == -1
