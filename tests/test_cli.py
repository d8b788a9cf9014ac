import errno
import http.client
import json
import re

import click
import pytest
from click.testing import CliRunner

from fogassign.benchnet import MIN_DATASET_LINES, BenchServer, make_dataset
from fogassign.cli import SOLVERS, _host_port, main
from fogassign.scenario import bundled_scenario, load_scenario
from fogassign.solver import solve_uncapacitated

from conftest import assert_one_record_a_line, run_cli, savetxt_dataset


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

    # A plan that breaks a constraint is refused, not written.
    def test_invalid_plan_is_one_error_line(self, runner, tmp_path, monkeypatch):
        base = bundled_scenario("vii_d_base")
        capped = tmp_path / "capped.json"
        base.with_node_capacity("gateway", 2).save(capped)
        monkeypatch.setitem(SOLVERS, "at", lambda _scen: solve_uncapacitated(base))
        res = runner.invoke(main, ["solve", str(capped)])
        assert res.exit_code == 1
        assert res.output == "Error: node gateway: 5 tasks placed, capacity 2\n"

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


    def test_negative_seed_is_a_usage_error(self, runner, base_file):
        res = runner.invoke(main, ["simulate", str(base_file), "--reps", "10", "--seed", "-1"])
        assert res.exit_code == 2, res.output
        assert "--seed" in res.output
        assert "Traceback" not in res.output

    def test_negative_scenario_seed_is_a_clean_error(self, runner, base_file):
        cfg = json.loads(base_file.read_text())
        cfg["seed"] = -1
        base_file.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["simulate", str(base_file), "--reps", "10"])
        assert res.exit_code == 1, res.output
        assert "seed must be an integer >= 0 (got -1)" in res.output
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
        lines = MIN_DATASET_LINES + 1
        res = runner.invoke(main, ["make-dataset", "--out", str(out), "--lines", str(lines)])
        assert res.exit_code == 0
        assert len(out.read_text().splitlines()) == lines

    # Fewer lines than serve accepts are refused too.
    @pytest.mark.parametrize("lines", ["0", "-5", str(MIN_DATASET_LINES - 1)])
    def test_make_dataset_needs_a_line(self, runner, tmp_path, lines):
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["make-dataset", "--out", str(out), "--lines", lines])
        assert res.exit_code == 2
        assert "--lines" in res.output
        assert not out.exists()

    def test_make_dataset_negative_seed_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        res = runner.invoke(main, ["make-dataset", "--out", str(out), "--seed", "-1"])
        assert res.exit_code == 2
        assert "--seed" in res.output
        assert not out.exists()

    # make-dataset, serve, probe and characterize as a user runs them,
    # each in its own process, over loopback.
    def test_probe_and_characterize(self, tmp_path):
        dataset = tmp_path / "dataset.csv"
        made = run_cli("make-dataset", "--out", dataset)
        assert made.returncode == 0, made.stderr
        with run_cli("serve", "--bind", "127.0.0.1:0", "--dataset", dataset,
                     background=True) as server:
            try:
                serving = server.stdout.readline()
                assert serving.startswith("serving on "), serving
                url = serving.split()[2]
                schedule = tmp_path / "schedule.json"
                tasks = {"pic": 5000, "psf": 500, "fsp": 500}
                schedule.write_text(json.dumps({
                    "endpoints": [{"url": url, "task": {"kind": kind, "size": size}}
                                  for kind, size in tasks.items()],
                    "count": 30, "seed": 1,
                }))
                records = tmp_path / "records.csv"
                probed = run_cli("probe", "--schedule", schedule, "--out", records)
            finally:
                server.kill()
        assert probed.returncode == 0, probed.stderr
        assert probed.stdout.decode() == f"wrote 30 records to {records} (0 failures)\n"

        characterized = run_cli("characterize", records)
        assert characterized.returncode == 0, characterized.stderr
        report = json.loads(characterized.stdout)
        assert report["records"] == 30
        assert {key: s["n"] for key, s in report["per_endpoint"].items()} == {
            f"{url}/pic iters=5000": 10, f"{url}/psf lines=500": 10, f"{url}/fsp lines=500": 10}
        # Ten invocations per endpoint, the first of each with no gap: 27
        # gaps are too few for the regime fit, which says so.
        assert report["regimes"]["skipped"]

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
            # The ids are the names these cases have kept since their
            # messages took the form scenario files use.
            pytest.param(
                {"endpoints": [{"url": "http://127.0.0.1:9",
                                "task": {"kind": "pic", "size": 10}}]},
                "missing field 'count'", id="cfg0-missing count"),
            pytest.param(
                {"endpoints": [{"url": "http://127.0.0.1:9", "task": {"kind": "pic", "size": 10}}],
                 "mode": {"kind": "random", "max_s": -1}, "count": 3},
                "mode: max_s must be finite and >= 0", id="cfg1-max_s must be finite and >= 0"),
            pytest.param(
                {"endpoints": [{"url": "http://127.0.0.1:9", "task": {"kind": "pic", "size": 10}},
                               {"url": "http://127.0.0.1:9", "task": {"kind": "nope", "size": 10}}],
                 "count": 3},
                "endpoints[1] task: unknown benchmark kind 'nope'",
                id="cfg2-schedule endpoints[1]: unknown benchmark kind 'nope'"),
            pytest.param(
                {"endpoints": [{"url": "http://127.0.0.1:9",
                                "task": {"kind": "pic", "size": 10.5}}], "count": 3},
                "endpoints[0] task: size must be an integer >= 0 (got 10.5)",
                id="cfg3-schedule endpoints[0].task.size must be int, got 10.5"),
        ],
    )
    def test_probe_bad_schedule_fails_before_sending(self, runner, tmp_path, cfg, message):
        schedule = tmp_path / "sched.json"
        schedule.write_text(json.dumps(cfg))
        out = tmp_path / "r.csv"
        res = runner.invoke(main, ["probe", "--schedule", str(schedule), "--out", str(out)])
        assert res.exit_code == 1
        assert res.output.startswith(f"Error: {schedule}: ") and message in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--bucket-width", "0"], "bucket_width must be finite and > 0"),
            (["--bucket-width", "-5"], "bucket_width must be finite and > 0"),
            (["--bucket-width", "nan"], "bucket_width must be finite and > 0"),
            (["--thresholds", "60", "10"], "thresholds require 0 <= lo < hi"),
            (["--bucket-width", "5e-324"], "bucket_width 4.94066e-324 makes too many band"),
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"kind": "uniform", "lo": 0.1}', "missing field 'hi'"),
            ("[1, 2]", "must be a JSON object (got [1, 2])"),
            ('{"kind": "uniform", "lo": 0.1, "hi": "abc"}', "uniform hi must be a number"),
            ("not json", "not valid JSON: Expecting value"),
            ('{"kind": "empirical", "samples": []}', "at least one sample"),
            ('{"kind": "mixture", "components": 3, "weights": [1.0]}',
             "components must be a list of objects (got 3)"),
            ('{"kind": "empirical", "file": "missing.csv"}', "No such file or directory"),
            ('{"kind": "uniform", "lo": -1e308, "hi": 1e308}', "uniform hi - lo must be finite"),
            ('{"kind": "empirical", "samples": 5}', "samples must be a list of numbers (got 5)"),
            ('{"kind": "mixture", "components": [{"kind": "degenerate", "value": 0.1}], '
             '"weights": {"w": 1.0}}', "weights must be a list of numbers (got {'w': 1.0})"),
            ('{"kind": "mixture", "components": "ab", "weights": [1.0]}',
             "components must be a list of objects (got 'ab')"),
            ('{"kind": "mixture", "components": [0.1], "weights": [1.0]}',
             "components[0]: must be a JSON object (got 0.1)"),
        ],
        ids=["missing-field", "not-a-mapping", "bad-number", "not-json", "no-samples",
             "wrong-type", "missing-file", "overflowing-span", "samples-number",
             "weights-object", "components-string", "component-number"],
    )
    def test_characterize_bad_reference_fails_cleanly(self, runner, tmp_path, text, message):
        records = tmp_path / "records.csv"
        records.write_text(
            "delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
            ",0.12,e,o,1700000000000\n"
            "0.5,0.15,e,o,1700000001000\n"
        )
        reference = tmp_path / "ref.json"
        reference.write_text(text)
        res = runner.invoke(main, ["characterize", str(records), "--reference", str(reference)])
        assert res.exit_code == 1, res.output
        assert f"Error: reference {reference}: " in res.output
        assert message in res.output

    @pytest.mark.parametrize(
        "text, message",
        [
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
             "0.5,0.12,e,o,1700000000000\n0.5,abc,e,o,1700000000500\n",
             "line 3: column 'latency_s': time 'abc' must be a finite ASCII decimal number"),
            ("delta_t_s,latency_s,endpoint,timestamp_unix_ms\n0.5,0.12,e,1700000000000\n",
             "line 1: missing column 'option'"),
        ],
        ids=["bad-number", "missing-column"],
    )
    def test_characterize_malformed_records_fail_cleanly(self, runner, tmp_path, text, message):
        records = tmp_path / "records.csv"
        records.write_text(text)
        res = runner.invoke(main, ["characterize", str(records)])
        assert res.exit_code == 1, res.output
        assert f"Error: {records}: {message}" in res.output

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

    def test_characterize_skip_counts_gaps_not_records(self, runner, tmp_path):
        # 30 round-robin invocations of three endpoints: the first of each
        # has no gap, so the fit sees 27 gaps and says why.
        lines = ["delta_t_s,latency_s,endpoint,option,timestamp_unix_ms,status"]
        for i in range(30):
            gap = "" if i < 3 else "0.030000"
            lines.append(f"{gap},0.0{1 + i % 3}0000,e{i % 3},o,{1700000000000 + 10 * i},ok")
        records = tmp_path / "records.csv"
        records.write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["characterize", str(records)])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["records"] == 30
        assert [s["n"] for s in report["per_endpoint"].values()] == [10, 10, 10]
        assert report["regimes"] == {"skipped": (
            "need at least 30 gaps, got 27 (3 of the 30 ok records have no gap; "
            "the first invocation of each endpoint and option has none)")}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", [["solve"], ["baseline", "--strategy", "min-latency"]],
                         ids=["solve", "baseline"])
def test_stdout_matches_out_file(runner, base_file, tmp_path, command, fmt):
    args = [command[0], str(base_file), *command[1:], "--format", fmt]
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0, printed.output
    out = tmp_path / f"plan.{fmt}"
    written = runner.invoke(main, [*args, "--out", str(out)])
    assert written.exit_code == 0, written.output
    assert written.output == f"wrote {out}\n"
    assert printed.stdout_bytes == out.read_bytes()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", ["solve", "baseline", "simulate", "characterize",
                                     "scenarios", "probe", "make-dataset"])
def test_unwritable_out_is_a_clean_error(runner, base_file, tmp_path, monkeypatch,
                                         command, where):
    records = tmp_path / "records.csv"
    records.write_text(
        "delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
        ",0.12,e,o,1700000000000\n"
    )
    schedule = tmp_path / "sched.json"
    schedule.write_text(json.dumps({
        "endpoints": [{"url": "http://127.0.0.1:9", "task": {"kind": "pic", "size": 10}}],
        "count": 2,
    }))

    def no_request(*args, **kwargs):
        raise AssertionError("probe sent a request before opening --out")

    monkeypatch.setattr(http.client.HTTPConnection, "connect", no_request)
    args = {
        "solve": ["solve", str(base_file)],
        "baseline": ["baseline", str(base_file), "--strategy", "min-latency"],
        "simulate": ["simulate", str(base_file), "--reps", "10"],
        "characterize": ["characterize", str(records)],
        "scenarios": ["scenarios", "--export", "vii_d_base"],
        "probe": ["probe", "--schedule", str(schedule)],
        "make-dataset": ["make-dataset"],
    }[command]
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out"
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"Error: cannot write {out}: " in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["solve", "{d}"],
    ["baseline", "{d}", "--strategy", "min-latency"],
    ["simulate", "{d}"],
    ["characterize", "{d}"],
    ["characterize", "{records}", "--reference", "{d}"],
    ["serve", "--dataset", "{d}"],
    ["probe", "--schedule", "{d}", "--out", "{d}/out.csv"],
], ids=["solve", "baseline", "simulate", "characterize", "characterize-reference",
        "serve", "probe"])
def test_directory_input_is_a_usage_error(runner, tmp_path, args):
    records = tmp_path / "records.csv"
    records.write_text("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n")
    d = tmp_path / "dir"
    d.mkdir()
    res = runner.invoke(main, [a.format(d=d, records=records) for a in args])
    assert res.exit_code == 2, res.output
    assert f"'{d}' is a directory" in res.output
    assert "Traceback" not in res.output


def test_every_existing_path_input_refuses_directories():
    inputs = [
        (name, p.name, p.type.dir_okay) for name, cmd in main.commands.items()
        for p in cmd.params if isinstance(p.type, click.Path) and p.type.exists
    ]
    assert len(inputs) >= 7, inputs  # the walk finds the inputs it guards
    assert [(name, param) for name, param, dir_okay in inputs if dir_okay] == []


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


def test_scenarios_export_requires_out(runner):
    res = runner.invoke(main, ["scenarios", "--export", "vii_d_base"])
    assert res.exit_code == 1
    assert res.output == "Error: --export requires --out\n"


# Both writers as a user runs them: the exported scenario is the bundled one,
# one record a line, and the dataset is the one np.savetxt wrote.
def test_export_and_make_dataset_as_processes(tmp_path):
    scenario, dataset = tmp_path / "X.json", tmp_path / "D.csv"
    run = run_cli("scenarios", "--export", "vii_d_base", "--out", scenario)
    assert (run.returncode, run.stdout, run.stderr) == (0, f"wrote {scenario}\n".encode(), b"")
    bundled = bundled_scenario("vii_d_base")
    assert load_scenario(scenario).content_hash() == bundled.content_hash()
    assert_one_record_a_line(scenario, bundled.to_config())
    run = run_cli("make-dataset", "--out", dataset, "--seed", "3")
    assert (run.returncode, run.stderr) == (0, b""), run.stderr
    assert dataset.read_bytes() == savetxt_dataset(tmp_path / "oracle.csv", MIN_DATASET_LINES, 3)


def test_serve_requires_valid_dataset(runner, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("1.0\n2.0\n")
    res = runner.invoke(main, ["serve", "--dataset", str(short), "--bind", "127.0.0.1:0"])
    assert res.exit_code != 0
    assert "at least" in res.output


def _raises(exc):
    def call(*args, **kwargs):
        raise exc
    return call


def test_serve_refuses_a_non_finite_dataset(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(BenchServer, "serve_forever", _raises(AssertionError("served")))
    dataset = make_dataset(tmp_path / "data.csv", seed=3)
    lines = dataset.read_text().splitlines()
    lines[2] = "nan,1.0,2.0"
    dataset.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["serve", "--dataset", str(dataset), "--bind", "127.0.0.1:0"])
    assert res.exit_code == 1, res.output
    assert res.output == (
        f"Error: dataset {dataset}: line 3 ('nan,1.0,2.0') is not a finite number\n")


@pytest.mark.parametrize("args", [["solve"], ["baseline", "--strategy", "min-latency"],
                                  ["simulate", "--reps", "10"]],
                         ids=["solve", "baseline", "simulate"])
def test_scenario_that_is_not_utf8_is_named(runner, tmp_path, args):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "\xff"}')
    res = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output == (f"Error: {path}: not valid JSON: 'utf-8' codec can't decode byte 0xff "
                          "in position 10: invalid start byte\n")


def _mu_scenario(tmp_path):
    """The bundled base scenario with a task id, t\u00b5, that ASCII cannot encode."""
    text = json.dumps(bundled_scenario("vii_d_base").to_config(), ensure_ascii=False)
    scenario = tmp_path / "mu.json"
    scenario.write_text(text.replace('"t01"', '"t\u00b5"'), encoding="utf-8")
    return scenario


def test_plan_csv_is_written_as_utf8_whatever_the_locale(tmp_path):
    scenario = _mu_scenario(tmp_path)
    out = tmp_path / "mu.csv"
    solved = run_cli("solve", scenario, "--format", "csv", "--out", out)
    assert solved.returncode == 0, solved.stderr
    assert "\nt\u00b5,".encode() in out.read_bytes()


def test_stdout_that_cannot_encode_the_plan_is_one_error_line(tmp_path):
    solved = run_cli("solve", _mu_scenario(tmp_path), "--format", "csv")
    assert solved.returncode == 1
    assert solved.stdout == b""
    assert solved.stderr.decode() == (
        "Error: cannot write stdout: 'ascii' codec can't encode character '\\xb5' in "
        "position 42: ordinal not in range(128); --out writes UTF-8\n")


def test_reference_is_read_as_utf8_whatever_the_locale(tmp_path):
    # The reference fails on its kind, not on its bytes.
    records = tmp_path / "records.csv"
    records.write_text("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
                       ",0.12,e,o,1700000000000\n0.5,0.15,e,o,1700000001000\n")
    reference = tmp_path / "ref.json"
    reference.write_text('{"kind": "\u00b5"}', encoding="utf-8")
    scored = run_cli("characterize", records, "--reference", reference)
    assert scored.returncode == 1, scored.stderr
    error = scored.stderr.decode("utf-8", errors="replace")
    assert error.startswith(f"Error: reference {reference}: unknown distribution kind "), error

    # An empirical reference's sample file is UTF-8 too: a comment may say µs.
    (tmp_path / "samples.txt").write_text("# \u00b5s\n0.1\n0.2\n", encoding="utf-8")
    reference.write_text('{"kind": "empirical", "file": "samples.txt"}')
    scored = run_cli("characterize", records, "--reference", reference)
    assert scored.returncode == 0, scored.stderr
    assert "reference_distance" in json.loads(scored.stdout)


# A scenario whose one latency model is an empirical law read from samples.csv.
_EMPIRICAL = json.dumps({
    "nodes": [{"id": "a", "options": ["x"]}],
    "tasks": [{"id": "t", "utility": {"kind": "step", "tv": 1.0},
               "intrinsic": [{"node": "a", "option": "x", "value": 1.0}]}],
    "latency": [{"node": "a", "option": "x",
                 "dist": {"kind": "empirical", "file": "samples.csv"}}],
})


# A malformed input file: exit status 1, and the one line printed, to
# stderr, is an Error: line naming the file.  No traceback or warning from a
# reader goes before it.
@pytest.mark.parametrize("files, args, line", [
    pytest.param({"scenario.json": '{"nodes": [], "tasks": {}}'}, ["solve", "scenario.json"],
                 "scenario.json: invalid scenario config: tasks must be a list of objects (got {})",
                 id="scenario"),
    pytest.param({"schedule.json": '{"endpoints": {"url": "http://127.0.0.1:9"}, "count": 1}'},
                 ["probe", "--schedule", "schedule.json", "--out", "out.csv"],
                 "schedule.json: endpoints must be a list of objects "
                 "(got {'url': 'http://127.0.0.1:9'})",
                 id="schedule"),
    pytest.param({"records.csv": "delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
                                 ",0.1,e,o,0\n",
                  "reference.json": "not json\n"},
                 ["characterize", "records.csv", "--reference", "reference.json"],
                 "reference reference.json: not valid JSON: Expecting value: line 1 column 1 "
                 "(char 0)",
                 id="reference"),
    pytest.param({"samples.csv": "", "empirical.json": _EMPIRICAL}, ["solve", "empirical.json"],
                 "empirical.json: latency[0] dist: empirical distribution needs at least one "
                 "sample, got zero samples",
                 id="empty-samples"),
    pytest.param({"samples.csv": "0.1 0.2\n", "empirical.json": _EMPIRICAL},
                 ["solve", "empirical.json"],
                 "empirical.json: latency[0] dist: samples.csv: line 1 ('0.1 0.2') is not a "
                 "finite number",
                 id="two-samples-on-a-line"),
    pytest.param({"samples.csv": "0.1\n0.2 0.3\n", "empirical.json": _EMPIRICAL},
                 ["solve", "empirical.json"],
                 "empirical.json: latency[0] dist: samples.csv: line 2 ('0.2 0.3') is not a "
                 "finite number",
                 id="two-samples-on-a-later-line"),
    pytest.param({"empty.csv": ""}, ["serve", "--dataset", "empty.csv", "--bind", "127.0.0.1:0"],
                 f"dataset empty.csv: 0 values; at least {MIN_DATASET_LINES} required",
                 id="empty-dataset"),
])
def test_malformed_input_is_one_error_line(tmp_path, files, args, line):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    run = run_cli(*args, cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr.decode()) == (1, b"", f"Error: {line}\n")


def test_dataset_is_read_as_utf8_whatever_the_locale(tmp_path):
    dataset = make_dataset(tmp_path / "data.csv", seed=3)
    dataset.write_bytes("# \u00b5s\n".encode() + dataset.read_bytes())
    started = run_cli(dataset, code="import sys; from fogassign.benchnet import "
                                    "BenchServer; BenchServer(('127.0.0.1', 0), "
                                    "sys.argv[1]).server_close()")
    assert started.returncode == 0, started.stderr


# Each command that reads input, and a library call it makes.
@pytest.mark.parametrize("exc_type", [ValueError, OSError])
@pytest.mark.parametrize("args, target", [
    (["solve", "{scenario}"], "load_scenario"),
    (["baseline", "{scenario}", "--strategy", "min-latency"], "run_baseline"),
    (["simulate", "{scenario}", "--reps", "10"], "simulate"),
    (["reproduce", "uncap_split"], "repro.run_experiment"),
    (["characterize", "{records}"], "benchnet.load_probe_rows"),
    (["fit-gev", "--median", "0.34", "--p10", "0.31", "--p90", "0.41"], "gev_from_quantiles"),
    (["serve", "--dataset", "{records}", "--bind", "127.0.0.1:0"], "benchnet.BenchServer"),
    (["probe", "--schedule", "{records}", "--out", "{records}.out"], "benchnet.load_schedule"),
    (["scenarios"], "bundled_scenario_names"),
    (["scenarios", "--export", "vii_d_base", "--out", "{records}.out"], "bundled_scenario"),
], ids=["solve", "baseline", "simulate", "reproduce", "characterize", "fit-gev", "serve",
        "probe", "scenarios", "scenarios-export"])
def test_every_command_reports_a_library_error_as_one_line(runner, base_file, tmp_path,
                                                           monkeypatch, args, target, exc_type):
    records = tmp_path / "records.csv"
    records.write_text("")
    monkeypatch.setattr(f"fogassign.cli.{target}", _raises(exc_type("boom")))
    res = runner.invoke(main, [a.format(scenario=base_file, records=records) for a in args])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output == "Error: boom\n"


def test_closed_stdout_is_not_an_error_line(runner, monkeypatch):
    # click's own handling: exit 1 and nothing more written.
    monkeypatch.setattr("fogassign.cli.bundled_scenario_names",
                        _raises(BrokenPipeError(errno.EPIPE, "Broken pipe")))
    res = runner.invoke(main, ["scenarios"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == ""


@pytest.mark.parametrize("bind", ["127.0.0.1:99999", "127.0.0.1:-1", "127.0.0.1:http"])
def test_serve_bad_port_is_a_usage_error(runner, tmp_path, bind):
    dataset = make_dataset(tmp_path / "data.csv", seed=3)
    res = runner.invoke(main, ["serve", "--dataset", str(dataset), "--bind", bind])
    assert res.exit_code == 2, res.output
    assert "--bind" in res.output
    assert "Traceback" not in res.output


# Through the callback, not `serve`: a value wrongly taken as a port would
# start a server that runs until interrupted.
@pytest.mark.parametrize("bind", ["127.0.0.1:8_080", "127.0.0.1: 80", "127.0.0.1:+80",
                                  "127.0.0.1:\u0668\u0660", "127.0.0.1:80 "])
def test_bind_port_is_ascii_digits(bind):
    with pytest.raises(click.BadParameter, match="port in 0-65535"):
        _host_port(None, None, bind)


@pytest.mark.parametrize("bind, want", [("127.0.0.1:0", ("127.0.0.1", 0)),
                                        ("0.0.0.0:65535", ("0.0.0.0", 65535)),
                                        ("localhost", ("localhost", 8080))])
def test_bind_reads_host_and_port(bind, want):
    assert _host_port(None, None, bind) == want


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
