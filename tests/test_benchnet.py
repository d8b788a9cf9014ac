import csv
import json
import math
import socket
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from fogassign.benchnet import (
    FSP_MAX_BODY_BYTES,
    BenchTask,
    EmptySummaryError,
    ProbeRow,
    ProbeSchedule,
    ProbeTarget,
    leibniz_pi,
    load_probe_rows,
    load_schedule,
    make_dataset,
    nearest_rank,
    probe,
    start_server,
    summarize,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return make_dataset(tmp_path_factory.mktemp("data") / "dataset.csv", seed=7)


@pytest.fixture(scope="module")
def server(dataset):
    srv, _thread = start_server(dataset, allow_out_of_range=True)
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture(scope="module")
def strict_server(dataset):
    srv, _thread = start_server(dataset, allow_out_of_range=False)
    yield srv
    srv.shutdown()
    srv.server_close()


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read().decode())


def welford(values):
    """Independent one-pass reference for mean/population-stdev/min/max."""
    mean, m2, lo, hi = 0.0, 0.0, math.inf, -math.inf
    for i, x in enumerate(values, start=1):
        delta = x - mean
        mean += delta / i
        m2 += delta * (x - mean)
        lo, hi = min(lo, x), max(hi, x)
    return mean, math.sqrt(m2 / len(values)), lo, hi


class TestServer:
    def test_pic_single_iteration_is_exactly_four(self, server):
        assert get_json(f"{server.url}/pic?iters=1")["result"] == 4.0

    def test_pic_matches_reference_series(self, server):
        want = 4 * sum((-1) ** k / (2 * k + 1) for k in range(5))
        assert get_json(f"{server.url}/pic?iters=5")["result"] == pytest.approx(want, abs=1e-12)

    def test_pic_deterministic(self, server):
        a = get_json(f"{server.url}/pic?iters=2000")["result"]
        b = get_json(f"{server.url}/pic?iters=2000")["result"]
        assert a == b  # bit-identical

    def test_leibniz_converges(self):
        assert leibniz_pi(200_000) == pytest.approx(math.pi, abs=1e-4)

    def test_psf_matches_independent_oracle(self, server, dataset):
        resp = get_json(f"{server.url}/psf?lines=500")
        ref = np.loadtxt(dataset, delimiter=",")[:500, 0]
        mean, stdev, lo, hi = welford(ref.tolist())
        assert resp["mean"] == pytest.approx(mean, rel=1e-9)
        assert resp["stdev"] == pytest.approx(stdev, rel=1e-9)
        assert resp["min"] == pytest.approx(lo, rel=1e-9)
        assert resp["max"] == pytest.approx(hi, rel=1e-9)
        assert resp["exec_ms"] >= 0.0

    def test_fsp_matches_independent_oracle(self, server):
        values = [((i * 37) % 1000) + 0.5 for i in range(500)]
        body = "\n".join(f"{v:.3f}" for v in values).encode()
        req = urllib.request.Request(
            f"{server.url}/fsp?lines=500", data=body,
            headers={"Content-Type": "text/csv"}, method="POST",
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            payload = json.loads(resp.read().decode())
        mean, stdev, lo, hi = welford(values)
        assert payload["mean"] == pytest.approx(mean, rel=1e-9)
        assert payload["stdev"] == pytest.approx(stdev, rel=1e-9)
        assert payload["min"] == pytest.approx(lo, rel=1e-9)
        assert payload["max"] == pytest.approx(hi, rel=1e-9)

    @pytest.mark.parametrize(
        "path",
        ["/pic", "/pic?iters=abc", "/psf?lines=0", "/nope?x=1"],
    )
    def test_malformed_requests_rejected(self, server, path):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(f"{server.url}{path}")
        err.value.close()
        assert err.value.code in (400, 404)

    def test_empty_fsp_body_rejected(self, server):
        req = urllib.request.Request(f"{server.url}/fsp", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        err.value.close()
        assert err.value.code == 400

    def test_negative_content_length_rejected_without_waiting(self, server):
        host, port = server.server_address[:2]
        request = (b"POST /fsp HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n"
                   b"Connection: close\r\n\r\n1.0\n")
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request)  # the connection stays open: no EOF to read to
            with sock.makefile("rb") as reply:
                status_line = reply.readline()
        assert status_line.split()[1] == b"400"

    def test_oversized_body_rejected_without_reading(self, server):
        host, port = server.server_address[:2]
        request = (b"POST /fsp HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: %d\r\n\r\n" % (FSP_MAX_BODY_BYTES + 1))
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request)  # headers only: a server reading the body waits
            with sock.makefile("rb") as reply:
                status_line = reply.readline()
        assert status_line.split()[1] == b"413"

    def test_range_enforced_without_override(self, strict_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(f"{strict_server.url}/pic?iters=1")
        assert err.value.code == 400
        assert "range" in json.loads(err.value.read().decode())["error"]
        assert get_json(f"{strict_server.url}/pic?iters=5000")["result"] == pytest.approx(
            leibniz_pi(5000)
        )

    def test_missing_dataset_is_startup_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            start_server(tmp_path / "missing.csv")

    def test_short_dataset_is_startup_error(self, tmp_path):
        short = make_dataset(tmp_path / "short.csv", lines=100, seed=1)
        with pytest.raises(ValueError, match="at least"):
            start_server(short)


class TestBenchTask:
    def test_ranges(self):
        assert BenchTask("pic", 5000).range_ok()
        assert not BenchTask("pic", 1).range_ok()
        assert BenchTask("psf", 50_000).range_ok()
        assert not BenchTask("fsp", 50_000).range_ok()

    def test_invalid(self):
        with pytest.raises(ValueError):
            BenchTask("nope", 10)
        with pytest.raises(ValueError):
            BenchTask("pic", 0)


class TestProbe:
    def test_round_robin_alternates_and_succeeds(self, server, tmp_path):
        schedule = ProbeSchedule(
            targets=(
                ProbeTarget(server.url, BenchTask("pic", 10)),
                ProbeTarget(server.url, BenchTask("psf", 500)),
            ),
            count=10,
        )
        rows = probe(schedule, tmp_path / "records.csv")
        assert len(rows) == 10
        assert all(r.status == "ok" for r in rows)
        kinds = [r.endpoint.rsplit("/", 1)[-1] for r in rows]
        assert kinds == ["pic", "psf"] * 5
        # end-to-end latency includes transport, so it bounds server time
        assert all(r.latency_s >= r.exec_ms / 1000.0 for r in rows)
        # first row per endpoint has no gap; later rows do
        assert math.isnan(rows[0].delta_t_s) and math.isnan(rows[1].delta_t_s)
        assert all(not math.isnan(r.delta_t_s) for r in rows[2:])

    def test_fixed_gap_paces_invocations(self, server, tmp_path):
        schedule = ProbeSchedule(
            targets=(ProbeTarget(server.url, BenchTask("pic", 10)),),
            count=5,
            mode="fixed",
            delta_s=0.05,
        )
        rows = probe(schedule, tmp_path / "paced.csv")
        for r in rows[1:]:
            assert 0.05 - 1e-3 <= r.delta_t_s <= 0.05 + 0.5  # generous slack bound

    def test_builds_each_request_once_per_run(self, server, tmp_path, monkeypatch):
        calls = []
        build = ProbeTarget.build_request

        def counting(self):
            calls.append(self.task.kind)
            return build(self)

        monkeypatch.setattr(ProbeTarget, "build_request", counting)
        schedule = ProbeSchedule(
            targets=(
                ProbeTarget(server.url, BenchTask("pic", 10)),
                ProbeTarget(server.url, BenchTask("fsp", 500)),
            ),
            count=6,
        )
        rows = probe(schedule, tmp_path / "once.csv")
        assert [r.status for r in rows] == ["ok"] * 6
        assert calls == ["pic", "fsp"]

    def test_request_building_is_not_timed(self, server, tmp_path, monkeypatch):
        build = ProbeTarget.build_request

        def slow(self):
            time.sleep(0.2)
            return build(self)

        monkeypatch.setattr(ProbeTarget, "build_request", slow)
        schedule = ProbeSchedule(
            targets=(ProbeTarget(server.url, BenchTask("pic", 10)),), count=3
        )
        rows = probe(schedule, tmp_path / "slow.csv")
        assert [r.status for r in rows] == ["ok"] * 3
        assert all(r.latency_s < 0.2 for r in rows)

    def test_fsp_request_is_resent_intact(self, server, tmp_path):
        # One prebuilt POST request goes out six times; a body that could be
        # sent only once would come back 400 (empty body) or time out.
        schedule = ProbeSchedule(
            targets=(ProbeTarget(server.url, BenchTask("fsp", 500)),), count=6, timeout_s=5.0
        )
        rows = probe(schedule, tmp_path / "fsp.csv")
        assert [r.status for r in rows] == ["ok"] * 6

    def test_unusable_url_fails_before_sending(self, tmp_path):
        schedule = ProbeSchedule(
            targets=(ProbeTarget("not-a-url", BenchTask("pic", 10)),), count=2
        )
        with pytest.raises(ValueError):
            probe(schedule, tmp_path / "bad.csv")
        assert not (tmp_path / "bad.csv").exists()

    def test_dead_endpoint_recorded_not_dropped(self, tmp_path):
        schedule = ProbeSchedule(
            targets=(ProbeTarget("http://127.0.0.1:9", BenchTask("pic", 10)),),
            count=3,
            timeout_s=2.0,
        )
        out = tmp_path / "dead.csv"
        rows = probe(schedule, out)
        assert len(rows) == 3
        assert all(r.status == "connection_error" for r in rows)
        with out.open() as fh:
            parsed = list(csv.reader(fh))
        assert len(parsed) == 4  # header + 3 rows, still valid CSV
        loaded = load_probe_rows(out)
        assert [r.status for r in loaded] == ["connection_error"] * 3

    def test_csv_round_trip(self, server, tmp_path):
        schedule = ProbeSchedule(
            targets=(ProbeTarget(server.url, BenchTask("pic", 10)),), count=4
        )
        out = tmp_path / "rt.csv"
        rows = probe(schedule, out)
        header = out.read_text().splitlines()[0]
        assert header == "delta_t_s,latency_s,endpoint,option,timestamp_unix_ms,status"
        loaded = load_probe_rows(out)
        assert [r.endpoint for r in loaded] == [r.endpoint for r in rows]
        assert loaded[2].latency_s == pytest.approx(rows[2].latency_s, abs=1e-6)

    def test_reads_five_column_files(self, tmp_path):
        # the shared characterization format has no status column
        legacy = tmp_path / "legacy.csv"
        legacy.write_text(
            "delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
            "0.5,0.12,e,o,1700000000000\n"
        )
        rows = load_probe_rows(legacy)
        assert rows[0].status == "ok"
        assert rows[0].latency_s == 0.12

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ProbeSchedule(targets=(), count=1)
        with pytest.raises(ValueError):
            ProbeSchedule(
                targets=(ProbeTarget("http://x", BenchTask("pic", 10)),),
                count=0,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta_s", -1.0),
            ("max_s", -1.0),
            ("max_s", float("nan")),
            ("timeout_s", 0.0),
            ("timeout_s", float("inf")),
        ],
    )
    def test_schedule_rejects_bad_timing(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProbeSchedule(
                targets=(ProbeTarget("http://x", BenchTask("pic", 10)),),
                count=1,
                mode="random",
                **{field: value},
            )


GOOD_SCHEDULE = {
    "endpoints": [{"url": "http://127.0.0.1:9", "task": {"kind": "pic", "size": 10}}],
    "mode": {"kind": "random", "max_s": 0.1},
    "count": 2,
}


class TestLoadSchedule:
    def write(self, tmp_path, cfg):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_reads_every_field(self, tmp_path):
        cfg = dict(GOOD_SCHEDULE, seed=3, timeout_s=2.5)
        schedule = load_schedule(self.write(tmp_path, cfg))
        assert schedule.targets == (ProbeTarget("http://127.0.0.1:9", BenchTask("pic", 10)),)
        assert (schedule.count, schedule.mode, schedule.max_s) == (2, "random", 0.1)
        assert (schedule.delta_s, schedule.seed, schedule.timeout_s) == (0.0, 3, 2.5)

    @pytest.mark.parametrize(
        "path, match",
        [
            (("count",), "missing count"),
            (("endpoints",), "missing endpoints"),
            (("endpoints", 0, "url"), r"missing endpoints\[0\]\.url"),
            (("endpoints", 0, "task"), r"missing endpoints\[0\]\.task"),
            (("endpoints", 0, "task", "kind"), r"missing endpoints\[0\]\.task\.kind"),
            (("endpoints", 0, "task", "size"), r"missing endpoints\[0\]\.task\.size"),
        ],
    )
    def test_missing_field_is_named(self, tmp_path, path, match):
        cfg = json.loads(json.dumps(GOOD_SCHEDULE))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(ValueError, match=match):
            load_schedule(self.write(tmp_path, cfg))

    @pytest.mark.parametrize(
        "update, match",
        [
            ({"count": "many"}, "count must be int"),
            ({"count": None}, "count must be int"),
            ({"endpoints": [5]}, r"endpoints\[0\] must be a JSON object"),
            ({"mode": "random"}, "mode must be a JSON object"),
            ({"mode": {"kind": "random", "max_s": -1}}, "max_s must be finite and >= 0"),
            ({"mode": {"kind": "fixed", "delta_s": -1}}, "delta_s must be finite and >= 0"),
            ({"timeout_s": 0}, "timeout_s must be finite and > 0"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_bad_value_is_named(self, tmp_path, update, match):
        with pytest.raises(ValueError, match=match):
            load_schedule(self.write(tmp_path, dict(GOOD_SCHEDULE, **update)))


class TestSummarize:
    def make_rows(self, latencies, status="ok"):
        return [
            ProbeRow(
                delta_t_s=float("nan"), latency_s=lat, endpoint="e", option="o",
                timestamp_unix_ms=0, status=status,
            )
            for lat in latencies
        ]

    def test_nearest_rank_hand_computed(self):
        rows = self.make_rows([float(v) for v in range(1, 11)])
        summary = summarize(rows)[("e", "o")]
        assert summary == {"median": 5.0, "p10": 1.0, "p90": 9.0, "sp": 8.0, "n": 10}

    def test_single_value(self):
        summary = summarize(self.make_rows([0.4]))[("e", "o")]
        assert summary["median"] == summary["p10"] == summary["p90"] == 0.4
        assert summary["sp"] == 0.0

    def test_quantiles_are_observed_values(self, rng):
        lat = rng.uniform(0.1, 2.0, 37).tolist()
        summary = summarize(self.make_rows(lat))[("e", "o")]
        for key in ("median", "p10", "p90"):
            assert summary[key] in lat
        assert summary["sp"] >= 0.0

    def test_all_failed_is_error(self):
        rows = self.make_rows([float("nan")] * 3, status="connection_error")
        with pytest.raises(EmptySummaryError):
            summarize(rows)

    def test_nearest_rank_convention(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert nearest_rank(x, 0.5) == 2.0   # ceil(2) -> 2nd value
        assert nearest_rank(x, 0.51) == 3.0
        assert nearest_rank(x, 0.9) == 4.0


def test_make_dataset_deterministic(tmp_path):
    a = make_dataset(tmp_path / "a.csv", lines=200, seed=5).read_text()
    b = make_dataset(tmp_path / "b.csv", lines=200, seed=5).read_text()
    assert a == b
    c = make_dataset(tmp_path / "c.csv", lines=200, seed=6).read_text()
    assert a != c
