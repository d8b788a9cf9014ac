import csv
import http.client
import itertools
import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogassign import benchnet
from fogassign.benchnet import (
    ENDPOINTS,
    FSP_MAX_BODY_BYTES,
    BenchServer,
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
from fogassign.latency import _read_numbers


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


def reference_pi(iters):
    """The Leibniz partial sum with each sign computed as a power of -1."""
    k = np.arange(iters, dtype=float)
    return float(4.0 * np.sum((-1.0) ** (k % 2) / (2.0 * k + 1.0)))


def reference_fsp(body: bytes):
    """The /fsp body read one line at a time by the numeric text rule: its
    values, or the 400 message."""
    text = body.decode("ascii", errors="backslashreplace")
    values = []
    for i, line in enumerate(text.splitlines(), 1):
        content = line.split("#")[0]
        if not content.strip():
            continue
        field = content.split(",")[0].strip()
        try:
            value = float(field) if field.isascii() and "_" not in field else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            return f"line {i} ({line.strip()!r}) is not a finite number"
        values.append(value)
    return np.asarray(values, dtype=float)


_FSP_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
).map(str.encode)
_FSP_LINES = st.tuples(
    st.sampled_from([b"", b" ", b"\t", b"\x1f", b" \t\x1f"]),
    st.one_of(
        _FSP_NUMBERS,
        _FSP_NUMBERS,
        st.tuples(_FSP_NUMBERS, st.sampled_from([b"", b"2", b"abc", b" x ", b"\xff"]))
        .map(b",".join),
        st.sampled_from([b"", b"  ", b"\t1.5\t", b"1.5\x1f,2"]),
        st.sampled_from([b",5", b"nan", b"inf", b"1e400", b"abc", b"1;2", b"\xff\xfe",
                         "\u0661\u0662".encode()]),
        # Comments, and "_", which float() takes but the rule refuses in a value.
        st.sampled_from([b"#", b"# note", b"#1,2", b"# a_b", b"1_000", b"1_0.5,2", b"2,3_4"]),
        st.tuples(_FSP_NUMBERS, st.sampled_from([b"#", b" # x_y", b"#,2", b",2#c"]))
        .map(b"".join),
    ),
    st.sampled_from([b"", b" ", b"\t", b"\x1f"]),
).map(b"".join)
# Every separator str.splitlines splits an ASCII text at, and \x1f, which it does not.
_FSP_SEPARATORS = st.sampled_from(
    [b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f"]
)
FSP_BODIES = st.lists(st.tuples(_FSP_LINES, _FSP_SEPARATORS).map(b"".join), max_size=12).map(
    b"".join
)


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


def serve_in_thread(srv):
    # A short poll lets a per-test server's shutdown() return at once.
    threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.01},
                     daemon=True).start()


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each GET with the server's next outcome on a keep-alive connection.

    An outcome is ``(status, body)``, None to close the connection
    without a reply, as a server that drops it does, or bytes to send
    as they are in place of a reply before closing.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):
        outcome = next(self.server.outcomes)
        if outcome is None or isinstance(outcome, bytes):
            self.wfile.write(outcome or b"")
            self.close_connection = True
            return
        status, body = outcome
        self.send_response(status)
        if 300 <= status < 400:  # a redirect back to the same URL
            self.send_header("Location", self.path)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def scripted(monkeypatch):
    """A loopback server replaying ``outcomes``; the probe's ``http://fake`` reaches it."""
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    srv.daemon_threads = True
    serve_in_thread(srv)
    port = srv.server_address[1]

    class ToScripted(http.client.HTTPConnection):
        def __init__(self, host, _port, **kwargs):
            assert host == "fake"
            super().__init__("127.0.0.1", port, **kwargs)

    monkeypatch.setitem(benchnet._CONNECTIONS, "http", ToScripted)
    yield srv
    srv.shutdown()
    srv.server_close()


class CountingServer(BenchServer):
    """A bench server that counts the connections it accepts and closes.

    ``nodelay`` holds each closed connection's TCP_NODELAY setting.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.accepted = self.closed = 0
        self.nodelay = []
        self._lock = threading.Lock()  # connections close on their own threads

    def get_request(self):
        request = super().get_request()
        self.accepted += 1
        return request

    def shutdown_request(self, request):
        nodelay = bool(request.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        super().shutdown_request(request)
        with self._lock:
            self.nodelay.append(nodelay)
            self.closed += 1

    def wait_closed(self, count, within_s=5.0):
        deadline = time.monotonic() + within_s
        while self.closed < count and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.closed


@pytest.fixture
def counting_server(dataset):
    srv = CountingServer(("127.0.0.1", 0), dataset, allow_out_of_range=True)
    serve_in_thread(srv)
    yield srv
    srv.shutdown()
    srv.server_close()


class TestServer:
    def test_pic_single_iteration_is_exactly_four(self, server):
        assert get_json(f"{server.url}/pic?iters=1")["result"] == 4.0

    def test_pic_matches_reference_series(self, server):
        assert get_json(f"{server.url}/pic?iters=5")["result"] == reference_pi(5)

    @pytest.mark.parametrize("iters", [1, 2, 3, 4, 5000, 50_000, 500_000])
    def test_leibniz_is_bit_identical_to_reference(self, iters):
        assert leibniz_pi(iters) == reference_pi(iters)

    def test_pic_deterministic(self, server):
        a = get_json(f"{server.url}/pic?iters=2000")["result"]
        b = get_json(f"{server.url}/pic?iters=2000")["result"]
        assert a == b  # bit-identical

    def test_leibniz_converges(self):
        assert leibniz_pi(200_000) == pytest.approx(math.pi, abs=1e-4)

    def test_psf_matches_independent_oracle(self, server, dataset):
        resp = get_json(f"{server.url}/psf?lines=500")
        ref = np.loadtxt(dataset, delimiter=",", ndmin=2)[:500, 0]
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

    # Each statistic is the float numpy computes, not only one close to it;
    # an /fsp line's first comma field is its value.
    @pytest.mark.parametrize("kind", ["psf", "fsp"])
    def test_statistics_equal_numpy_exactly(self, server, dataset, kind):
        values = np.random.default_rng(1).uniform(0.0, 1000.0, 500)
        body = "".join(f"{v!r},{i}\r\n" for i, v in enumerate(values.tolist())).encode()
        if kind == "psf":
            values, body = np.loadtxt(dataset, delimiter=",", ndmin=2)[:500, 0], None
        req = urllib.request.Request(f"{server.url}/{kind}?lines=500", data=body)
        with urllib.request.urlopen(req, timeout=10) as resp:
            payload = json.loads(resp.read())
        del payload["exec_ms"]
        assert payload == {"mean": float(np.mean(values)), "stdev": float(np.std(values)),
                           "min": float(np.min(values)), "max": float(np.max(values))}

    @pytest.mark.parametrize(
        "path",
        ["/pic", "/pic?iters=abc", "/psf?lines=0", "/nope?x=1"],
    )
    def test_malformed_requests_rejected(self, server, path):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(f"{server.url}{path}")
        err.value.close()
        assert err.value.code in (400, 404)

    @pytest.mark.parametrize("path", [
        "/pic?iters=5_000", "/psf?lines=1_000", "/pic?iters=%D9%A5", "/pic?iters=%2B5",
        "/pic?iters=%205", "/psf?lines=-5",
    ])
    def test_integer_parameters_take_ascii_digits_only(self, server, path):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(f"{server.url}{path}")
        payload = json.loads(err.value.read().decode())
        err.value.close()
        assert err.value.code == 400
        assert "must be ASCII decimal digits" in payload["error"]

    def test_empty_fsp_body_rejected(self, server):
        req = urllib.request.Request(f"{server.url}/fsp", data=b"", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        err.value.close()
        assert err.value.code == 400

    @pytest.mark.parametrize("token", [
        "nan", "inf", "1e400", "abc", "1;2", pytest.param("", id="empty-field"),
    ])
    def test_non_finite_fsp_value_rejected(self, server, token):
        body = f"1.5\n\n2.5\n{token},7\n3.5\n".encode()
        req = urllib.request.Request(f"{server.url}/fsp", data=body, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        payload = json.loads(err.value.read().decode())
        err.value.close()
        assert err.value.code == 400
        assert payload["error"] == f"line 4 ('{token},7') is not a finite number"

    # Body lines are ASCII: a byte that is not, UTF-8 or not, stays escaped
    # and its line is named like any other that is not a number.
    @pytest.mark.parametrize("token, shown", [
        (b"\xff\xfe", r"\xff\xfe"),
        ("\u0661\u0662".encode(), r"\xd9\xa1\xd9\xa2"),
    ], ids=["not-utf8", "arabic-indic-digits"])
    def test_non_ascii_fsp_line_is_named(self, server, token, shown):
        body = b"1.5\n\n2.5\n" + token + b",7\n3.5\n"
        req = urllib.request.Request(f"{server.url}/fsp", data=body, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        payload = json.loads(err.value.read().decode())
        err.value.close()
        assert err.value.code == 400
        assert payload["error"] == f"line 4 ({shown + ',7'!r}) is not a finite number"

    def test_negative_content_length_rejected_without_waiting(self, server):
        host, port = server.server_address[:2]
        request = (b"POST /fsp HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n"
                   b"Connection: close\r\n\r\n1.0\n")
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request)  # the connection stays open: no EOF to read to
            with sock.makefile("rb") as reply:
                status_line = reply.readline()
        assert status_line.split()[1] == b"400"

    @pytest.mark.parametrize("header", [
        b"Content-Length: 1_0", b"Content-Length: +5",
        # A header parser strips the spaces after the colon, so a leading
        # space reaches the server only on a folded continuation line.
        b"Content-Length:\r\n 5",
    ], ids=["underscore", "plus", "space"])
    def test_content_length_takes_ascii_digits_only(self, server, header):
        host, port = server.server_address[:2]
        # Ten bytes of body, so a server taking the header as 10 or 5
        # answers at once instead of waiting for more.
        request = (b"POST /fsp HTTP/1.1\r\nHost: x\r\n" + header
                   + b"\r\nConnection: close\r\n\r\n1.0\n2.0\n3\n")
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(request)
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

    @pytest.mark.parametrize("kind", list(ENDPOINTS))
    def test_each_kind_answers_only_at_its_method(self, server, kind):
        method, _, lo, _ = ENDPOINTS[kind]
        request = ProbeTarget(server.url, BenchTask(kind, lo)).build_request()
        with urllib.request.urlopen(request, timeout=10) as resp:
            assert resp.status == 200
        other = "GET" if method == "POST" else "POST"
        wrong = urllib.request.Request(request.full_url, method=other,
                                       data=b"1.0\n" if other == "POST" else None)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(wrong, timeout=10)
        payload = json.loads(err.value.read().decode())
        err.value.close()
        assert err.value.code == 404
        assert payload["error"] == f"unknown path '/{kind}'"

    def test_psf_beyond_the_dataset_rejected_even_out_of_range(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_json(f"{server.url}/psf?lines=60000")
        payload = json.loads(err.value.read().decode())
        err.value.close()
        assert err.value.code == 400
        assert payload["error"] == "lines=60000 exceeds dataset size 50000"

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_dataset_is_startup_error(self, tmp_path, cell):
        path = make_dataset(tmp_path / "data.csv", seed=1)
        lines = path.read_text().splitlines()
        lines[6] = f"{cell},1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            start_server(path)
        assert str(info.value) == (
            f"dataset {path}: line 7 ('{cell},1.0,2.0') is not a finite number")

    def test_dataset_reads_as_loadtxt_reads_its_first_column(self, tmp_path):
        for seed in range(10):
            path = make_dataset(tmp_path / f"data{seed}.csv", seed=seed)
            got = benchnet._load_dataset(path)
            want = np.loadtxt(path, delimiter=",", ndmin=2)[:, 0]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), seed

    # One reader serves both: the dataset's first lines, a comment among
    # them, give the same statistics through /psf and as an /fsp body.
    def test_psf_and_fsp_of_the_same_lines_agree(self, tmp_path):
        path = make_dataset(tmp_path / "data.csv", lines=benchnet.MIN_DATASET_LINES + 1, seed=2)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "# a comment, 1.0\n"
        path.write_text("".join(lines))
        srv, _thread = start_server(path, allow_out_of_range=True)
        try:
            psf = get_json(f"{srv.url}/psf?lines=600")
            body = "".join(lines[:601]).encode()
            request = urllib.request.Request(f"{srv.url}/fsp?lines=600", data=body)
            with urllib.request.urlopen(request, timeout=10) as resp:
                fsp = json.loads(resp.read())
        finally:
            srv.shutdown()
            srv.server_close()
        del psf["exec_ms"], fsp["exec_ms"]
        assert psf == fsp
        assert psf["mean"] == float(np.mean(np.loadtxt(path, delimiter=",", ndmin=2)[:600, 0]))

    def test_dataset_that_is_not_utf8_names_its_file(self, tmp_path):
        path = make_dataset(tmp_path / "data.csv", seed=1)
        path.write_bytes(b"\xff\xfe,1.0\n" + path.read_bytes())
        with pytest.raises(ValueError) as info:
            start_server(path)
        assert str(info.value).startswith(f"dataset {path}: 'utf-8' codec can't decode")

    # JSON has no infinity: a statistic beyond the float range is refused,
    # and the connection serves the next request.
    @pytest.mark.parametrize("body, name", [(b"1e308\n1e308\n", "mean"),
                                            (b"1e308\n-1e308\n", "stdev")])
    def test_overflowing_fsp_statistic_is_a_400(self, counting_server, body, name):
        conn = http.client.HTTPConnection(*counting_server.server_address[:2], timeout=5)
        try:
            conn.request("POST", "/fsp", body=body)
            with conn.getresponse() as resp:
                assert (resp.status, resp.will_close) == (400, False)
                assert json.loads(resp.read()) == {
                    "error": f"computing the {name} of these values overflows the float range"}
            conn.request("GET", "/pic?iters=1")
            with conn.getresponse() as resp:
                assert (resp.status, json.loads(resp.read())["result"]) == (200, 4.0)
        finally:
            conn.close()

    def test_overflowing_psf_statistic_is_a_400(self, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("1e308\n" * benchnet.MIN_DATASET_LINES)
        srv, _thread = start_server(huge)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                get_json(f"{srv.url}/psf?lines=500")
            payload = json.loads(err.value.read().decode())
            err.value.close()
        finally:
            srv.shutdown()
            srv.server_close()
        assert err.value.code == 400
        assert payload == {"error": "computing the mean of these values overflows the float range"}


FSP_VALUES = [((i * 37) % 1000) + 0.5 for i in range(500)]
FSP_BODY = "\n".join(f"{v:.3f}" for v in FSP_VALUES).encode()


class TestKeepAlive:
    def test_connection_serves_many_requests(self, counting_server):
        conn = http.client.HTTPConnection(*counting_server.server_address[:2], timeout=5)
        try:
            for method, path, body, code in [
                ("GET", "/pic?iters=10", None, 200), ("GET", "/psf?lines=500", None, 200),
                ("POST", "/fsp", FSP_BODY, 200), ("POST", "/fsp", b"1.0\nabc\n", 400),
                ("GET", "/pic", None, 400), ("GET", "/nope", None, 404),
                ("GET", "/pic?iters=1", None, 200),
            ]:
                conn.request(method, path, body=body)
                with conn.getresponse() as resp:  # a body read in full keeps it open
                    assert (resp.status, resp.will_close) == (code, False)
                    json.loads(resp.read())
        finally:
            conn.close()
        assert counting_server.accepted == 1
        assert counting_server.wait_closed(1) == 1
        # Without it, each reply's body waits on the client's delayed ACK
        # of its headers: about 40 ms a request on loopback.
        assert counting_server.nodelay == [True]

    def test_pic_buffers_kept_per_connection_give_the_reference_sum(self, counting_server):
        # The handler keeps its /pic arrays for the connection, grown to the
        # largest iters served on it; a smaller request reads their prefix.
        conn = http.client.HTTPConnection(*counting_server.server_address[:2], timeout=5)
        try:
            for iters in (50_000, 5_000, 500_000, 5):
                conn.request("GET", f"/pic?iters={iters}")
                with conn.getresponse() as resp:
                    assert json.loads(resp.read())["result"] == reference_pi(iters)
        finally:
            conn.close()
        assert counting_server.accepted == 1

    @pytest.mark.parametrize("method, path, headers, body, code", [
        ("POST", "/nope", {}, b"1.0\n2.0\n", 404),
        ("POST", "/pic?iters=10", {}, b"1.0\n2.0\n", 404),
        ("POST", "/fsp", {"Content-Length": "1_0"}, b"1.0\n2.0\n3\n", 400),
        ("POST", "/fsp", {"Content-Length": str(FSP_MAX_BODY_BYTES + 1)}, b"1.0\n2.0\n", 413),
        ("POST", "/fsp", {}, iter([b"1.0\n2.0\n"]), 411),
        ("GET", "/pic?iters=10", {}, b"GET /pic?iters=1 HTTP/1.1\r\n\r\n", 200),
    ], ids=["unknown-path", "get-kind", "content-length-digits", "oversized", "chunked",
            "get-with-body"])
    def test_unread_body_ends_the_connection(self, counting_server, method, path, headers,
                                             body, code):
        # Without the close, the body's bytes would be read as the next
        # request and the valid request below would get another's reply.
        conn = http.client.HTTPConnection(*counting_server.server_address[:2], timeout=5)
        try:
            conn.request(method, path, body=body, headers=headers)
            with conn.getresponse() as resp:
                assert resp.status == code
                assert resp.will_close
                assert ("error" in json.loads(resp.read())) == (code != 200)
            conn.request("POST", "/fsp?lines=500", body=FSP_BODY)
            with conn.getresponse() as resp:
                assert resp.status == 200
                payload = json.loads(resp.read())
        finally:
            conn.close()
        mean, stdev, lo, hi = welford(FSP_VALUES)
        assert payload["mean"] == pytest.approx(mean, rel=1e-9)
        assert payload["stdev"] == pytest.approx(stdev, rel=1e-9)
        assert (payload["min"], payload["max"]) == pytest.approx((lo, hi), rel=1e-9)
        assert counting_server.accepted == 2

    def test_client_still_sending_its_body_is_not_reset(self, counting_server):
        # The server answers 411 before the chunked body arrives.  It must
        # read and drop the body after its reply, not close over it: the
        # client's later writes would then meet a reset.
        host, port = counting_server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"POST /fsp HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n")
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            assert (resp.status, resp.will_close) == (411, True)
            resp.read()
            sock.sendall(b"8\r\n1.0\n2.0\n\r\n")
            time.sleep(0.05)
            sock.sendall(b"0\r\n\r\n")
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b""  # EOF, not ConnectionResetError
        assert counting_server.wait_closed(1) == 1

    def test_one_shot_clients_are_served_and_closed(self, counting_server):
        assert get_json(f"{counting_server.url}/pic?iters=1")["result"] == 4.0
        host, port = counting_server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET /pic?iters=1 HTTP/1.0\r\n\r\n")
            with sock.makefile("rb") as reply:
                raw = reply.read()  # to EOF: the server closes after its reply
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"200"
        assert json.loads(body)["result"] == 4.0
        assert counting_server.accepted == 2
        assert counting_server.wait_closed(2) == 2


class TestBenchTask:
    def test_ranges(self):
        assert BenchTask("pic", 5000).range_ok()
        assert not BenchTask("pic", 1).range_ok()
        assert BenchTask("psf", 50_000).range_ok()
        assert not BenchTask("fsp", 50_000).range_ok()
        for kind, (_, _, lo, hi) in ENDPOINTS.items():
            assert BenchTask(kind, lo).range_ok() and BenchTask(kind, hi).range_ok()
            assert not BenchTask(kind, lo - 1).range_ok()
            assert not BenchTask(kind, hi + 1).range_ok()

    @pytest.mark.parametrize("kind", list(ENDPOINTS))
    def test_request_follows_table(self, kind):
        method, param, lo, _ = ENDPOINTS[kind]
        task = BenchTask(kind, lo)
        request = ProbeTarget("http://h", task).build_request()
        assert task.option_label() == f"{param}={lo}"
        assert request.get_method() == method
        assert request.full_url == f"http://h/{kind}?" + task.option_label()
        assert (request.data is not None) == (method == "POST")

    @pytest.mark.parametrize("size", [500, 5000, 10_000])
    def test_probe_body_reads_as_one_float_per_line(self, size):
        body = ProbeTarget("http://h", BenchTask("fsp", size)).build_request().data
        want = np.array([float(line) for line in body.decode().split("\n")])
        assert _read_numbers(body.decode("ascii")).tobytes() == want.tobytes()

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

    def test_random_gap_paces_invocations(self, server, tmp_path, monkeypatch):
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

        monkeypatch.setattr(benchnet, "time", SimpleNamespace(
            perf_counter=time.perf_counter, time=time.time, sleep=sleep))
        schedule = ProbeSchedule(
            targets=(ProbeTarget(server.url, BenchTask("pic", 10)),),
            count=5,
            mode="random",
            max_s=0.05,
            seed=3,
        )
        rows = probe(schedule, tmp_path / "random.csv")
        assert [r.status for r in rows] == ["ok"] * 5
        assert len(sleeps) == 4 and all(0.0 <= s < 0.05 for s in sleeps)
        # A gap is the previous exchange plus its sleep: under max_s plus a round trip.
        for prev, r, slept in zip(rows, rows[1:], sleeps):
            assert slept + prev.latency_s <= r.delta_t_s <= 0.05 + prev.latency_s + 0.5

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

    def test_one_connection_carries_every_invocation(self, counting_server, tmp_path):
        url = counting_server.url
        schedule = ProbeSchedule(
            targets=(ProbeTarget(url, BenchTask("pic", 10)), ProbeTarget(url, BenchTask("psf", 500)),
                     ProbeTarget(url, BenchTask("fsp", 500))),
            count=30,
        )
        rows = probe(schedule, tmp_path / "keep.csv")
        assert [r.status for r in rows] == ["ok"] * 30
        assert [r.endpoint.rsplit("/", 1)[-1] for r in rows] == ["pic", "psf", "fsp"] * 10
        assert counting_server.accepted == 1
        assert counting_server.wait_closed(1) == 1  # probe closes it when the run ends

    def test_connection_is_reopened_after_a_server_close(self, counting_server, tmp_path):
        # A 404 to a POST ends the connection; the next invocation opens a
        # new one before its clock starts and is answered.
        url = counting_server.url
        schedule = ProbeSchedule(
            targets=(ProbeTarget(f"{url}/nope", BenchTask("fsp", 500)),
                     ProbeTarget(url, BenchTask("pic", 10))),
            count=4,
        )
        rows = probe(schedule, tmp_path / "reopen.csv")
        assert [r.status for r in rows] == ["http_404", "ok"] * 2
        assert counting_server.accepted == 3

    @pytest.mark.parametrize("idle_timeout_s, delta_s, accepted",
                             [(2.0, 0.05, 1), (0.05, 0.25, 4)], ids=["under", "over"])
    def test_paced_gap_and_server_idle_timeout(self, counting_server, tmp_path,
                                               idle_timeout_s, delta_s, accepted):
        # Keep-alive reuses a connection only while the gap between
        # invocations is shorter than the server's idle timeout.  Past it,
        # the server has closed the connection during the gap; the probe
        # sees that before sending and reopens it, so every row is ok.
        counting_server.RequestHandlerClass = type(
            "IdleHandler", (benchnet._Handler,), {"timeout": idle_timeout_s})
        schedule = ProbeSchedule(
            targets=(ProbeTarget(counting_server.url, BenchTask("pic", 10)),),
            count=4, mode="fixed", delta_s=delta_s,
        )
        rows = probe(schedule, tmp_path / "paced.csv")
        assert [r.status for r in rows] == ["ok"] * 4
        assert counting_server.accepted == accepted

    def test_live_and_dead_origins_keep_separate_connections(self, server, tmp_path):
        schedule = ProbeSchedule(
            targets=(ProbeTarget(server.url, BenchTask("pic", 10)),
                     ProbeTarget("http://127.0.0.1:9", BenchTask("pic", 10))),
            count=6,
            timeout_s=2.0,
        )
        rows = probe(schedule, tmp_path / "mixed.csv")
        assert [r.status for r in rows] == ["ok", "connection_error"] * 3

    def test_other_schemes_fail_before_sending(self, tmp_path, monkeypatch):
        def no_connection(*args, **kwargs):
            raise AssertionError("probe opened a connection")

        monkeypatch.setattr(http.client.HTTPConnection, "connect", no_connection)
        schedule = ProbeSchedule(
            targets=(ProbeTarget("ftp://127.0.0.1", BenchTask("pic", 10)),), count=2
        )
        with pytest.raises(ValueError, match="http:// or https://"):
            probe(schedule, tmp_path / "ftp.csv")
        assert not (tmp_path / "ftp.csv").exists()

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

    def test_written_file_is_pinned_and_reads_back(self, tmp_path, monkeypatch, scripted):
        # A scripted clock and server: an ok invocation (no gap yet), a 503,
        # a dropped connection (both with no latency) and another ok one.
        ticks = iter(0.125 * n for n in range(1, 100))
        stamps = iter(1_700_000_000.0 + n for n in range(100))
        monkeypatch.setattr(benchnet, "time", SimpleNamespace(
            perf_counter=lambda: next(ticks), time=lambda: next(stamps), sleep=time.sleep))
        scripted.outcomes = iter([
            (200, json.dumps({"exec_ms": 1.5}).encode()),
            (503, b'{"error": "busy"}'),
            None,
            (200, json.dumps({"exec_ms": 2.0}).encode()),
        ])
        schedule = ProbeSchedule(targets=(ProbeTarget("http://fake", BenchTask("pic", 10)),),
                                 count=4)
        out = tmp_path / "pinned.csv"
        rows = probe(schedule, out)
        assert out.read_bytes() == (
            b"delta_t_s,latency_s,endpoint,option,timestamp_unix_ms,status\r\n"
            b",0.125000,http://fake/pic,iters=10,1700000000000,ok\r\n"
            b"0.250000,,http://fake/pic,iters=10,1700000001000,http_503\r\n"
            b"0.250000,,http://fake/pic,iters=10,1700000002000,connection_error\r\n"
            b"0.125000,0.125000,http://fake/pic,iters=10,1700000003000,ok\r\n"
        )
        # The file holds every field but the server's exec_ms.
        assert repr(load_probe_rows(out)) == repr([replace(r, exec_ms=math.nan) for r in rows])

    @pytest.mark.parametrize(
        "body", [b"[1, 2]", b'"ok"', b'{"exec_ms": [1.5]}', b'{"exec_ms": {}}', b"not json"],
        ids=["list", "string", "list-exec-ms", "object-exec-ms", "not-json"],
    )
    def test_unusable_reply_is_bad_response(self, tmp_path, scripted, body):
        scripted.outcomes = itertools.repeat((200, body))
        schedule = ProbeSchedule(targets=(ProbeTarget("http://fake", BenchTask("pic", 10)),),
                                 count=2)
        rows = probe(schedule, tmp_path / "bad.csv")
        assert [r.status for r in rows] == ["bad_response"] * 2
        assert all(math.isnan(r.latency_s) and math.isnan(r.exec_ms) for r in rows)

    def test_non_http_reply_is_bad_response(self, tmp_path, scripted):
        # http.client cannot parse the status line; the connection is reopened.
        scripted.outcomes = itertools.repeat(b"SPAM 200 not http\r\n\r\n")
        schedule = ProbeSchedule(targets=(ProbeTarget("http://fake", BenchTask("pic", 10)),),
                                 count=2)
        rows = probe(schedule, tmp_path / "spam.csv")
        assert [r.status for r in rows] == ["bad_response"] * 2
        assert all(math.isnan(r.latency_s) for r in rows)

    def test_redirect_is_recorded_not_followed(self, tmp_path, scripted):
        # latency_s is one exchange, so a 301 is a row of its own; had the
        # probe followed it, the first invocation would have taken the 200.
        scripted.outcomes = iter([(301, b""), (200, json.dumps({"exec_ms": 1.0}).encode())])
        schedule = ProbeSchedule(targets=(ProbeTarget("http://fake", BenchTask("pic", 10)),),
                                 count=2)
        rows = probe(schedule, tmp_path / "moved.csv")
        assert [r.status for r in rows] == ["http_301", "ok"]

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

    @pytest.mark.parametrize(
        "body, where",
        [
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n0.5,abc,e,o,1\n",
             "line 2: column 'latency_s': cannot read 'abc'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
             "0.5,0.1,e,o,1\n0.5,0.1,e,o,x\n",
             "line 3: column 'timestamp_unix_ms': cannot read 'x'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n0.5,0.1,e\n",
             "line 2: column 'option': the row ends before it"),
            ("delta_t_s,latency_s,endpoint,timestamp_unix_ms\n0.5,0.1,e,1\n",
             "line 1: missing column 'option'"),
            ("", "line 1: missing column 'delta_t_s'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms,status\n0.5,0.1,e,o,1\n",
             "line 2: column 'status': the row ends before it"),
            # Gaps and latencies are times: finite and >= 0.
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n0.5,-0.1,e,o,1\n",
             "line 2: column 'latency_s': cannot read '-0.1'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n0.5,inf,e,o,1\n",
             "line 2: column 'latency_s': cannot read 'inf'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n-2,0.1,e,o,1\n",
             "line 2: column 'delta_t_s': cannot read '-2'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n,0.1,e,o,1\n"
             "Infinity,0.1,e,o,2\n",
             "line 3: column 'delta_t_s': cannot read 'Infinity'"),
            # A timestamp is ASCII digits; a time has no underscore, space
            # or non-ASCII character, all of which int() and float() take.
            *[("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
               f"0.5,0.1,e,o,{cell}\n",
               f"line 2: column 'timestamp_unix_ms': cannot read {cell!r}")
              for cell in ("1_0", " 5", "+5", "-3", "\u0665")],
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n1_0,0.1,e,o,1\n",
             "line 2: column 'delta_t_s': cannot read '1_0'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n0.5, 5,e,o,1\n",
             "line 2: column 'latency_s': cannot read ' 5'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n0.5,\u0665,e,o,1\n",
             "line 2: column 'latency_s': cannot read '\u0665'"),
            # Only an empty cell reads as a missing time; the text nan, in
            # any case or sign, is refused as inf is.
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n0.5,,e,o,1\n"
             "0.5,NaN,e,o,2\n",
             "line 3: column 'latency_s': cannot read 'NaN'"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n-nan,0.1,e,o,1\n",
             "line 2: column 'delta_t_s': cannot read '-nan'"),
            # No cell is dropped and no column read twice.
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms,status\n"
             "0.5,0.1,e,o,1,ok\n,0.1,e,o,0,ok,EXTRA,MORE\n",
             "line 3: the row has 8 cells, the header 6"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n,0.1,e,o,0,ok\n",
             "line 2: the row has 6 cells, the header 5"),
            ("delta_t_s,latency_s,endpoint,option,timestamp_unix_ms,status,latency_s\n"
             ",0.1,e,o,0,ok,9\n",
             "line 1: column 'latency_s' is named twice"),
        ],
        ids=["bad-latency", "bad-timestamp", "short-row", "missing-column", "empty-file",
             "short-row-status", "negative-latency", "infinite-latency", "negative-gap",
             "infinite-gap", "timestamp-underscore", "timestamp-space", "timestamp-plus",
             "timestamp-negative", "timestamp-non-ascii", "gap-underscore", "latency-space",
             "latency-non-ascii", "nan-latency", "nan-delta", "long-row", "long-row-no-status",
             "column-named-twice"],
    )
    def test_malformed_file_names_line_and_column(self, tmp_path, body, where):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError) as info:
            load_probe_rows(path)
        assert str(info.value) == f"{path}: {where}"

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"delta_t_s,latency_s,endpoint,option,timestamp_unix_ms\n"
                         b"0.5,0.1,e,o,1\n0.5,0.1,\xff,o,2\n")
        with pytest.raises(ValueError) as info:
            load_probe_rows(path)
        assert str(info.value) == (f"{path}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
                                   "in position 76: invalid start byte")

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ProbeSchedule(targets=(), count=1)
        with pytest.raises(ValueError):
            ProbeSchedule(
                targets=(ProbeTarget("http://x", BenchTask("pic", 10)),),
                count=0,
            )
        # The reader refuses a negative seed as a field; built in code, the schedule does.
        with pytest.raises(ValueError) as info:
            ProbeSchedule(targets=(ProbeTarget("http://x", BenchTask("pic", 10)),), count=1,
                          seed=-1)
        assert str(info.value) == "seed must be >= 0 (got -1)"

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


def _with_size(size):
    """A ``GOOD_SCHEDULE`` update whose one endpoint asks for ``size``."""
    return {"endpoints": [{"url": "http://127.0.0.1:9", "task": {"kind": "pic", "size": size}}]}


def _with_second_task(task):
    """A ``GOOD_SCHEDULE`` update that adds an endpoint asking for ``task``."""
    second = {"url": "http://127.0.0.1:9", "task": task}
    return {"endpoints": [*GOOD_SCHEDULE["endpoints"], second]}


def _with_url(url):
    """A ``GOOD_SCHEDULE`` update whose one endpoint is at ``url``."""
    return {"endpoints": [{"url": url, "task": {"kind": "pic", "size": 10}}]}


def _with_kind(kind):
    """A ``GOOD_SCHEDULE`` update whose one endpoint's task kind is ``kind``."""
    return {"endpoints": [{"url": "http://127.0.0.1:9", "task": {"kind": kind, "size": 10}}]}


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

    # Every error names the file, then the record and the field, in the
    # form scenario files use.  The ids are the names these cases have kept
    # since their messages were matched by pattern.
    @pytest.mark.parametrize(
        "path, message",
        [
            pytest.param(("count",), "missing field 'count'", id="path0-missing count"),
            pytest.param(("endpoints",), "missing field 'endpoints'",
                         id="path1-missing endpoints"),
            pytest.param(("endpoints", 0, "url"), "endpoints[0]: missing field 'url'",
                         id=r"path2-missing endpoints\[0\]\.url"),
            pytest.param(("endpoints", 0, "task"), "endpoints[0]: missing field 'task'",
                         id=r"path3-missing endpoints\[0\]\.task"),
            pytest.param(("endpoints", 0, "task", "kind"),
                         "endpoints[0] task: missing field 'kind'",
                         id=r"path4-missing endpoints\[0\]\.task\.kind"),
            pytest.param(("endpoints", 0, "task", "size"),
                         "endpoints[0] task: missing field 'size'",
                         id=r"path5-missing endpoints\[0\]\.task\.size"),
        ],
    )
    def test_missing_field_is_named(self, tmp_path, path, message):
        cfg = json.loads(json.dumps(GOOD_SCHEDULE))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        sched = self.write(tmp_path, cfg)
        with pytest.raises(ValueError) as info:
            load_schedule(sched)
        assert str(info.value) == f"{sched}: {message}"

    @pytest.mark.parametrize(
        "update, message",
        [
            pytest.param({"count": "many"}, "count must be an integer >= 0 (got 'many')",
                         id="update0-count must be int"),
            pytest.param({"count": None}, "count must be an integer >= 0 (got None)",
                         id="update1-count must be int"),
            pytest.param({"endpoints": [5]}, "endpoints[0]: must be a JSON object (got 5)",
                         id=r"update2-endpoints\[0\] must be a JSON object"),
            pytest.param({"mode": "random"}, "mode: must be a JSON object (got 'random')",
                         id="update3-mode must be a JSON object"),
            pytest.param({"mode": {"kind": "random", "max_s": -1}},
                         "mode: max_s must be finite and >= 0 (got -1.0)",
                         id="update4-max_s must be finite and >= 0"),
            pytest.param({"mode": {"kind": "fixed", "delta_s": -1}},
                         "mode: delta_s must be finite and >= 0 (got -1.0)",
                         id="update5-delta_s must be finite and >= 0"),
            pytest.param({"timeout_s": 0}, "timeout_s must be finite and > 0 (got 0.0)",
                         id="update6-timeout_s must be finite and > 0"),
            pytest.param({"seed": -1}, "seed must be an integer >= 0 (got -1)",
                         id="update7-seed must be >= 0"),
            # Numbers are never coerced: no fraction, string or bool.
            pytest.param(_with_size(5.7),
                         "endpoints[0] task: size must be an integer >= 0 (got 5.7)",
                         id=r"update8-endpoints\[0\]\.task\.size must be int"),
            pytest.param(_with_size("5000"),
                         "endpoints[0] task: size must be an integer >= 0 (got '5000')",
                         id=r"update9-endpoints\[0\]\.task\.size must be int"),
            pytest.param(_with_size(True),
                         "endpoints[0] task: size must be an integer >= 0 (got True)",
                         id=r"update10-endpoints\[0\]\.task\.size must be int"),
            pytest.param({"count": 2.9}, "count must be an integer >= 0 (got 2.9)",
                         id="update11-count must be int"),
            pytest.param({"seed": True}, "seed must be an integer >= 0 (got True)",
                         id="update12-seed must be int"),
            pytest.param({"timeout_s": "3"}, "timeout_s must be a number (got '3')",
                         id="update13-timeout_s must be float"),
            # A url is a JSON string, never a number, null or list made one.
            pytest.param(_with_url(5), "endpoints[0]: url must be a string (got 5)",
                         id=r"update14-endpoints\[0\]\.url must be str, got 5"),
            pytest.param(_with_url(None), "endpoints[0]: url must be a string (got None)",
                         id=r"update15-endpoints\[0\]\.url must be str, got None"),
            pytest.param(_with_url(["http://x"]),
                         "endpoints[0]: url must be a string (got ['http://x'])",
                         id=r"update16-endpoints\[0\]\.url must be str, got \['http://x'\]"),
            # A kind is a JSON string, and the endpoint list a JSON array.
            pytest.param(_with_kind(["pic"]),
                         "endpoints[0] task: kind must be a string (got ['pic'])",
                         id=r"update17-endpoints\[0\]\.task\.kind must be str, got \['pic'\]"),
            pytest.param(_with_kind({}), "endpoints[0] task: kind must be a string (got {})",
                         id=r"update18-endpoints\[0\]\.task\.kind must be str, got \{\}"),
            pytest.param({"mode": {"kind": ["fixed"]}},
                         "mode: kind must be a string (got ['fixed'])",
                         id=r"update19-schedule mode\.kind must be str, got \['fixed'\]"),
            pytest.param({"endpoints": "ab"}, "endpoints must be a list of objects (got 'ab')",
                         id="update20-schedule endpoints must be list, got 'ab'"),
            pytest.param({"endpoints": {"a": 1}},
                         "endpoints must be a list of objects (got {'a': 1})",
                         id=r"update21-schedule endpoints must be list, got \{'a': 1\}"),
            pytest.param({"mode": {"kind": "burst"}},
                         "mode: kind must be 'round_robin', 'fixed' or 'random' (got 'burst')",
                         id="update22-unknown mode kind"),
        ],
    )
    def test_bad_value_is_named(self, tmp_path, update, message):
        sched = self.write(tmp_path, dict(GOOD_SCHEDULE, **update))
        with pytest.raises(ValueError) as info:
            load_schedule(sched)
        assert str(info.value) == f"{sched}: {message}"

    # An endpoint's own errors name the endpoint, or its task.
    @pytest.mark.parametrize("update, problem", [
        (_with_second_task({"kind": "nope", "size": 10}),
         "endpoints[1] task: unknown benchmark kind 'nope'"),
        (_with_second_task({"kind": "pic", "size": 0}),
         "endpoints[1] task: benchmark size must be >= 1"),
        (_with_second_task({"kind": "fsp", "size": 2**70}),
         f"endpoints[1]: fsp size {2**70} exceeds {FSP_MAX_BODY_BYTES // 8} lines, "
         f"the most whose body always fits in {FSP_MAX_BODY_BYTES} bytes"),
        (_with_second_task({"kind": "pic", "size": 10.5}),
         "endpoints[1] task: size must be an integer >= 0 (got 10.5)"),
        ({"count": 0}, "count must be >= 1 (got 0)"),
    ], ids=["kind", "size", "fsp-size", "fraction", "count"])
    def test_error_names_the_file(self, tmp_path, update, problem):
        path = self.write(tmp_path, dict(GOOD_SCHEDULE, **update))
        with pytest.raises(ValueError) as info:
            load_schedule(path)
        assert str(info.value) == f"{path}: {problem}"

    def test_fsp_size_is_bounded_before_any_body_is_built(self, tmp_path, monkeypatch):
        # Building the body of either size would take gigabytes or more.
        monkeypatch.setattr(ProbeTarget, "build_request", None)
        most = FSP_MAX_BODY_BYTES // 8

        def fsp_schedule(size):
            task = {"kind": "fsp", "size": size}
            update = {"endpoints": [{"url": "http://127.0.0.1:9", "task": task}]}
            return self.write(tmp_path, dict(GOOD_SCHEDULE, **update))

        for size in (2**70, most + 1):
            with pytest.raises(ValueError, match=f"fsp size {size} exceeds {most} lines"):
                load_schedule(fsp_schedule(size))
        assert load_schedule(fsp_schedule(most)).targets[0].task.size == most

    @pytest.mark.parametrize("text, problem", [
        (b'{"count": 2, "endpoints": "\xff"}',
         "'utf-8' codec can't decode byte 0xff in position 27: invalid start byte"),
        (b"{nope", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=["not-utf8", "not-json"])
    def test_unreadable_file_is_named(self, tmp_path, text, problem):
        path = tmp_path / "sched.json"
        path.write_bytes(text)
        with pytest.raises(ValueError) as info:
            load_schedule(path)
        assert str(info.value) == f"{path}: not valid JSON: {problem}"


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


@settings(max_examples=500, deadline=None)
@given(body=FSP_BODIES)
def test_fsp_body_reader_matches_per_line_reader(body):
    want = reference_fsp(body)
    text = body.decode("ascii", errors="backslashreplace")  # as the server decodes it
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            _read_numbers(text)
        assert str(err.value) == want
    else:
        got = _read_numbers(text)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_make_dataset_deterministic(tmp_path):
    a = make_dataset(tmp_path / "a.csv", lines=200, seed=5).read_text()
    b = make_dataset(tmp_path / "b.csv", lines=200, seed=5).read_text()
    assert a == b
    c = make_dataset(tmp_path / "c.csv", lines=200, seed=6).read_text()
    assert a != c
