"""Local benchmark server and probing client for latency measurement.

The server exposes three mini-benchmarks over plain HTTP request-response,
chosen to stress different subsystems: ``pic`` (CPU: Leibniz
alternating-series approximation of pi with N terms), ``psf`` (memory:
summary statistics over the first N values of a dataset loaded at
startup) and ``fsp`` (network: the same statistics over a CSV body
shipped with the request, whose ``lines`` is declared for logging).
The dataset and an ``fsp`` body are numeric text, read by
``latency._read_numbers``: each line's first comma field, ``#`` comments.
``ENDPOINTS`` lists each kind once, served at ``/<kind>?<param>=N``: its
HTTP method, its size parameter and the sizes a server accepts without
``allow_out_of_range``.

Responses are JSON and always carry ``exec_ms``, the server-side compute
time, so probes can split transport from execution.  At the sizes the
``perfbench`` ``measure`` workload requests, its median on a 2-vCPU
x86_64 VM is 0.077 ms for ``pic`` at 50,000 terms, 0.087 ms for ``psf``
at 20,000 lines and 0.53 ms for ``fsp`` at 5,000 lines.  ``pic`` negates
every other term instead of raising -1 to a power per term, so a request
costs about a fourteenth of what it did at the same size (1.06 ms at
50,000 terms), with the same result: ``pic`` probe files recorded with
earlier versions do not compare with later ones.  The server speaks
HTTP/1.1 keep-alive, and still serves one-shot clients (HTTP/1.0, or
``Connection: close``) one request per connection.  The probing client
invokes endpoints strictly sequentially (it must never compete with
itself), tracks the actual gap since the previous invocation of the same
endpoint (start to start), and appends one CSV row per invocation;
failures become rows with an error status rather than being dropped.
Its ``latency_s`` is wall-clock time of one request/response exchange on
an already-open connection, from just before the request is sent to the
parsed JSON response: the client keeps one persistent connection per
(scheme, host, port) and opens it, or reopens it when the server has
closed it (as a server's idle timeout does during a long gap), before an
invocation's clock starts, so connection setup is in no recorded latency.
Each target's request is built once per run, before the first
invocation, so building it (for ``/fsp``, formatting the whole CSV body)
is not part of any recorded latency either.  Proxies named in the
environment are not used, and a redirect is recorded, not followed.

Probe record CSV columns (``PROBE_COLUMNS``): ``delta_t_s,latency_s,
endpoint,option,timestamp_unix_ms,status`` (the first five are the shared
characterization format; status extends it so failed invocations stay in
the file, and a file without it reads as all ``ok``).
"""

from __future__ import annotations

import contextlib
import csv
import http.client
import io
import json
import math
import select
import socket
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from .latency import (Empirical, Fields, _finite_number, _load_json, _load_numbers, _read_numbers,
                      make_rng)

__all__ = [
    "ENDPOINTS",
    "MIN_DATASET_LINES",
    "FSP_MAX_BODY_BYTES",
    "BenchTask",
    "ProbeTarget",
    "ProbeSchedule",
    "ProbeRow",
    "BenchServer",
    "start_server",
    "make_dataset",
    "leibniz_pi",
    "probe",
    "load_probe_rows",
    "ok_rows",
    "summarize",
    "load_schedule",
    "EmptySummaryError",
]

# Each benchmark kind, served at /<kind>: its HTTP method, its size parameter,
# and the smallest and largest size accepted without allow_out_of_range.
ENDPOINTS = {
    "pic": ("GET", "iters", 5_000, 500_000),
    "psf": ("GET", "lines", 500, 50_000),
    "fsp": ("POST", "lines", 500, 10_000),
}
MIN_DATASET_LINES = 50_000
# Values make_dataset draws and formats per write.
_DATASET_CHUNK = 4096
# Largest /fsp body read; a longer Content-Length is answered 413 unread.
FSP_MAX_BODY_BYTES = 1 << 24
# Longest a connection closed on an unread body is drained after the reply.
_DRAIN_S = 1.0


class EmptySummaryError(ValueError):
    pass


def _digits(text: str, name: str) -> int:
    """``text`` as a nonnegative integer, or a ValueError naming ``name``.

    int() would also take signs, spaces, underscores and non-ASCII digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{name} must be ASCII decimal digits (got {text!r})")
    return int(text)


@dataclass(frozen=True)
class BenchTask:
    """One benchmark invocation: kind plus its size parameter.

    A server started without ``allow_out_of_range`` rejects sizes outside ``range_ok``.
    """

    kind: str  # a key of ENDPOINTS
    size: int

    def __post_init__(self):
        if self.kind not in ENDPOINTS:
            raise ValueError(f"unknown benchmark kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("benchmark size must be >= 1")

    def range_ok(self) -> bool:
        _, _, lo, hi = ENDPOINTS[self.kind]
        return lo <= self.size <= hi

    def option_label(self) -> str:
        """The request's query string, as in ``iters=5000``."""
        _, param, _, _ = ENDPOINTS[self.kind]
        return f"{param}={self.size}"


def leibniz_pi(iters: int) -> float:
    """Partial sum 4 * sum_{k<iters} (-1)^k / (2k+1); exactly 4.0 at one term."""
    return _leibniz_sum(np.arange(1.0, 2.0 * iters, 2.0), np.empty(iters))


def _leibniz_sum(odd: np.ndarray, terms: np.ndarray) -> float:
    """``leibniz_pi`` over the odd numbers ``odd``, written into ``terms``."""
    np.divide(1.0, odd, out=terms)
    terms[1::2] *= -1.0
    return float(4.0 * np.sum(terms))


def _column_stats(values: np.ndarray) -> dict:
    """Mean, population stdev, min and max; JSON has no infinity, so a
    statistic beyond the float range is a ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        stats = {
            "mean": float(np.mean(values)),
            "stdev": float(np.std(values)),  # well-defined down to a single value
            "min": float(np.min(values)),
            "max": float(np.max(values)),
        }
    for name, value in stats.items():
        if not math.isfinite(value):
            raise ValueError(f"computing the {name} of these values overflows the float range")
    return stats


def make_dataset(path, lines: int = MIN_DATASET_LINES, seed: int = 0) -> Path:
    """Write a seeded PSF dataset: one uniform value in [0, 1000) per line,
    the one field the server reads, as ``%.6f``.

    The values are drawn and written ``_DATASET_CHUNK`` at a time, so memory
    does not grow with ``lines``; the chunks draw the same doubles as one
    call would, and the file is byte for byte what
    ``np.savetxt(path, make_rng(seed).uniform(0.0, 1000.0, lines), fmt="%.6f")``
    writes.  A negative ``lines`` is a ValueError, and no file is written.
    """
    if lines < 0:
        raise ValueError(f"lines must be >= 0 (got {lines})")
    path = Path(path)
    rng = make_rng(seed)
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, lines, _DATASET_CHUNK):
            k = min(_DATASET_CHUNK, lines - start)
            fh.write("%.6f\n" * k % tuple(rng.uniform(0.0, 1000.0, k)))
    return path


def _load_dataset(path) -> np.ndarray:
    """The first field of each line of a CSV file; each error names the file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file {path} does not exist")
    values = _load_numbers(path, "dataset")
    if values.size < MIN_DATASET_LINES:
        raise ValueError(
            f"dataset {path}: {values.size} values; at least {MIN_DATASET_LINES} required")
    return values


class _Handler(BaseHTTPRequestHandler):
    server: "BenchServer"
    # Keep-alive: a connection serves requests until the client closes it
    # or sends HTTP/1.0 or "Connection: close".  A reply goes out as two
    # writes, headers then body, so Nagle's algorithm would hold the body
    # until the client's delayed ACK of the headers (RFC 1122 4.2.3.2).
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # quiet; the probe keeps its own records
        pass

    def _reply(self, code: int, payload: dict, body_read: bool = False):
        """Send ``payload`` as JSON.

        Unless ``body_read``, a request that carries a body gets its reply
        with the connection closed: the unread body bytes would otherwise
        be parsed as the next request on it.
        """
        body = json.dumps(payload).encode()
        unread = not body_read and (self.headers.get("Content-Length", "0") != "0"
                                    or "Transfer-Encoding" in self.headers)
        self.send_response(code)
        if unread:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        if unread:
            self._close_in_stages()

    def _close_in_stages(self):
        """End the sending half, then drop input until EOF or ``_DRAIN_S``.

        Closed at once, a socket with unread input answers the client's next
        write with a reset, and the client, still sending the body, may lose
        the reply it was sent (RFC 9112 section 9.6).
        """
        deadline = time.monotonic() + _DRAIN_S
        try:
            self.wfile.flush()
            self.connection.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                self.connection.settimeout(left)
                if not self.connection.recv(1 << 16):
                    break
        except OSError:  # reset by the client, or the bound reached
            pass

    def _bad(self, reason: str, body_read: bool = False):
        self._reply(400, {"error": reason}, body_read)

    def _check_range(self, task: BenchTask):
        if not self.server.allow_out_of_range and not task.range_ok():
            raise ValueError(
                f"{task.kind} size {task.size} outside supported range; "
                "start the server with --allow-out-of-range to permit it"
            )

    def _kind(self, path: str, method: str):
        """The kind served at ``path`` by ``method``, or None after answering 404."""
        if path.startswith("/") and ENDPOINTS.get(path[1:], ("",))[0] == method:
            return path[1:]
        self._reply(404, {"error": f"unknown path {path!r}"})

    # A GET kind's kernel, ``_<kind>(size)``, refuses a size it cannot serve
    # and returns the computation that ``exec_ms`` times.
    # ``_pic`` keeps its odd numbers and terms per handler, that is per
    # connection, grown to the largest ``iters`` served on it: a fresh
    # array per request made ``exec_ms`` depend on the allocator's state.
    _odd = _terms = np.empty(0)

    def _pic(self, iters: int):
        if self._odd.size < iters:
            self._odd = np.arange(1.0, 2.0 * iters, 2.0)
            self._terms = np.empty(iters)
        return lambda: {"result": _leibniz_sum(self._odd[:iters], self._terms[:iters])}

    def _psf(self, lines: int):
        if lines > self.server.dataset.size:
            raise ValueError(f"lines={lines} exceeds dataset size {self.server.dataset.size}")
        return lambda: _column_stats(self.server.dataset[:lines])

    def do_GET(self):
        parsed = urllib.parse.urlparse(self.path)
        if (kind := self._kind(parsed.path, "GET")) is None:
            return
        try:
            _, param, _, _ = ENDPOINTS[kind]
            texts = urllib.parse.parse_qs(parsed.query).get(param)
            if texts is None:
                raise ValueError(f"missing required parameter {param!r}")
            size = _digits(texts[0], f"parameter {param!r}")
            self._check_range(BenchTask(kind, size))
            kernel = getattr(self, f"_{kind}")(size)
            t0 = time.perf_counter()
            payload = kernel()
            exec_ms = (time.perf_counter() - t0) * 1e3
            self._reply(200, {**payload, "exec_ms": exec_ms})
        except ValueError as exc:
            self._bad(str(exc))

    def do_POST(self):
        if (kind := self._kind(urllib.parse.urlparse(self.path).path, "POST")) is None:
            return
        if "Transfer-Encoding" in self.headers:
            self._reply(411, {"error": "a chunked body is not read; send Content-Length"})
            return
        try:
            # No sign: rfile.read(-1) would block until the client hangs up.
            length = _digits(self.headers.get("Content-Length", "0"), "Content-Length")
        except ValueError as exc:
            self._bad(str(exc))
            return
        if length > FSP_MAX_BODY_BYTES:
            self._reply(413, {"error": f"body exceeds {FSP_MAX_BODY_BYTES} bytes"})
            return
        # Lines are ASCII: other bytes stay escaped, so their line is named below.
        body = self.rfile.read(length).decode("ascii", errors="backslashreplace")
        try:
            t0 = time.perf_counter()
            values = _read_numbers(body)
            if not values.size:
                raise ValueError("empty request body; expected CSV lines")
            self._check_range(BenchTask(kind, values.size))
            stats = _column_stats(values)
            exec_ms = (time.perf_counter() - t0) * 1e3
            self._reply(200, {**stats, "exec_ms": exec_ms}, body_read=True)
        except ValueError as exc:
            self._bad(str(exc), body_read=True)


class BenchServer(ThreadingHTTPServer):
    """Benchmark HTTP server over an immutable in-memory dataset."""

    daemon_threads = True

    def __init__(self, bind: tuple[str, int], dataset_path, allow_out_of_range: bool = False):
        self.dataset = _load_dataset(dataset_path)
        self.dataset.setflags(write=False)
        self.allow_out_of_range = allow_out_of_range
        super().__init__(bind, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_server(dataset_path, host: str = "127.0.0.1", port: int = 0,
                 allow_out_of_range: bool = False) -> tuple[BenchServer, threading.Thread]:
    """Start a server on a daemon thread; port 0 picks a free port."""
    server = BenchServer((host, port), dataset_path, allow_out_of_range)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


# ---------------------------------------------------------------------------
# Probe client
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeTarget:
    base_url: str
    task: BenchTask

    def __post_init__(self):
        # A POST body line is at most 7 characters and a newline; a larger
        # size is refused here, before its body is built in memory.
        most = FSP_MAX_BODY_BYTES // 8
        if ENDPOINTS[self.task.kind][0] == "POST" and self.task.size > most:
            raise ValueError(f"{self.task.kind} size {self.task.size} exceeds {most} lines, "
                             f"the most whose body always fits in {FSP_MAX_BODY_BYTES} bytes")

    def endpoint(self) -> str:
        return f"{self.base_url.rstrip('/')}/{self.task.kind}"

    def build_request(self) -> urllib.request.Request:
        url = f"{self.endpoint()}?{self.task.option_label()}"
        if ENDPOINTS[self.task.kind][0] == "GET":
            return urllib.request.Request(url)
        lines = "\n".join(f"{(i * 37 % 1000) + 0.5:.3f}" for i in range(self.task.size))
        return urllib.request.Request(
            url, data=lines.encode(), headers={"Content-Type": "text/csv"}, method="POST"
        )


@dataclass(frozen=True)
class ProbeSchedule:
    """Sequential invocation plan over one or more endpoints.

    Modes: ``round_robin`` fires back to back; ``fixed`` paces invocation
    starts ``delta_s`` apart; ``random`` sleeps a uniform gap in
    (0, max_s) before each invocation after the first.
    """

    targets: tuple[ProbeTarget, ...]
    count: int
    mode: str = "round_robin"
    delta_s: float = 0.0
    max_s: float = 0.0
    seed: int = 0
    timeout_s: float = 30.0

    def __post_init__(self):
        if len(self.targets) == 0:
            raise ValueError("schedule needs at least one target")
        if self.count < 1:
            raise ValueError(f"count must be >= 1 (got {self.count})")
        if self.mode not in ("round_robin", "fixed", "random"):
            raise ValueError(
                f"kind must be 'round_robin', 'fixed' or 'random' (got {self.mode!r})")
        for name in ("delta_s", "max_s"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 0 (got {getattr(self, name)})")
        if not (0.0 < self.timeout_s < math.inf):
            raise ValueError(f"timeout_s must be finite and > 0 (got {self.timeout_s})")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0 (got {self.seed})")


def load_schedule(path) -> ProbeSchedule:
    """Read a JSON probe schedule by ``latency.Fields``, as scenarios are
    read: a bad field or endpoint raises ``ValueError`` naming the file, the
    record and the field, so a bad schedule fails before anything is sent."""
    return _load_json(path, _schedule_from_config)


def _schedule_from_config(cfg, _directory=None) -> ProbeSchedule:
    root = Fields(cfg)
    targets = []
    for e in root.records("endpoints"):
        url, task = e.text("url"), e.record("task")
        bench = task.apply(BenchTask, task.text("kind"), task.integer("size"))
        targets.append(e.apply(ProbeTarget, url, bench))
    # Built in two steps, so that a mode field's refusal is located at the mode record.
    schedule = root.apply(ProbeSchedule, tuple(targets), root.integer("count"),
                          seed=root.integer("seed", default=0),
                          timeout_s=root.number("timeout_s", default=30.0))
    mode = root.record("mode", default={})
    return mode.apply(replace, schedule, mode=mode.text("kind", default="round_robin"),
                      delta_s=mode.number("delta_s", default=0.0),
                      max_s=mode.number("max_s", default=0.0))


@dataclass(frozen=True)
class ProbeRow:
    delta_t_s: float  # NaN on the first invocation of an endpoint
    latency_s: float  # NaN on failure
    endpoint: str
    option: str
    timestamp_unix_ms: int
    status: str
    exec_ms: float = float("nan")


def _optional_float(text: str) -> float:
    """A time in seconds: finite and >= 0, or NaN for an empty cell only."""
    if not text:
        return math.nan
    # float() would also take spaces, which _finite_number lets through.
    if text != text.strip() or not _finite_number(text):
        raise ValueError(f"time {text!r} must be a finite ASCII decimal number")
    value = float(text)
    if value < 0.0:
        raise ValueError(f"time {text!r} must be finite and >= 0")
    return value


def _optional_float_cell(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.6f}"


# Each probe CSV column in file order, which is ProbeRow's field order, with
# the parser of its cell and the formatter of its value.  Status comes last
# and is optional on read: a five-column file or an empty cell reads as ok.
PROBE_COLUMNS = (
    ("delta_t_s", _optional_float, _optional_float_cell),
    ("latency_s", _optional_float, _optional_float_cell),
    ("endpoint", str, str),
    ("option", str, str),
    ("timestamp_unix_ms", lambda text: _digits(text, "timestamp") if text else 0, str),
    ("status", lambda text: text or "ok", str),
)


# The connection class for each URL scheme the probe speaks.
_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


def _origin(request: urllib.request.Request) -> tuple[str, str, int]:
    """The (scheme, host, port) that ``request`` goes to, or a ValueError."""
    parts = urllib.parse.urlsplit(request.full_url)
    if parts.scheme not in _CONNECTIONS or not parts.hostname:
        raise ValueError(f"cannot probe {request.full_url!r}: "
                         "expected an http:// or https:// URL with a host")
    return parts.scheme, parts.hostname, parts.port or _CONNECTIONS[parts.scheme].default_port


def _ready(conn: http.client.HTTPConnection) -> None:
    """Leave ``conn`` open and idle: reopen it unless it already is.

    A kept-alive socket has nothing to read between exchanges, so a
    readable one was closed by the server (an idle timeout sends EOF) or
    holds bytes that no request asked for; either way it is reopened.  A
    failed connect leaves ``conn`` closed.
    """
    if conn.sock is not None and not select.select([conn.sock], [], [], 0)[0]:
        return
    conn.close()
    try:
        conn.connect()
    except OSError:
        conn.close()


def _exchange(conn: http.client.HTTPConnection, request: urllib.request.Request,
              headers: dict, start: float) -> tuple[str, float, float]:
    """Send ``request`` on the open ``conn``: its (status, latency_s, exec_ms).

    A reply is read in full, so the connection stays usable after any
    status; a transport failure closes it.
    """
    latency, exec_ms = math.nan, math.nan
    try:
        conn.request(request.get_method(), request.selector, request.data, headers)
        with conn.getresponse() as resp:
            body = resp.read()
        latency = time.perf_counter() - start
        if resp.status >= 300:  # a redirect is not followed: latency_s is one exchange
            return f"http_{resp.status}", latency, exec_ms
        payload = json.loads(body.decode())
        if not isinstance(payload, dict):
            raise ValueError(f"reply is not a JSON object: {payload!r}")
        exec_ms = float(payload.get("exec_ms", math.nan))
        return "ok", latency, exec_ms
    except OSError:  # refused, reset, timed out, or closed before a reply
        conn.close()
        return "connection_error", latency, exec_ms
    except http.client.HTTPException:  # not an HTTP reply
        conn.close()
        return "bad_response", latency, exec_ms
    except (ValueError, TypeError):  # not JSON, not an object, or an exec_ms float() refuses
        return "bad_response", latency, exec_ms


def probe(schedule: ProbeSchedule, out_path) -> list[ProbeRow]:
    """Run the schedule, appending one CSV row per invocation.

    Rows are flushed as they happen so an interrupted run still leaves a
    valid file.  Connection errors and HTTP errors are recorded with a
    status tag and the run continues.  Each target's request is built once,
    before the first invocation, and sent again on every invocation of that
    target; a target whose URL cannot form a request, or is not http or
    https, raises ``ValueError`` before anything is sent.  One persistent
    connection per (scheme, host, port) carries every exchange; it is
    opened, and reopened after a connection error or a server's close,
    after the schedule's gap and before an invocation's clock starts, so
    the timed region holds only the exchange.  A connection is reused only
    while the gap is shorter than the server's idle timeout; past it, the
    server's close is seen before sending and the connection reopened.
    Proxies named in the environment are not used, and a 3xx reply is
    recorded as ``http_<code>``, not followed.
    """
    sends = []  # per target: its row key, request, headers and origin
    for target in schedule.targets:
        request = target.build_request()
        sends.append(((target.endpoint(), target.task.option_label()), request,
                      dict(request.header_items()), _origin(request)))
    # Unopened: a connection opens before the first invocation that uses it.
    conns = {origin: _CONNECTIONS[origin[0]](*origin[1:], timeout=schedule.timeout_s)
             for *_, origin in sends}
    rng = make_rng(schedule.seed)
    rows: list[ProbeRow] = []
    last_start: dict[tuple[str, str], float] = {}
    prev_start: float | None = None
    out_path = Path(out_path)
    with out_path.open("w", encoding="utf-8", newline="") as fh, contextlib.ExitStack() as stack:
        for conn in conns.values():
            stack.callback(conn.close)
        writer = csv.writer(fh)
        writer.writerow([column for column, _, _ in PROBE_COLUMNS])
        for i in range(schedule.count):
            key, request, headers, origin = sends[i % len(sends)]
            if i > 0 and schedule.mode == "fixed":
                wait = prev_start + schedule.delta_s - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            elif i > 0 and schedule.mode == "random":
                time.sleep(float(rng.uniform(0.0, schedule.max_s)))
            conn = conns[origin]
            _ready(conn)  # after the gap, in which the server may have closed it
            start = time.perf_counter()
            prev_start = start
            stamp = int(time.time() * 1000)
            delta = start - last_start[key] if key in last_start else float("nan")
            last_start[key] = start
            if conn.sock is None:
                status, latency, exec_ms = "connection_error", math.nan, math.nan
            else:
                status, latency, exec_ms = _exchange(conn, request, headers, start)
            row = ProbeRow(
                delta_t_s=delta,
                latency_s=latency if status == "ok" else float("nan"),
                endpoint=key[0],
                option=key[1],
                timestamp_unix_ms=stamp,
                status=status,
                exec_ms=exec_ms,
            )
            rows.append(row)
            writer.writerow([fmt(getattr(row, column)) for column, _, fmt in PROBE_COLUMNS])
            fh.flush()
    return rows


def load_probe_rows(path) -> list[ProbeRow]:
    """Read a probe CSV; 5-column files (no status) are treated as all-ok.

    A missing column, a short row, a cell that does not parse, or a
    negative or infinite gap or latency raises ValueError naming the
    file, the line and the column, then the cell parser's reason; a column
    named twice in the header, or a row longer than the header, raises one
    naming the file and the line.
    """
    path = Path(path)
    try:
        content = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    rows = []
    reader = csv.DictReader(io.StringIO(content, newline=""))
    header = reader.fieldnames or []
    for column, _, _ in PROBE_COLUMNS[:-1]:
        if column not in header:
            raise ValueError(f"{path}: line 1: missing column {column!r}")
    for i, column in enumerate(header):
        if column in header[:i]:
            raise ValueError(f"{path}: line 1: column {column!r} is named twice")
    for rec in reader:
        if None in rec:  # DictReader's key for the cells past the header's last column
            raise ValueError(f"{path}: line {reader.line_num}: the row has "
                             f"{len(header) + len(rec[None])} cells, the header {len(header)}")
        cells = []
        for column, parse, _ in PROBE_COLUMNS:
            text = rec.get(column, "")  # "" in a file without status
            try:
                if text is None:
                    raise ValueError("the row ends before it")
                cells.append(parse(text))
            except ValueError as exc:  # the parser's own reason, after the column
                where = f"{path}: line {reader.line_num}: column {column!r}"
                raise ValueError(f"{where}: {exc}") from None
        rows.append(ProbeRow(*cells))
    return rows


def nearest_rank(sorted_values: np.ndarray, p: float) -> float:
    """ceil(p*N)-th order statistic; always a member of the sample."""
    return float(Empirical._quantile(p, sorted_values))


def ok_rows(rows: list[ProbeRow]) -> list[ProbeRow]:
    """Rows with status ``ok`` and a finite latency: the ones to characterize.

    A five-column file has no status, so a row with an empty latency cell
    reads as ``ok`` with a NaN latency; it is dropped here.
    """
    return [r for r in rows if r.status == "ok" and math.isfinite(r.latency_s)]


def summarize(rows: list[ProbeRow]) -> dict[tuple[str, str], dict]:
    """Per-(endpoint, option) latency summary of the ``ok_rows``.

    Quantiles use the nearest-rank convention, so every reported value is
    an observed latency; ``sp`` is the 10th-to-90th percentile span.
    """
    ok = ok_rows(rows)
    if not ok:
        raise EmptySummaryError("no successful probe records to summarize")
    out: dict[tuple[str, str], dict] = {}
    keys = sorted({(r.endpoint, r.option) for r in ok})
    for key in keys:
        lat = np.sort(np.asarray([r.latency_s for r in ok if (r.endpoint, r.option) == key]))
        p10 = nearest_rank(lat, 0.10)
        p90 = nearest_rank(lat, 0.90)
        out[key] = {
            "median": nearest_rank(lat, 0.50),
            "p10": p10,
            "p90": p90,
            "sp": p90 - p10,
            "n": int(lat.size),
        }
    return out
