"""Local benchmark server and probing client for latency measurement.

The server exposes three mini-benchmarks over plain HTTP request-response,
chosen to stress different subsystems:

* ``GET /pic?iters=N``  -- CPU: Leibniz alternating-series approximation
  of pi with N terms.
* ``GET /psf?lines=N``  -- memory: summary statistics over the first N
  values of a dataset loaded at startup.
* ``POST /fsp?lines=N`` -- network: the same statistics over a CSV body
  shipped with the request (``lines`` is declared for logging).

Responses are JSON and always carry ``exec_ms``, the server-side compute
time, so probes can split transport from execution.  The probing client
invokes endpoints strictly sequentially (it must never compete with
itself), tracks the actual gap since the previous invocation of the same
endpoint (start to start), and appends one CSV row per invocation;
failures become rows with an error status rather than being dropped.
Its ``latency_s`` is wall-clock time from just before the request is sent
to the parsed JSON response.  Each target's request is built once per
run, before the first invocation, so building it (for ``/fsp``, formatting
the whole CSV body) is not part of any recorded latency.

Probe record CSV columns: ``delta_t_s,latency_s,endpoint,option,
timestamp_unix_ms,status`` (the first five are the shared
characterization format; status extends it so failed invocations stay in
the file).
"""

from __future__ import annotations

import csv
import json
import math
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from .latency import make_rng

__all__ = [
    "PIC_ITER_RANGE",
    "PSF_LINE_RANGE",
    "FSP_LINE_RANGE",
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

PIC_ITER_RANGE = (5_000, 500_000)
PSF_LINE_RANGE = (500, 50_000)
FSP_LINE_RANGE = (500, 10_000)
MIN_DATASET_LINES = 50_000
# Largest /fsp body read; a longer Content-Length is answered 413 unread.
FSP_MAX_BODY_BYTES = 1 << 24

PROBE_HEADER = ["delta_t_s", "latency_s", "endpoint", "option", "timestamp_unix_ms", "status"]


class EmptySummaryError(ValueError):
    pass


@dataclass(frozen=True)
class BenchTask:
    """One benchmark invocation: kind plus its size parameter.

    Sizes outside the supported ranges are rejected unless
    ``allow_out_of_range`` is set (useful for tiny smoke-test requests).
    """

    kind: str  # "pic" | "psf" | "fsp"
    size: int

    def __post_init__(self):
        if self.kind not in ("pic", "psf", "fsp"):
            raise ValueError(f"unknown benchmark kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("benchmark size must be >= 1")

    def range_ok(self) -> bool:
        lo, hi = {"pic": PIC_ITER_RANGE, "psf": PSF_LINE_RANGE, "fsp": FSP_LINE_RANGE}[self.kind]
        return lo <= self.size <= hi

    def option_label(self) -> str:
        return f"{'iters' if self.kind == 'pic' else 'lines'}={self.size}"


def leibniz_pi(iters: int) -> float:
    """Partial sum 4 * sum_{k<iters} (-1)^k / (2k+1); exactly 4.0 at one term."""
    k = np.arange(iters, dtype=float)
    return float(4.0 * np.sum((-1.0) ** (k % 2) / (2.0 * k + 1.0)))


def _column_stats(values: np.ndarray) -> dict:
    # Population standard deviation: well-defined down to a single value.
    return {
        "mean": float(np.mean(values)),
        "stdev": float(np.std(values)),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
    }


def make_dataset(path, lines: int = MIN_DATASET_LINES, seed: int = 0) -> Path:
    """Write a seeded numeric CSV fixture usable as the PSF dataset."""
    rng = make_rng(seed)
    data = np.column_stack(
        [
            rng.uniform(0.0, 1000.0, lines),
            rng.normal(50.0, 10.0, lines),
            rng.exponential(5.0, lines),
        ]
    )
    path = Path(path)
    np.savetxt(path, data, fmt="%.6f", delimiter=",")
    return path


def _load_dataset(path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file {path} does not exist")
    values = np.loadtxt(path, delimiter=",", ndmin=2)[:, 0]
    if values.size < MIN_DATASET_LINES:
        raise ValueError(
            f"dataset has {values.size} lines; at least {MIN_DATASET_LINES} required"
        )
    return values


class _Handler(BaseHTTPRequestHandler):
    server: "BenchServer"

    def log_message(self, fmt, *args):  # quiet; the probe keeps its own records
        pass

    def _reply(self, code: int, payload: dict):
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _bad(self, reason: str):
        self._reply(400, {"error": reason})

    def _int_param(self, query: dict, name: str):
        try:
            return int(query[name][0])
        except (KeyError, IndexError):
            raise ValueError(f"missing required parameter {name!r}")
        except ValueError:
            raise ValueError(f"parameter {name!r} must be an integer")

    def _check_range(self, task: BenchTask):
        if not self.server.allow_out_of_range and not task.range_ok():
            raise ValueError(
                f"{task.kind} size {task.size} outside supported range; "
                "start the server with --allow-out-of-range to permit it"
            )

    def do_GET(self):
        parsed = urllib.parse.urlparse(self.path)
        query = urllib.parse.parse_qs(parsed.query)
        try:
            if parsed.path == "/pic":
                iters = self._int_param(query, "iters")
                task = BenchTask("pic", iters)
                self._check_range(task)
                t0 = time.perf_counter()
                result = leibniz_pi(iters)
                exec_ms = (time.perf_counter() - t0) * 1e3
                self._reply(200, {"result": result, "exec_ms": exec_ms})
            elif parsed.path == "/psf":
                lines = self._int_param(query, "lines")
                task = BenchTask("psf", lines)
                self._check_range(task)
                if lines > self.server.dataset.size:
                    raise ValueError(
                        f"lines={lines} exceeds dataset size {self.server.dataset.size}"
                    )
                t0 = time.perf_counter()
                stats = _column_stats(self.server.dataset[:lines])
                exec_ms = (time.perf_counter() - t0) * 1e3
                self._reply(200, {**stats, "exec_ms": exec_ms})
            else:
                self._reply(404, {"error": f"unknown path {parsed.path!r}"})
        except ValueError as exc:
            self._bad(str(exc))

    def do_POST(self):
        parsed = urllib.parse.urlparse(self.path)
        if parsed.path != "/fsp":
            self._reply(404, {"error": f"unknown path {parsed.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                # rfile.read(-1) would block until the client hangs up.
                raise ValueError(f"Content-Length must be >= 0 (got {length})")
            if length > FSP_MAX_BODY_BYTES:
                self._reply(413, {"error": f"body exceeds {FSP_MAX_BODY_BYTES} bytes"})
                return
            body = self.rfile.read(length).decode()
            t0 = time.perf_counter()
            values = []
            for line in body.splitlines():
                line = line.strip()
                if not line:
                    continue
                values.append(float(line.split(",")[0]))
            if not values:
                raise ValueError("empty request body; expected CSV lines")
            task = BenchTask("fsp", len(values))
            self._check_range(task)
            stats = _column_stats(np.asarray(values))
            exec_ms = (time.perf_counter() - t0) * 1e3
            self._reply(200, {**stats, "exec_ms": exec_ms})
        except ValueError as exc:
            self._bad(str(exc))


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

    def endpoint(self) -> str:
        return f"{self.base_url.rstrip('/')}/{self.task.kind}"

    def build_request(self) -> urllib.request.Request:
        if self.task.kind == "pic":
            return urllib.request.Request(f"{self.endpoint()}?iters={self.task.size}")
        if self.task.kind == "psf":
            return urllib.request.Request(f"{self.endpoint()}?lines={self.task.size}")
        lines = "\n".join(f"{(i * 37 % 1000) + 0.5:.3f}" for i in range(self.task.size))
        return urllib.request.Request(
            f"{self.endpoint()}?lines={self.task.size}",
            data=lines.encode(),
            headers={"Content-Type": "text/csv"},
            method="POST",
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
            raise ValueError("schedule count must be >= 1")
        if self.mode not in ("round_robin", "fixed", "random"):
            raise ValueError(f"unknown probe mode {self.mode!r}")
        for name in ("delta_s", "max_s"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"schedule {name} must be finite and >= 0 "
                                 f"(got {getattr(self, name)})")
        if not (0.0 < self.timeout_s < math.inf):
            raise ValueError(f"schedule timeout_s must be finite and > 0 (got {self.timeout_s})")
        if self.seed < 0:
            raise ValueError(f"schedule seed must be >= 0 (got {self.seed})")


_REQUIRED = object()


def _field(record, key: str, where: str, convert=None, default=_REQUIRED):
    """``record[key]`` through ``convert``, or a ValueError naming the field."""
    if not isinstance(record, dict):
        raise ValueError(f"schedule {where or 'file'} must be a JSON object")
    name = f"{where}.{key}" if where else key
    if key not in record:
        if default is _REQUIRED:
            raise ValueError(f"schedule is missing {name}")
        return default
    if convert is None:
        return record[key]
    try:
        return convert(record[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"schedule {name} must be {convert.__name__}, got {record[key]!r}"
        ) from None


def load_schedule(path) -> ProbeSchedule:
    """Read a JSON probe schedule.

    A missing or malformed field raises ``ValueError`` naming it, so a bad
    schedule fails before anything is sent.
    """
    cfg = json.loads(Path(path).read_text())
    targets = []
    for i, e in enumerate(_field(cfg, "endpoints", "", list)):
        task = _field(e, "task", f"endpoints[{i}]")
        targets.append(ProbeTarget(
            base_url=_field(e, "url", f"endpoints[{i}]", str),
            task=BenchTask(kind=_field(task, "kind", f"endpoints[{i}].task"),
                           size=_field(task, "size", f"endpoints[{i}].task", int)),
        ))
    mode = _field(cfg, "mode", "", default={})
    return ProbeSchedule(
        targets=tuple(targets),
        count=_field(cfg, "count", "", int),
        mode=_field(mode, "kind", "mode", default="round_robin"),
        delta_s=_field(mode, "delta_s", "mode", float, 0.0),
        max_s=_field(mode, "max_s", "mode", float, 0.0),
        seed=_field(cfg, "seed", "", int, 0),
        timeout_s=_field(cfg, "timeout_s", "", float, 30.0),
    )


@dataclass(frozen=True)
class ProbeRow:
    delta_t_s: float  # NaN on the first invocation of an endpoint
    latency_s: float  # NaN on failure
    endpoint: str
    option: str
    timestamp_unix_ms: int
    status: str
    exec_ms: float = float("nan")


def probe(schedule: ProbeSchedule, out_path) -> list[ProbeRow]:
    """Run the schedule, appending one CSV row per invocation.

    Rows are flushed as they happen so an interrupted run still leaves a
    valid file.  Connection errors and HTTP errors are recorded with a
    status tag and the run continues.  Each target's request is built once,
    before the first invocation, and sent again on every invocation of that
    target, so the timed region holds only the exchange; a target whose URL
    cannot form a request raises ``ValueError`` before anything is sent.
    """
    requests = [target.build_request() for target in schedule.targets]
    rng = make_rng(schedule.seed)
    rows: list[ProbeRow] = []
    last_start: dict[tuple[str, str], float] = {}
    prev_start: float | None = None
    out_path = Path(out_path)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROBE_HEADER)
        for i in range(schedule.count):
            k = i % len(schedule.targets)
            target, request = schedule.targets[k], requests[k]
            if i > 0 and schedule.mode == "fixed":
                wait = prev_start + schedule.delta_s - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            elif i > 0 and schedule.mode == "random":
                time.sleep(float(rng.uniform(0.0, schedule.max_s)))
            key = (target.endpoint(), target.task.option_label())
            start = time.perf_counter()
            prev_start = start
            stamp = int(time.time() * 1000)
            delta = start - last_start[key] if key in last_start else float("nan")
            last_start[key] = start
            status, latency, exec_ms = "ok", float("nan"), float("nan")
            try:
                with urllib.request.urlopen(request, timeout=schedule.timeout_s) as resp:
                    payload = json.loads(resp.read().decode())
                latency = time.perf_counter() - start
                exec_ms = float(payload.get("exec_ms", float("nan")))
            except urllib.error.HTTPError as exc:
                latency = time.perf_counter() - start
                status = f"http_{exc.code}"
            except (urllib.error.URLError, TimeoutError, OSError):
                status = "connection_error"
            except (ValueError, json.JSONDecodeError):
                status = "bad_response"
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
            writer.writerow(
                [
                    "" if math.isnan(row.delta_t_s) else f"{row.delta_t_s:.6f}",
                    "" if math.isnan(row.latency_s) else f"{row.latency_s:.6f}",
                    row.endpoint,
                    row.option,
                    row.timestamp_unix_ms,
                    row.status,
                ]
            )
            fh.flush()
    return rows


def load_probe_rows(path) -> list[ProbeRow]:
    """Read a probe CSV; 5-column files (no status) are treated as all-ok."""
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                ProbeRow(
                    delta_t_s=float(rec["delta_t_s"]) if rec["delta_t_s"] else float("nan"),
                    latency_s=float(rec["latency_s"]) if rec["latency_s"] else float("nan"),
                    endpoint=rec["endpoint"],
                    option=rec["option"],
                    timestamp_unix_ms=int(rec["timestamp_unix_ms"] or 0),
                    status=rec.get("status") or "ok",
                )
            )
    return rows


def nearest_rank(sorted_values: np.ndarray, p: float) -> float:
    """ceil(p*N)-th order statistic; always a member of the sample."""
    n = sorted_values.size
    idx = int(np.ceil(p * n - 1e-12)) - 1
    return float(sorted_values[min(max(idx, 0), n - 1)])


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
