"""The ``serve`` workload: an open loop of ``POST /v1/evaluate`` requests
sent to a ``repro-serve`` subprocess at its default flags.

One generator thread keeps ``CONNECTIONS`` keep-alive connections and
sends request *i* at ``t0 + i / RATE_PER_S`` or, when every connection
is busy, as soon as one frees; latency counts from the due time, so a
stall also charges the requests queued behind it.  Every body is encoded
before the clock starts.  Answers are checked after the window.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import re
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
from common import metric
from inproc import CONFIGS, reference_mttdl, same_float

from repro.models import Configuration, Parameters
from repro.serve.loadgen import (
    DEFAULT_AXIS,
    DEFAULT_CONFIGS,
    DEFAULT_METHODS,
    DEFAULT_VALUES,
    ZipfRequestMix,
)

#: Offered load (requests per second).  The server's CPU is busy 24% to
#: 28% of the time on a 2-vCPU host, so multi-point bodies still batch,
#: and a host phase that slows the server by 40% builds no backlog (a
#: load that kept it 50% busy in such a phase doubled p90).  See
#: README.md for the sizing runs.
RATE_PER_S = 100.0

#: Keep-alive connections of the generator thread.  With only ``nproc``
#: (2) of them, both were busy whenever the host slowed the server, the
#: open loop queued in the client and p90 latency moved 35% between
#: identical runs; with 8, bursts reach the server and batch there.
CONNECTIONS = 8

#: A request is good when it is a 2xx, answered correctly, within this.
LATENCY_LIMIT_MS = 50.0

#: Share of requests drawn from the repository's own ``hotkey`` traffic
#: shape (``repro-loadgen --shape hotkey``: Zipf(1.2) over nine
#: configurations x five drive MTTFs, methods from ``DEFAULT_METHODS``).
#: All of its keys are answered before the window, so these requests are
#: result-cache reads.  The rest carry fresh points (cache fills through
#: the batcher).  The even split is an unverified choice, made so that
#: neither path dominates; each run records the hot share of its points
#: and the traced run the cache-hit share it produced.
HOT_REQUEST_SHARE = 0.5
#: A fresh request carries one point or this many, with equal odds (an
#: unverified choice; the repository's traffic shapes send one point).
MULTI_POINTS = 4

#: Share of requests whose every point is re-answered by repro.evaluate().
CHECK_SHARE = 0.03

SETUP_STARTS = 7
WARMUP_S = 2.0
HOST = "127.0.0.1"


# --------------------------------------------------------------------- #
# the request stream
# --------------------------------------------------------------------- #


def _fresh_point(rng: random.Random) -> dict:
    """A point no earlier request asked for: continuous node-level values
    over a few drive-level ones, so the server's array memo still hits."""
    return {
        "config": rng.choice(CONFIGS).key,
        "method": rng.choice(DEFAULT_METHODS),
        "params": {
            "drive_mttf_hours": rng.choice((200e3, 300e3, 400e3, 500e3)),
            "drives_per_node": rng.choice((8, 12, 16)),
            "node_mttf_hours": rng.uniform(200_000.0, 800_000.0),
            "node_set_size": rng.choice((32, 48, 64, 96, 128)),
            "redundancy_set_size": rng.choice((6, 8, 10, 12)),
            "link_speed_bps": rng.choice((1e9, 10e9, 40e9)),
        },
    }


#: Every key the ``hotkey`` shape can draw, warmed before the window.
HOT_KEYS = [
    {"config": config, "method": method, "params": {DEFAULT_AXIS: value}}
    for config in DEFAULT_CONFIGS
    for value in DEFAULT_VALUES
    for method in sorted(set(DEFAULT_METHODS))
]


class Stream:
    """The seeded request stream: ``hotkey`` requests beside fresh points."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve:{seed}")
        self.hot = ZipfRequestMix(seed)
        self.hot_points = 0
        self.points = 0

    def body(self) -> List[dict]:
        if self.rng.random() < HOT_REQUEST_SHARE:
            self.points += 1
            self.hot_points += 1
            return [self.hot.body()]
        n = MULTI_POINTS if self.rng.random() < 0.5 else 1
        self.points += n
        return [_fresh_point(self.rng) for _ in range(n)]

    def requests(self, n: int) -> List[List[dict]]:
        return [self.body() for _ in range(n)]


def encode(points: List[dict]) -> bytes:
    payload = points[0] if len(points) == 1 else {"points": points}
    body = json.dumps(payload).encode()
    head = (
        f"POST /v1/evaluate HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


# --------------------------------------------------------------------- #
# the server
# --------------------------------------------------------------------- #


class Server:
    """One ``repro-serve`` subprocess on an ephemeral port."""

    def __init__(self, tag: str, extra: Tuple[str, ...] = ()) -> None:
        self.log_path = common.OUT / f"serve-{tag}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--host", HOST, "--port", "0", *extra],
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            env=common.child_env(),
            cwd=str(common.OUT),
        )
        self.port: Optional[int] = None

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        marker = b"listening on http://"
        while time.perf_counter() < deadline:
            text = self.log_path.read_bytes()
            at = text.find(marker)
            if at >= 0 and b"(" in text[at:]:
                address = text[at + len(marker):].split(b" ", 1)[0]
                self.port = int(address.rsplit(b":", 1)[1])
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"repro-serve did not start; see {self.log_path}")

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("repro-serve never answered /healthz")

    def warm(self) -> None:
        """First compiles: one analytic and one closed-form point per config."""
        points = [{"config": c.key} for c in CONFIGS] + [
            {"config": c.key, "method": "closed_form"} for c in CONFIGS
        ]
        status, _ = self.request("POST", "/v1/evaluate", json.dumps({"points": points}).encode())
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")

    def metricsz(self) -> Dict[str, float]:
        status, body = self.request("GET", "/metricsz")
        if status != 200:
            raise RuntimeError(f"/metricsz answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=15)
        finally:
            self._log.close()


def cold_start(tag: str, extra: Tuple[str, ...] = ()) -> Tuple[Server, float]:
    """Spawn a server; seconds until it answers /healthz and is warm."""
    t0 = time.perf_counter()
    server = Server(tag, extra)
    try:
        server.wait_listening()
        server.wait_healthy()
        server.warm()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


# --------------------------------------------------------------------- #
# the load generator
# --------------------------------------------------------------------- #


def _parse_response(buf: bytearray):
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    total = end + 4 + int(headers.get("content-length", "0"))
    if len(buf) < total:
        return None
    body = bytes(buf[end + 4:total])
    del buf[:total]
    return int(lines[0].split()[1]), headers, body


class Outcome:
    """Per-request results of one open-loop window, indexed by request."""

    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done = [0.0] * n
        self.status = [0] * n
        self.trace_id: List[Optional[str]] = [None] * n
        self.bodies: Dict[int, bytes] = {}
        self.bad_shape: set = set()
        self.points_answered = 0
        self.cached_points = 0

    def latency_ms(self) -> List[float]:
        return [(d - u) * 1e3 for d, u in zip(self.done, self.due)]

    def lag_ms(self) -> List[float]:
        return [(s - u) * 1e3 for s, u in zip(self.sent, self.due)]


def drive(port: int, bodies: List[List[dict]], wire: List[bytes], rate: float, keep: set) -> Outcome:
    """Send ``wire[i]`` at ``t0 + i / rate`` over ``CONNECTIONS`` connections.

    A connection the server closes fails its in-flight request (status 0)
    and is replaced, so a misbehaving server costs goodput, not the run.
    """
    n = len(wire)
    out = Outcome(n)
    sel = selectors.DefaultSelector()
    idle: deque = deque()
    conns: List[dict] = []

    def connect() -> None:
        sock = socket.create_connection((HOST, port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = {"sock": sock, "buf": bytearray(), "req": None}
        conns.append(conn)
        sel.register(sock, selectors.EVENT_READ, conn)
        idle.append(conn)

    try:
        for _ in range(CONNECTIONS):
            connect()
        t0 = time.perf_counter() + 0.005
        out.due = [t0 + k / rate for k in range(n)]
        deadline = t0 + n / rate + 60.0
        nxt = finished = 0
        while finished < n:
            now = time.perf_counter()
            if now > deadline:
                raise RuntimeError("serve load generator timed out waiting for answers")
            while nxt < n and idle and out.due[nxt] <= now:
                conn = idle.popleft()
                conn["req"] = nxt
                out.sent[nxt] = time.perf_counter()
                conn["sock"].sendall(wire[nxt])
                nxt += 1
            if nxt < n and idle:
                timeout = max(0.0, out.due[nxt] - time.perf_counter())
            else:
                timeout = 1.0
            for key, _ in sel.select(timeout):
                conn = key.data
                chunk = conn["sock"].recv(1 << 16)
                k = conn["req"]
                if not chunk:
                    sel.unregister(conn["sock"])
                    conn["sock"].close()
                    conns.remove(conn)
                    if conn in idle:
                        idle.remove(conn)
                    if k is not None:
                        out.done[k] = time.perf_counter()
                        finished += 1
                    connect()
                    continue
                conn["buf"] += chunk
                parsed = _parse_response(conn["buf"])
                if parsed is None:
                    continue
                out.done[k] = time.perf_counter()
                status, headers, body = parsed
                out.status[k] = status
                out.trace_id[k] = headers.get("x-repro-trace-id")
                if 200 <= status < 300:
                    _tally(out, k, bodies[k], body, keep)
                conn["req"] = None
                idle.append(conn)
                finished += 1
    finally:
        sel.close()
        for conn in conns:
            conn["sock"].close()
    return out


def _tally(out: Outcome, k: int, points: List[dict], body: bytes, keep: set) -> None:
    """Shape-check one 2xx answer; keep the bytes of sampled requests."""
    answer = json.loads(body)
    results = answer["results"] if len(points) > 1 else [answer]
    if len(results) != len(points) or any(
        r.get("config") != p["config"] for r, p in zip(results, points)
    ):
        out.bad_shape.add(k)
        return
    out.points_answered += len(points)
    out.cached_points += sum(1 for r in results if r.get("cached"))
    if k in keep:
        out.bodies[k] = body


def check_answers(bodies: List[List[dict]], out: Outcome) -> Tuple[int, set]:
    """Re-answer every point of the kept requests with repro.evaluate()."""
    bad = set()
    checked = 0
    for k, raw in out.bodies.items():
        answer = json.loads(raw)
        results = answer["results"] if len(bodies[k]) > 1 else [answer]
        for point, got in zip(bodies[k], results):
            checked += 1
            config = Configuration.from_key(point["config"])
            params = Parameters.with_overrides(**point["params"])
            want = reference_mttdl(config, params, point.get("method", "analytic"))
            if not same_float(want, got["mttdl_hours"]):
                bad.add(k)
    return checked, bad


# --------------------------------------------------------------------- #
# one window against one server
# --------------------------------------------------------------------- #


def window(server: Server, stream: Stream, seconds: float, rng: random.Random):
    """Warm the hot set, run untimed load, then the measured window."""
    for chunk in (HOT_KEYS[i:i + 16] for i in range(0, len(HOT_KEYS), 16)):
        status, _ = server.request("POST", "/v1/evaluate", json.dumps({"points": chunk}).encode())
        if status != 200:
            raise RuntimeError(f"hot-set warm-up answered {status}")
    warm = stream.requests(int(RATE_PER_S * WARMUP_S))
    drive(server.port, warm, [encode(b) for b in warm], RATE_PER_S, set())

    stream.points = stream.hot_points = 0
    bodies = stream.requests(int(RATE_PER_S * seconds))
    wire = [encode(b) for b in bodies]
    keep = {k for k in range(len(bodies)) if rng.random() < CHECK_SHARE}
    before = server.metricsz()
    # The generator must not stall on its own garbage collections: a late
    # send would be charged to the server as latency from the due time.
    gc.collect()
    gc.disable()
    try:
        cpu0 = common.proc_cpu_s(server.proc.pid)
        out = drive(server.port, bodies, wire, RATE_PER_S, keep)
        cpu1 = common.proc_cpu_s(server.proc.pid)
    finally:
        gc.enable()
    after = server.metricsz()
    delta = {k: after[k] - before.get(k, 0) for k in after if isinstance(after[k], (int, float))}
    return bodies, out, cpu1 - cpu0, delta


def _failed(out: Outcome, bad: set) -> set:
    """Requests answered with a non-2xx, a malformed or a wrong answer."""
    return {
        k
        for k, status in enumerate(out.status)
        if not 200 <= status < 300 or k in bad or k in out.bad_shape
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(f"check:serve:{seed}")
    if trace:
        return run_traced(seed, seconds, rng)
    setup: List[float] = []
    server: Optional[Server] = None
    try:
        # Every cold start is measured; the last server takes the load.
        for i in range(SETUP_STARTS):
            if server is not None:
                server.stop()
            server = None
            server, elapsed = cold_start(f"seed{seed}-{i}")
            setup.append(elapsed)
        stream = Stream(seed)
        bodies, out, cpu_s, delta = window(server, stream, seconds, rng)
        peak_rss = common.proc_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    checked, bad = check_answers(bodies, out)
    failed = _failed(out, bad)
    lat = out.latency_ms()
    good = sum(1 for k, ms in enumerate(lat) if k not in failed and ms <= LATENCY_LIMIT_MS)
    points = out.points_answered
    return {
        "correct": not failed,
        "attempted": len(lat),
        "failed": len(failed),
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            "points_per_s": metric(points / cpu_s, "1/s"),
            "cpu_ms_per_point": metric(cpu_s * 1e3 / points, "ms"),
            "goodput_share": metric(good / len(lat), "ratio"),
        },
        "samples": {
            "op_ms": lat,
            "op_ms_p50": common.quantile(lat, 0.5),
            "op_ms_p90": common.quantile(lat, 0.9),
            "op_ms_p99": common.quantile(lat, 0.99),
            "lag_ms": out.lag_ms(),
            "setup_s": setup,
            "p90_samples_beyond": common.beyond(len(lat), 0.90),
            "rate_per_s": RATE_PER_S,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "server_cpu_s": cpu_s,
            "server_busy_share": cpu_s / (len(lat) / RATE_PER_S),
            "points_answered": points,
            "stream_hot_share": stream.hot_points / stream.points,
            "client_cached_share": out.cached_points / points,
            "checked_points": checked,
            "metricsz_delta": delta,
        },
    }


# --------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------- #


def _read_spans(path: Path) -> List[dict]:
    """Every span in the sampled-trace file and its rotations."""
    spans = []
    for candidate in sorted(path.parent.glob(path.name + "*")):
        with open(candidate) as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("type") == "span":
                    spans.append(record)
    return spans


def _window_spans(spans: List[dict], trace_ids: set) -> List[dict]:
    """Spans of the request trees sampled inside the window, once each.

    A batch shared by two sampled requests is cloned into both trees
    under ids suffixed ``-t<n>``; the suffix is dropped to count it once.
    """
    by_id = {s["span_id"]: s for s in spans}
    unique: Dict[Tuple[str, str], dict] = {}
    for s in spans:
        root = s
        while root.get("parent_id") in by_id:
            root = by_id[root["parent_id"]]
        if root["name"] == "serve.request" and root["attrs"].get("trace_id") in trace_ids:
            unique.setdefault((s["name"], re.sub(r"-t\d+$", "", s["span_id"])), s)
    return list(unique.values())


def _serve_layers(out: Outcome, delta: Dict[str, float], spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from the /metricsz delta and the window's trees."""
    hits = delta.get("serve.cache.hits", 0)
    lookups = hits + delta.get("serve.cache.misses", 0)
    requests = len(out.status)
    solved = delta.get("serve.points", 0)
    roots = {
        s["attrs"]["trace_id"]: s
        for s in spans
        if s["name"] == "serve.request" and s.get("parent_id") is None
    }
    unattributed = [
        (out.done[k] - out.sent[k] - roots[tid]["wall_s"]) * 1e6
        for k, tid in enumerate(out.trace_id)
        if tid in roots
    ]
    waits_ms = [s["wall_s"] * 1e3 for s in spans if s["name"] == "serve.queue.wait"]
    gth = [s for s in spans if s["name"] == "solve.gth"]
    batches = delta.get("serve.batch.size.count", 0)

    def per_solved_us(name: str) -> float:
        return sum(s["wall_s"] for s in spans if s["name"] == name) * 1e6 / solved

    return {
        "serve.cache.hit_share": hits / lookups,
        "serve.coalesced_share": delta.get("serve.inflight.coalesced", 0) / lookups,
        "serve.batch.size_mean": delta.get("serve.batch.size.sum", 0) / batches,
        "serve.queue_wait_ms_p50": common.quantile(waits_ms, 0.5),
        "serve.queue_wait_ms_p99": common.quantile(waits_ms, 0.99),
        "serve.solve.us_per_point": delta.get("serve.batch.solve_s.sum", 0) * 1e6 / solved,
        "serve.unattributed_us_per_req": sum(unattributed) / len(unattributed),
        "serve.shed_share": (
            delta.get("serve.queue.shed", 0) + delta.get("serve.http.responses.429", 0)
        )
        / requests,
        "loadgen.lag_ms_p99": common.quantile(out.lag_ms(), 0.99),
        "runtime.spawned_per_op": delta.get("runtime.worker.spawned", 0) / requests,
        "models.array_solves_per_point": (
            sum(1 for s in spans if s["name"] == "ctmc.solve") / solved
        ),
        "solve.bind.us_per_point": per_solved_us("solve.bind"),
        "solve.gth.us_per_point": per_solved_us("solve.gth"),
        "solve.points_per_group": sum(s["attrs"].get("points", 0) for s in gth) / len(gth),
    }


def run_traced(seed: int, seconds: float, rng: random.Random) -> dict:
    """Half the window on an untraced server, half on one sampling every
    request; per-layer numbers come from the traced half."""
    half = seconds / 2.0
    samples = common.OUT / f"serve-samples-seed{seed}.jsonl"
    for old in samples.parent.glob(samples.name + "*"):
        old.unlink()
    results = []
    streams = []
    for tag, extra in (
        ("plain", ()),
        ("traced", ("--trace-sample-rate", "1", "--trace-sample-path", str(samples))),
    ):
        server, _ = cold_start(f"seed{seed}-{tag}", extra)
        streams.append(Stream(seed))
        try:
            results.append(window(server, streams[-1], half, rng))
        finally:
            server.stop()
    (pb, plain, plain_cpu, _), (tb, traced, traced_cpu, delta) = results
    spans = _window_spans(_read_spans(samples), set(filter(None, traced.trace_id)))
    failed = 0
    checked = 0
    for bodies, out in ((pb, plain), (tb, traced)):
        n, bad = check_answers(bodies, out)
        checked += n
        failed += len(_failed(out, bad))
    values = _serve_layers(traced, delta, spans)
    values["obs.trace_overhead_share"] = (
        (traced_cpu / traced.points_answered) / (plain_cpu / plain.points_answered) - 1.0
    )
    values["bench.op_ms_p50"] = common.quantile(plain.latency_ms(), 0.5)
    values["bench.op_ms_p90"] = common.quantile(plain.latency_ms(), 0.9)
    trees = sum(1 for s in spans if s["name"] == "serve.request" and s.get("parent_id") is None)
    return {
        "correct": failed == 0,
        "attempted": len(plain.status) + len(traced.status),
        "failed": failed,
        "metrics": values,
        "layers": common.layer_table(spans, trees),
        "samples": {
            "traced_requests": len(traced.status),
            "stream_hot_share": streams[-1].hot_points / streams[-1].points,
            "sampled_trees": trees,
            "checked_points": checked,
            "metricsz_delta": delta,
        },
    }
