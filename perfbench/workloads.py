"""The four workloads: what each runs, how it is checked, what it reports.

``sweep``  ``repro-rank --world default --seed S sweep`` over the paper's
           metrics plus CTI, in-memory store: the paper's batch job. Its
           traced run also runs the same command with ``--store mmap``
           (the spill layer), whose stdout must equal ``sweep``'s byte
           for byte.
``watch``  ``repro-rank --seed S watch paper2021 paper2023 --json``: the
           Table-10 temporal pair, incremental propagation, drift events.
``serve``  ``repro-serve --world default --seed S --port 0`` driven over
           HTTP: a cold pass over every unit, a warm closed loop, then an
           open-loop ladder of fixed rates.

Every batch sample is a fresh child process, so caches and peak RSS
never carry over. ``S`` comes from the benchmark seed through a pinned
pool (``config.json``) whose expected output digests live in
``pins.json``; ``pin.py`` regenerates them.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
from harness import ROOT, WORK, Step, Summary, run_child

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "config.json").read_text())
PINS_PATH = HERE / "pins.json"


def world_seed(seed: int) -> int:
    """The world seed a benchmark seed selects from the pinned pool."""
    pool = CONFIG["seed_pool"]
    return pool[seed % len(pool)]


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:24]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


# -- commands -----------------------------------------------------------------

RANK = ["-m", "repro.cli"]
SERVE = ["-m", "repro.serve.cli"]


def traced(entry: str, out: Path, request_id: str) -> list[str]:
    """The prefix that runs an entry point inside the traced child."""
    return [str(HERE / "child.py"), str(out), request_id, entry]


def sweep_args(s: int, store: str) -> list[str]:
    backend = ["--store", "mmap"] if store == "mmap" else []
    return ["--world", "default", "--seed", str(s), *backend, "sweep",
            "--metrics", CONFIG["sweep_metrics"], "-k", "10"]


def watch_args(s: int) -> list[str]:
    return ["--seed", str(s), "watch", "paper2021", "paper2023",
            "--metrics", CONFIG["watch_metrics"], "--json"]


def serve_args(s: int) -> list[str]:
    return ["--world", "default", "--seed", str(s), "--port", "0"]


def setup_args(world: str, s: int) -> list[str]:
    """``repro-rank ... world``: interpreter, imports and world build —
    what every batch command pays before its pipeline starts."""
    return ["--world", world, "--seed", str(s), "world"]


# -- results ------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    #: end-to-end metric -> (value, unit, sample count)
    e2e: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: per-layer metric -> (value, unit)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: report lines (name, value, unit, n) under user-facing names such
    #: as ``sweep_s``, ``cold_s`` or ``query_p50_ms``
    report: list[tuple[str, float, str, int]] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one attempted operation; a failed check is a failure,
        not a crash."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)
        return ok

    def timing(self, name: str, alias: str, values: list[float], unit: str,
               scale: float = 1.0) -> None:
        """An end-to-end timing: the median of ``values`` times ``scale``
        (:meth:`Pace.scale`); the unscaled median is reported as
        ``<alias>.wall``."""
        summary = Summary.of([value * scale for value in values])
        self.e2e[name] = (summary.median, unit, summary.n)
        label = alias if alias == name else f"{alias} [{name}]"
        self.report.append((label, summary.median, unit, summary.n))
        if summary.tail_q > 50:
            self.report.append(
                (f"{alias}.p{summary.tail_q:g}", summary.tail, unit, summary.n)
            )
        if scale != 1.0:
            self.report.append(
                (f"{alias}.wall", statistics.median(values), unit, summary.n)
            )

    def extra(self, alias: str, value: float, unit: str, n: int) -> None:
        self.report.append((alias, value, unit, n))


class Pace:
    """The host's pace over one run: the pace job (``pace.py``) timed in
    a fresh child between the program's own runs. A shared VM slows
    for minutes at a time; the program and the pace job slow together,
    so timings scaled by :meth:`scale` vary far less from run to run
    than raw wall times."""

    def __init__(self, out: Outcome) -> None:
        self.out = out
        self.times: list[float] = []

    def take(self) -> None:
        """``pace.runs`` pace jobs back to back."""
        for _ in range(CONFIG["pace"]["runs"]):
            done = run_child([harness.PYTHON, str(HERE / "pace.py")],
                             CONFIG["child_timeout_s"])
            if self.out.check(done.code == 0, f"pace job exited {done.code}"):
                self.times.append(done.wall_s)

    def scale(self) -> float:
        """``reference_s`` over the run's mean pace time: turns a wall
        time taken in this run into seconds on the reference host. The
        mean, since a program run's wall time sums the host's slow and
        fast spells the same way."""
        pace = statistics.fmean(self.times)
        self.out.extra("pace_s", pace, "s", len(self.times))
        return CONFIG["pace"]["reference_s"] / pace


# -- batch workloads ----------------------------------------------------------


def _setups(out: Outcome, world: str, s: int) -> list[float]:
    times = []
    for _ in range(CONFIG["setups"]["batch"]):
        done = run_child(
            [harness.PYTHON, *RANK, *setup_args(world, s)],
            CONFIG["child_timeout_s"],
        )
        if out.check(done.code == 0, f"setup exited {done.code}"):
            times.append(done.wall_s)
    return times


def _expected(command: str, s: int) -> str:
    pins = load_pins()[str(s)]
    return pins["watch"] if command == "watch" else pins["sweep"]


def _args(command: str, s: int) -> list[str]:
    """Arguments of a batch command: ``sweep``, ``watch``, or ``spill``
    (the sweep with ``--store mmap``, run only traced)."""
    if command == "watch":
        return watch_args(s)
    return sweep_args(s, "mmap" if command == "spill" else "memory")


def _verify(out: Outcome, command: str, s: int, done: harness.Finished,
            label: str) -> bool:
    if not out.check(done.code == 0, f"{label}: exited {done.code}"):
        return False
    if command == "watch":
        from repro.monitor.events import validate_watch_jsonl

        problems = validate_watch_jsonl(done.stdout.decode("utf-8"))
        if not out.check(not problems, f"{label}: events invalid {problems[:2]}"):
            return False
    return out.check(
        digest(done.stdout) == _expected(command, s),
        f"{label}: output digest differs from the pinned "
        f"{'watch' if command == 'watch' else 'sweep'} digest",
    )


def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    s = world_seed(seed)
    out = Outcome()
    pace = Pace(out)
    pace.take()
    setups = _setups(out, "paper2021" if workload == "watch" else "default", s)
    argv = [harness.PYTHON, *RANK, *_args(workload, s)]
    samples: list[harness.Finished] = []
    start = time.perf_counter()
    for attempt in range(CONFIG["max_samples"]):
        if len(samples) >= CONFIG["min_samples"] and (
            time.perf_counter() - start >= seconds
        ):
            break
        done = run_child(argv, CONFIG["child_timeout_s"])
        if _verify(out, workload, s, done, f"sample {attempt}"):
            samples.append(done)
        pace.take()
    if not pace.times:
        return out
    scale = pace.scale()
    # Set-up is not scaled: at well under a second it is mostly
    # interpreter start and imports, and scaling made it spread wider.
    out.timing("setup_s", "setup_s", setups, "s")
    walls = [d.wall_s for d in samples]
    alias = "watch_s" if workload == "watch" else "sweep_s"
    if walls:
        out.timing("job_s", alias, walls, "s", scale)
        rss = statistics.median(d.maxrss_mb for d in samples)
        out.e2e["peak_rss_mb"] = (rss, "MB", len(samples))
        out.extra("peak_rss_mb", rss, "MB", len(samples))
        out.layers["process.cpu_s"] = (
            statistics.median(d.cpu_s for d in samples), "s",
        )
    if trace and walls:
        _traced_batch(out, workload, s, statistics.median(walls))
        if workload == "sweep":
            _traced_spill(out, s)
    return out


def _traced_child(out: Outcome, command: str, s: int
                  ) -> tuple[harness.Finished, dict] | None:
    """One traced, verified run of a batch command and its span dump."""
    spans_path = WORK / f"spans-{command}.json"
    request_id = f"{command}-{s}-{os.getpid()}"
    done = run_child(
        [harness.PYTHON, *traced("rank", spans_path, request_id),
         *_args(command, s)],
        CONFIG["child_timeout_s"],
    )
    if not _verify(out, command, s, done, f"traced {command}"):
        return None
    return done, json.loads(spans_path.read_text())


def _traced_batch(out: Outcome, workload: str, s: int, untraced: float) -> None:
    traced_run = _traced_child(out, workload, s)
    if traced_run is None:
        return
    done, trace = traced_run
    out.layers.update(layer_metrics(trace, out))
    out.layers["obs.trace_overhead_ratio"] = (done.wall_s / untraced, "ratio")
    out.extra("obs.trace_overhead_s", done.wall_s - untraced, "s", 1)
    if workload == "watch":
        events = done.stdout.decode("utf-8").count("\n")
        out.layers["monitor.events"] = (float(events), "count")


#: per-layer metrics the sweep's traced run takes from its mmap child
SPILL_LAYERS = ("perf.spill.ingest_s", "perf.spill.bytes")


def _traced_spill(out: Outcome, s: int) -> None:
    """The sweep with ``--store mmap``, traced: the spill writer and the
    mmap store on the same inputs. Its stdout must equal the pinned
    sweep output, so spill equals sweep byte for byte."""
    traced_run = _traced_child(out, "spill", s)
    if traced_run is None:
        return
    done, trace = traced_run
    layers = layer_metrics(trace, out)
    out.layers.update({name: layers[name] for name in SPILL_LAYERS})
    out.extra("spill_traced_s", done.wall_s, "s", 1)


# -- per-layer figures from a span dump --------------------------------------

#: span name -> per-layer metrics fed by its summed self time (the
#: spilling sanitizer is both the sanitize layer and the spill ingest)
SELF_TIMES = {
    "bgp.propagate": ("bgp.propagate_s",),
    "bgp.rib.generate": ("bgp.rib.generate_s",),
    "bgp.rib.records": ("bgp.rib.records_s",),
    "geo.geodb": ("geo.geodb_s",),
    "geo.geolocate": ("geo.geolocate_s",),
    "core.sanitize": ("core.sanitize_s",),
    "perf.store_build": ("perf.store_build_s",),
    "perf.spill.ingest": ("perf.spill.ingest_s", "core.sanitize_s"),
    "perf.index": ("perf.index_build_s",),
    "core.rank": ("core.rank_s",),
    "core.ranking": ("core.rank_s",),
    "core.render": ("core.render_s",),
}

#: span name -> per-layer current-RSS delta metric
RSS_DELTAS = {
    "bgp.rib.generate": "bgp.rib.rss_delta_mb",
    "core.sanitize": "core.sanitize.rss_delta_mb",
    "perf.spill.ingest": "core.sanitize.rss_delta_mb",
    "perf.index": "perf.index.rss_delta_mb",
}

#: tolerance on "self times sum to the root span"
SELF_SUM_TOLERANCE = 0.05


def _root_tree(spans: list[dict]) -> list[dict]:
    """The root span and its descendants (spans recorded on other
    threads, such as HTTP handlers, have their own roots)."""
    by_parent: dict[int | None, list[dict]] = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    root = next(s for s in spans if s["name"] == "root")
    tree, todo = [], [root]
    while todo:
        span = todo.pop()
        tree.append(span)
        todo.extend(by_parent.get(span["id"], ()))
    return tree


def layer_metrics(trace: dict, out: Outcome) -> dict[str, tuple[float, str]]:
    spans = trace["spans"]
    counts = trace["counts"]
    program = trace["program_counters"]
    tree = _root_tree(spans)
    selves = harness.self_times(spans)
    root = next(s for s in tree if s["name"] == "root")
    root_s = root["end"] - root["start"]
    ratio = sum(selves[s["id"]] for s in tree) / root_s
    out.check(
        abs(ratio - 1.0) <= SELF_SUM_TOLERANCE,
        f"self times sum to {ratio:.3f} of the root span",
    )
    layers: dict[str, tuple[float, str]] = {
        "obs.self_sum_ratio": (ratio, "ratio"),
    }
    for metrics in SELF_TIMES.values():
        for metric in metrics:
            layers[metric] = (0.0, "s")
    for metric in RSS_DELTAS.values():
        layers[metric] = (0.0, "MB")
    for span in spans:
        for metric in SELF_TIMES.get(span["name"], ()):
            layers[metric] = (layers[metric][0] + selves[span["id"]], "s")
        metric = RSS_DELTAS.get(span["name"])
        if metric is not None:
            layers[metric] = (layers[metric][0] + span["rss_delta_mb"], "MB")
    loads = sum(
        (s["end"] - s["start"] for s in tree if s["name"] == "monitor.load"), 0.0
    )
    watches = [s for s in tree if s["name"] == "monitor.watch"]
    layers["monitor.load_s"] = (loads, "s")
    layers["monitor.drift_s"] = (
        sum(s["end"] - s["start"] for s in watches) - loads if watches else 0.0,
        "s",
    )
    layers["bgp.propagate.origins"] = (
        float(counts.get("bgp.propagate.origins", 0)), "count",
    )
    layers["bgp.rib.records"] = (float(counts.get("bgp.rib.records", 0)), "count")
    total = counts.get("core.sanitize.total", 0)
    layers["core.sanitize.accepted_ratio"] = (
        counts.get("core.sanitize.accepted", 0) / total if total else 0.0,
        "ratio",
    )
    layers["perf.spill.bytes"] = (float(counts.get("perf.spill.bytes", 0)), "bytes")
    layers["core.rank.units"] = (
        float(sum(s["name"] == "core.ranking" for s in spans)), "count",
    )
    reused = program.get("propagate.incremental.reused", 0)
    recomputed = program.get("propagate.incremental.recomputed", 0)
    layers["bgp.propagate.reused_ratio"] = (
        reused / (reused + recomputed) if reused + recomputed else 0.0, "ratio",
    )
    hits = program.get("perf.suffix.hit", 0)
    misses = program.get("perf.suffix.miss", 0)
    layers["perf.suffix.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio",
    )
    return layers


# -- serve --------------------------------------------------------------------


class Daemon:
    """One ``repro-serve`` process on an ephemeral port."""

    def __init__(self, argv: list[str]) -> None:
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=harness.child_env(), cwd=ROOT, text=True,
        )
        self.port = 0
        self.ready_s = 0.0
        self._reader = threading.Thread(target=self._read_banner, daemon=True)
        self._reader.start()

    def _read_banner(self) -> None:
        """Take the bound port from the startup banner, then keep
        draining stderr so the daemon never blocks on a full pipe."""
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            if not self.port and " on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])

    def wait_ready(self, timeout_s: float) -> bool:
        """Poll ``/healthz`` until it answers 200; ``ready_s`` is
        spawn -> first 200."""
        deadline = self.start + timeout_s
        while time.perf_counter() < deadline and self.proc.poll() is None:
            if self.port:
                try:
                    status, _ = get(self.port, "/healthz", 1.0)
                    if status == 200:
                        self.ready_s = time.perf_counter() - self.start
                        return True
                except (OSError, http.client.HTTPException):
                    pass
            time.sleep(0.01)
        return False

    def stop(self, timeout_s: float = 30.0) -> tuple[int, float]:
        """SIGINT (the daemon's clean shutdown), then reap; returns the
        exit code and the daemon's CPU seconds."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        deadline = time.perf_counter() + timeout_s
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = code = os.waitstatus_to_exitcode(status)
        self._reader.join(timeout=5.0)
        return code, usage.ru_utime + usage.ru_stime


def get(port: int, path: str, timeout_s: float) -> tuple[int, dict]:
    """One GET on a fresh connection, as a one-shot client (curl,
    ``urllib``) makes it. A kept-alive connection would add a ~40 ms
    delayed-ACK stall per request: the daemon writes headers and body
    as two segments."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def rank_path(unit: str) -> str:
    metric, _, country = unit.partition(":")
    query = f"/rank?metric={metric}&k=10"
    return query + (f"&country={country}" if country else "")


def check_rank(port: int, pins: dict, unit: str, source: str) -> str | None:
    """Ask for ``unit``; ``None`` if the answer is right, otherwise what
    was wrong with it (an error, a status, the source or the text)."""
    try:
        status, body = get(port, rank_path(unit), CONFIG["serve"]["request_timeout_s"])
    except (OSError, http.client.HTTPException, ValueError) as error:
        return f"{unit}: {type(error).__name__}"
    if status != 200:
        return f"{unit}: HTTP {status}"
    if body.get("source") != source:
        return f"{unit}: source {body.get('source')!r}, expected {source!r}"
    if digest(body.get("text", "")) != pins[unit]:
        return f"{unit}: text differs from the sweep rendering"
    return None


def zipf_draw(units: list[str], n: int, rng: random.Random) -> list[str]:
    """``n`` units from a seeded Zipf law over a seeded unit order."""
    order = units[:]
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** CONFIG["serve"]["zipf_s"]
               for rank in range(len(order))]
    return rng.choices(order, weights=weights, k=n)


def ladder_step(port: int, pins: dict, rate: float, duration: float,
                units: list[str], seed: int, out: Outcome) -> Step:
    """Open loop at ``rate`` for ``duration`` seconds from 2 sender
    threads. Request i is due at ``t0 + i / rate``; its latency runs
    from that due time, so a stall delays every later request too.
    Requests still unsent half a step after the step ends are dropped:
    the rate is beyond reach, and the run stays bounded in time."""
    n = max(1, int(rate * duration))
    picks = zipf_draw(units, n, random.Random(f"ladder-{seed}-{rate}"))
    latencies = [0.0] * n
    late = [0.0] * n
    errors: list[str | None] = [None] * n
    sent = [False] * n
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05
    cutoff = t0 + 1.5 * duration

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n or time.perf_counter() > cutoff:
                break
            due = t0 + i / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late[i] = (time.perf_counter() - due) * 1000.0
            sent[i] = True
            errors[i] = check_rank(port, pins, picks[i], "store")
            latencies[i] = (time.perf_counter() - due) * 1000.0

    threads = [threading.Thread(target=sender) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    failed = 0
    for error in (e for e, was_sent in zip(errors, sent) if was_sent):
        if not out.check(error is None, f"loaded {rate}/s: {error}"):
            failed += 1
    return Step(
        rate=rate,
        latencies_ms=[
            lat for lat, e, was_sent in zip(latencies, errors, sent)
            if was_sent and e is None
        ],
        late_ms=[value for value, was_sent in zip(late, sent) if was_sent],
        failed=failed,
        dropped=sent.count(False),
    )


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    s = world_seed(seed)
    pins = load_pins()[str(s)]["units"]
    units = list(pins)
    out = Outcome()
    timeout = CONFIG["child_timeout_s"]
    plain = [harness.PYTHON, *SERVE, *serve_args(s)]
    ready: list[float] = []
    ready_peaks: list[float] = []
    daemon: Daemon | None = None
    try:
        # Every daemon is timed from spawn to ready; the last one then
        # makes the cold pass and serves the warm phases. A traced run
        # measures them there too and starts a traced daemon afterwards.
        setups = CONFIG["setups"]["serve"]
        for i in range(setups):
            daemon = Daemon(plain)
            if not out.check(daemon.wait_ready(timeout), "daemon never ready"):
                return out
            ready.append(daemon.ready_s)
            ready_peaks.append(_hwm_mb(daemon))
            if i < setups - 1:
                _stop(daemon, out)
                daemon = None
        cold_s = _cold_pass(daemon.port, pins, units, out)
        cold_peak = _hwm_mb(daemon)
        # No pace scaling here: client and daemon share both CPUs and
        # wait on sockets, so the pace job does not track this run.
        out.timing("setup_s", "setup_s", ready, "s")
        out.timing("job_s", "cold_s", [cold_s], "s")
        # The daemon's memory once loaded. After the cold pass the mark
        # is bimodal from one daemon to the next (~384 or ~416 MB on
        # the default world), so that one is a per-layer figure.
        out.timing("peak_rss_mb", "peak_rss_mb", ready_peaks, "MB")
        out.layers["serve.peak_rss_cold_mb"] = (cold_peak, "MB")
        out.extra("peak_rss_cold_mb", cold_peak, "MB", 1)
        _warm_phases(daemon, pins, units, seed, seconds, out)
    finally:
        if daemon is not None:
            out.layers["process.cpu_s"] = (_stop(daemon, out), "s")
    if trace and ready:
        _traced_serve(out, s, pins, units, seed, statistics.median(ready))
    return out


def _hwm_mb(daemon: Daemon) -> float:
    return harness.proc_status_kb(daemon.proc.pid, "VmHWM") / 1024.0


def _stop(daemon: Daemon, out: Outcome) -> float:
    code, cpu = daemon.stop()
    out.check(code == 0, f"daemon exited {code}")
    return cpu


def _cold_pass(port: int, pins: dict, units: list[str], out: Outcome) -> float:
    """Every unit once, all store misses, one closed-loop client."""
    start = time.perf_counter()
    for unit in units:
        error = check_rank(port, pins, unit, "computed")
        out.check(error is None, f"cold: {error}")
    return time.perf_counter() - start


def _warm_phases(daemon: Daemon, pins: dict, units: list[str], seed: int,
                 seconds: float, out: Outcome) -> None:
    cfg = CONFIG["serve"]
    port = daemon.port

    # alone: one closed-loop client, warm hits from a Zipf draw
    pid = daemon.proc.pid
    rss0 = harness.proc_status_kb(pid, "VmRSS")
    warm_requests = 0
    warm_s = seconds * cfg["warm_share"]
    alone_s = warm_s * cfg["alone_share"]
    rng = random.Random(f"alone-{seed}")
    picks = zipf_draw(units, 1 << 16, rng)
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < alone_s and warm_requests < len(picks):
        t = time.perf_counter()
        error = check_rank(port, pins, picks[warm_requests], "store")
        latency = (time.perf_counter() - t) * 1000.0
        warm_requests += 1
        if out.check(error is None, f"alone: {error}"):
            latencies.append(latency)
    alone = Summary.of(latencies)
    out.extra("query_p50_ms", alone.median, "ms", alone.n)
    out.extra(f"query_p{alone.tail_q:g}_ms", alone.tail, "ms", alone.n)
    out.layers["serve.query_p50_ms"] = (alone.median, "ms")
    out.layers["serve.query_p99_ms"] = (alone.tail, "ms")

    # loaded: open loop over the fixed ladder
    rates = cfg["ladder_rps"]
    step_s = warm_s * (1.0 - cfg["alone_share"]) / len(rates)
    steps = [
        ladder_step(port, pins, rate, step_s, units, seed, out)
        for rate in rates
    ]
    warm_requests += sum(len(step.late_ms) for step in steps)
    nominal = next(step for step in steps if step.rate == cfg["nominal_rps"])
    loaded = Summary.of(nominal.latencies_ms or [0.0])
    out.extra("loaded_p50_ms", loaded.median, "ms", loaded.n)
    out.extra(f"loaded_p{loaded.tail_q:g}_ms", loaded.tail, "ms", loaded.n)
    best = harness.max_rate(steps, cfg["p99_limit_ms"], cfg["backlog_ms"])
    out.extra("max_rate_rps", best, "req/s", len(steps))
    late = Summary.of(nominal.late_ms or [0.0])
    out.layers.update({
        "serve.loaded_p50_ms": (loaded.median, "ms"),
        "serve.loaded_p99_ms": (loaded.tail, "ms"),
        "serve.max_rate_rps": (best, "req/s"),
        "serve.generator_late_ms": (late.tail, "ms"),
    })
    out.extra(f"generator_late_p{late.tail_q:g}_ms", late.tail, "ms", late.n)
    for step in steps:
        q, value = step.tail()
        out.extra(f"ladder.{step.rate:g}.p{q:g}_ms", value, "ms",
                  len(step.late_ms))
        if step.dropped:
            out.extra(f"ladder.{step.rate:g}.dropped", step.dropped, "count",
                      len(step.late_ms) + step.dropped)

    rss1 = harness.proc_status_kb(pid, "VmRSS")
    out.layers["serve.rss_growth_kb_per_1k"] = (
        (rss1 - rss0) / (warm_requests / 1000.0), "kB",
    )
    _, health = get(port, "/healthz", 5.0)
    store = health.get("store", {})
    lookups = store.get("hits", 0) + store.get("misses", 0)
    out.layers["serve.store.hit_ratio"] = (
        store.get("hits", 0) / lookups if lookups else 0.0, "ratio",
    )
    loaded_peak = _hwm_mb(daemon)
    out.layers["serve.peak_rss_loaded_mb"] = (loaded_peak, "MB")
    out.extra("peak_rss_loaded_mb", loaded_peak, "MB", 1)


def _traced_serve(out: Outcome, s: int, pins: dict, units: list[str],
                  seed: int, untraced_ready: float) -> None:
    """A traced daemon: set-up and a cold pass for the layer spans, then
    a short warm closed loop for the in-process ``RankingService.rank``
    time. Every ``serve.*`` latency and the RSS growth come from the
    untraced daemon; none is read here."""
    spans_path = WORK / "spans-serve.json"
    request_id = f"serve-{s}-{os.getpid()}"
    daemon = Daemon([harness.PYTHON, *traced("serve", spans_path, request_id),
                     *serve_args(s)])
    try:
        if not out.check(daemon.wait_ready(CONFIG["child_timeout_s"]),
                         "traced daemon never ready"):
            return
        out.layers["obs.trace_overhead_ratio"] = (
            daemon.ready_s / untraced_ready, "ratio",
        )
        out.extra("obs.trace_overhead_s", daemon.ready_s - untraced_ready, "s", 1)
        _cold_pass(daemon.port, pins, units, out)
        picks = zipf_draw(units, CONFIG["serve"]["traced_warm_requests"],
                          random.Random(f"traced-{seed}"))
        for unit in picks:
            error = check_rank(daemon.port, pins, unit, "store")
            out.check(error is None, f"traced warm: {error}")
    finally:
        _stop(daemon, out)
    if not spans_path.exists():
        return
    trace = json.loads(spans_path.read_text())
    out.layers.update(layer_metrics(trace, out))
    warm = [
        (s["end"] - s["start"]) * 1000.0 for s in trace["spans"]
        if s["name"] == "serve.service.rank" and s.get("warm")
    ]
    if warm:
        rank_ms = statistics.median(warm)
        out.layers["serve.service.rank_ms"] = (rank_ms, "ms")
        query = out.layers.get("serve.query_p50_ms", (0.0, "ms"))[0]
        out.layers["serve.http_ms"] = (query - rank_ms, "ms")
