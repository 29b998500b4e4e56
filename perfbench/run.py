"""The repository benchmark: simulated results and simulator speed.

Usage::

    python3 perfbench/run.py --workload fig9-high --seed 1 --seconds 15 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``fig9-high``: ``run_evaluation(ALPACA_EVAL, "high", "pascal", ...)``,
  cold, capacity probe included;
* ``churn-light``: ``fcfs`` on the bench-light length model, 20k
  open-loop Poisson arrivals at 150 req/s through ``ServingSession``;
* ``gateway-stream``: the ``serve --realtime`` HTTP gateway replaying an
  open-loop AlpacaEval background trace while two closed-loop SSE
  clients stream completions.

Every simulated repetition runs in a fresh ``worker.py`` process.  A
simulated run makes a fixed number of whole repetitions, so
``--seconds`` sets only the length of the ``gateway-stream`` window.
``setup_s`` and the simulated workloads' ``sim_req_per_s`` are scaled to
a reference host speed measured next to the work (``hostspeed.py``).  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric
instead, from one untraced and one traced repetition.  ``--smoke`` runs
each workload at a tiny fixed size (``smoke_check.py`` uses it).

The benchmark reads and writes only inside the checkout: its scratch
files live in ``.perfbench_work/`` at the root and are removed on exit.
The gateway client is stdlib-only asyncio.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
from layers import PER_LAYER, TAIL_PCT  # noqa: E402
from worker import BG_RATE_PER_S  # noqa: E402

WORKLOADS = ("fig9-high", "churn-light", "gateway-stream")

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("sim_ttft_p50_s", "s"),
    ("sim_ttft_p99_s", "s"),
    ("sim_answer_slo_pct", "%"),
    ("gw_ttft_p50_ms", "ms"),
    ("gw_ttft_tail_ms", "ms"),
    ("gw_itl_p99_ms", "ms"),
)

#: Set-up is repeated this many times per run, spread over the whole run,
#: and setup_s is the median of the samples, each scaled to the reference
#: host speed measured right after it (``hostspeed``).  One set-up is a
#: fraction of a second, mostly interpreter start and imports, so it
#: lands in whichever speed the host's cores had at that moment.  Over
#: groups of nine gateway server starts, scaling cut the coefficient of
#: variation of the median from 0.094 (of the unscaled fastest) to 0.058.
SETUP_SAMPLES = 9

#: Cold repetitions per simulated run.  Each draws its own inputs: on
#: fig9-high the seed alone moves a repetition's cost by +-25%, so a run
#: averages two; churn-light's cost barely depends on it.  The count is
#: fixed, so the simulated values of a seed never depend on how fast the
#: host ran.
REPS = {"fig9-high": 2, "churn-light": 1}

#: gateway-stream shape.  The pacer runs TIME_SCALE simulated seconds per
#: wall second; the background trace arrives at BG_RATE_PER_S simulated
#: req/s, so the server sees TIME_SCALE * BG_RATE_PER_S background
#: requests per wall second on top of the clients.  Chosen so the server
#: process is about half busy on a 2-core host, and the clients finish
#: ~235 streams in a 15 s window, twice what a p90 tail needs.
TIME_SCALE = 40.0
N_CLIENTS = 2
#: Clients stream this long before the measured window opens, so the
#: window sees the background load at its steady state.
WARMUP_S = 2.0
CLIENT_DRAIN_S = 30.0
HOST = "127.0.0.1"

#: Environment knobs that would reshape a harness run; never inherited.
PINNED_ENV = ("REPRO_SCALE", "REPRO_SHARDS", "REPRO_CACHE", "PASCAL_CACHE_DIR")


class BenchError(RuntimeError):
    """The program under test could not be run at all."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_json(argv: list[str], timeout: float) -> dict:
    """Run a child to completion; its last stdout line is a JSON object."""
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{' '.join(argv[1:3])} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _worker(args: list[str], timeout: float = 170.0) -> dict:
    worker = os.path.join(HERE, "worker.py")
    return _run_json(
        [sys.executable, worker, *args, "--spawned-at", repr(time.monotonic())],
        timeout,
    )


def _info() -> dict:
    """Provenance printed next to the result."""
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    fingerprint = _run_json(
        [
            sys.executable,
            "-c",
            "from repro.harness.cache import code_fingerprint;"
            "print('\"' + code_fingerprint() + '\"')",
        ],
        60.0,
    )
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count() or 1
    return {
        "git_commit": commit,
        "code_fingerprint": fingerprint,
        "python": platform.python_version(),
        "nproc": nproc,
    }


# ---------------------------------------------------------------------------
# simulated workloads: fig9-high, churn-light
# ---------------------------------------------------------------------------
def _shares(total: int, parts: int) -> list[int]:
    """``total`` split into ``parts`` whole shares that differ by at most 1."""
    return [
        total * (i + 1) // parts - total * i // parts for i in range(parts)
    ]


def _rep_args(workload: str, seed: int, rep: int, smoke: bool) -> list[str]:
    """Worker arguments of repetition ``rep``: each has its own trace seed,
    so a run averages over several inputs drawn from ``seed``."""
    args = [workload, "--seed", str(1000 * seed + rep)]
    return args + ["--smoke"] if smoke else args


def _ref_s(rep: dict) -> float:
    """A repetition's wall time at the reference host speed."""
    return rep["wall_s"] * rep["speed"]


def _ref_setup_s(rep: dict) -> float:
    return rep["setup_s"] * rep["setup_speed"]


def _same_results(plain: dict, traced: dict, problems: list[str]) -> None:
    """Tracing must not change a simulated result."""
    if traced["digests"] != plain["digests"]:
        problems.append("tracing changed the metrics digest")
    for key in ("sim_ttft_p50_s", "sim_ttft_p99_s", "sim_answer_slo_pct"):
        if traced[key] != plain[key]:
            problems.append(f"tracing changed {key}")


def run_simulated(workload: str, seed: int, smoke: bool,
                  trace: bool) -> dict:
    problems: list[str] = []
    if trace:
        plain = _worker(_rep_args(workload, seed, 0, smoke))
        traced = _worker(_rep_args(workload, seed, 0, smoke) + ["--trace"])
        _same_results(plain, traced, problems)
        reps = [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = _ref_s(traced) - _ref_s(plain)
        for key in ("serve.pacer.poll.busy_frac", "serve.server_cpu_frac",
                    "serve.gateway.cpu_s_per_req"):
            layers[key] = 0.0
        setups = [_ref_setup_s(rep) for rep in reps]
    else:
        # Each repetition is one set-up sample; set-up-only processes add
        # the rest, before, between and after the repetitions.
        reps, setups = [], []
        n_reps = REPS[workload]
        shares = _shares(SETUP_SAMPLES - n_reps, n_reps + 1)
        for i, extra in enumerate(shares):
            setups += [
                _ref_setup_s(
                    _worker(
                        _rep_args(workload, seed, 0, smoke) + ["--setup-only"]
                    )
                )
                for _ in range(extra)
            ]
            if i < n_reps:
                reps.append(_worker(_rep_args(workload, seed, i, smoke)))
                setups.append(_ref_setup_s(reps[-1]))
        layers = None
    problems += [p for rep in reps for p in rep["problems"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_req_per_s": (
            sum(r["completed"] for r in reps) / sum(_ref_s(r) for r in reps)
        ),
        **{
            key: statistics.median(r[key] for r in reps)
            for key in (
                "peak_rss_mb", "sim_ttft_p50_s", "sim_ttft_p99_s",
                "sim_answer_slo_pct", "gw_ttft_p50_ms", "gw_ttft_tail_ms",
                "gw_itl_p99_ms",
            )
        },
    }
    return {
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "problems": problems,
        "metrics": metrics,
        "layers": layers,
        "details": {
            "repetitions": len(reps),
            "wall_s": [r["wall_s"] for r in reps],
            "speed": [r["speed"] for r in reps],
            "setup_s": setups,
            "digests": {k: v for r in reps for k, v in r["digests"].items()},
        },
    }


# ---------------------------------------------------------------------------
# gateway-stream: server process + stdlib asyncio SSE clients
# ---------------------------------------------------------------------------
def _request_head(path: str, method: str, headers: dict, body: bytes) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", f"Host: {HOST}"]
    lines += [f"{k}: {v}" for k, v in headers.items()]
    lines += [f"Content-Length: {len(body)}", "Connection: close", "", ""]
    return "\r\n".join(lines).encode() + body


async def _get_json(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(_request_head(path, "GET", {}, b""))
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        if " 200 " not in head.splitlines()[0]:
            raise BenchError(f"GET {path}: {head.splitlines()[0]}")
        match = re.search(r"content-length: (\d+)", head.lower())
        if match is None:
            raise BenchError(f"GET {path}: no content-length")
        return json.loads(await reader.readexactly(int(match.group(1))))
    finally:
        writer.close()


class StreamStats:
    """What the SSE clients saw, request by request."""

    def __init__(self) -> None:
        #: Latency samples count only for streams due from this instant.
        self.measure_from = 0.0
        self.sent = 0
        #: Streams refused before reaching the simulator (non-200).
        self.refused = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ttft_s: list[float] = []
        self.itl_s: list[float] = []


async def _stream_once(port: int, shape: dict, stats: StreamStats) -> None:
    """One streamed completion, timed from when it was due to be sent."""
    due = time.monotonic()
    stats.sent += 1
    answer = shape["answer_len"]
    body = json.dumps(
        {
            "model": "pascal-sim",
            "stream": True,
            "messages": [{"role": "user", "content": "benchmark"}],
        }
    ).encode()
    headers = {
        "Content-Type": "application/json",
        "x-pascal-prompt-tokens": str(shape["prompt_len"]),
        "x-pascal-reasoning-tokens": str(shape["reasoning_len"]),
        "x-pascal-answer-tokens": str(answer),
    }
    chunk_times: list[float] = []
    done = False
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(
            _request_head("/v1/chat/completions", "POST", headers, body)
        )
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        status = head.splitlines()[0]
        if " 200 " not in status:
            stats.refused += 1
            stats.failed += 1
            stats.problems.append(f"non-200 response: {status}")
            return
        while True:
            line = await reader.readline()
            if not line:
                break
            if not line.startswith(b"data: "):
                continue
            data = line[6:].strip()
            if data == b"[DONE]":
                done = True
                break
            delta = json.loads(data)["choices"][0]["delta"]
            if "content" in delta:
                chunk_times.append(time.monotonic())
    finally:
        writer.close()
    if not done or len(chunk_times) != answer:
        stats.failed += 1
        stats.problems.append(
            f"stream ended done={done} with {len(chunk_times)}/{answer} chunks"
        )
        return
    if due < stats.measure_from:
        return
    stats.ttft_s.append(chunk_times[0] - due)
    stats.itl_s.extend(b - a for a, b in zip(chunk_times, chunk_times[1:]))


async def _drive_clients(port: int, shapes: list[dict], seconds: float,
                         stats: StreamStats, snapshot) -> tuple[dict, dict]:
    """N_CLIENTS closed-loop clients on one event loop.

    They stream through a WARMUP_S warm-up, whose latency samples are
    dropped, and then for ``seconds``.  Returns ``await snapshot()`` taken
    at the start and at the end of the measured window.
    """
    stats.measure_from = time.monotonic() + WARMUP_S
    deadline = stats.measure_from + seconds
    order = iter(range(10**9))

    async def client() -> None:
        while time.monotonic() < deadline:
            shape = shapes[next(order) % len(shapes)]
            await _stream_once(port, shape, stats)

    clients = asyncio.gather(*(client() for _ in range(N_CLIENTS)))
    await asyncio.sleep(WARMUP_S)
    before = await snapshot()
    await asyncio.wait_for(clients, timeout=seconds + CLIENT_DRAIN_S)
    return before, await snapshot()


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


class Server:
    """One ``serve --realtime`` process and the files it reads and writes."""

    def __init__(self, work: str, tag: str, seed: int, seconds: float,
                 traced: bool):
        self.bg_path = os.path.join(work, f"{tag}-background.jsonl")
        self.client_path = os.path.join(work, f"{tag}-clients.jsonl")
        self.served_path = os.path.join(work, f"{tag}-served.jsonl")
        self.layers_path = os.path.join(work, f"{tag}-layers.json")
        self.seed = seed
        # Enough background to outlast the clients' warm-up and window,
        # with a margin for their last streams; intake stops at SIGTERM.
        horizon_s = WARMUP_S + seconds + 10.0
        self.bg_requests = int(BG_RATE_PER_S * TIME_SCALE * horizon_s)
        self.traced = traced
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.bound_t = 0.0
        self.bound_cpu_s = 0.0

    def start(self) -> float:
        """Generate inputs, start the server, wait for its bind.

        Returns the seconds that took, scaled to the reference host speed.
        """
        begin = time.monotonic()
        _worker(
            [
                "gw-inputs", "--seed", str(self.seed),
                "--bg-requests", str(self.bg_requests),
                "--trace-file", self.bg_path,
                "--client-file", self.client_path,
            ]
        )
        cli = [
            "serve", "--realtime", "--port", "0", "--host", HOST,
            "--policy", "pascal", "--oracle", "header", "--quiet",
            "--time-scale", repr(TIME_SCALE),
            "--trace", self.bg_path,
            "--record-trace", self.served_path,
        ]
        if self.traced:
            argv = [
                sys.executable, os.path.join(HERE, "launch_serve.py"),
                "--dump", self.layers_path, "--", *cli,
            ]
        else:
            argv = [sys.executable, "-m", "repro.harness", *cli]
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if match is None:
            self.kill()
            raise BenchError(f"server did not bind: {banner!r}")
        self.port = int(match.group(1))
        self.bound_t = time.monotonic()
        self.bound_cpu_s = _proc_cpu_s(self.proc.pid)
        return (self.bound_t - begin) * hostspeed.burst_speed()

    def stop(self) -> dict[str, int]:
        """SIGTERM, let the CLI drain, return its final accounting."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise BenchError(f"server exited {self.proc.returncode}: {err}")
        final = re.search(r"serve: final (.*)", out)
        if final is None:
            raise BenchError(f"no final accounting line: {out!r}")
        return {
            key: int(value)
            for key, value in re.findall(r"([\w-]+)=(\d+)", final.group(1))
        }

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def _setup_servers(work: str, tag: str, seed: int, seconds: float,
                   count: int) -> list[float]:
    """Scaled set-up times of ``count`` servers started only to be set
    up."""
    setups = []
    for attempt in range(count):
        server = Server(work, f"{tag}{attempt}", seed, seconds, False)
        try:
            setups.append(server.start())
        finally:
            # SIGKILL, because SIGTERM right after the banner can beat the
            # CLI's signal handler.
            server.kill()
    return setups


def _gateway_window(work: str, tag: str, seed: int, seconds: float,
                    traced: bool) -> dict:
    """Set up one server, then stream for ``seconds`` against it."""
    server = Server(work, tag, seed, seconds, traced)
    try:
        setup_s = server.start()
        with open(server.client_path, encoding="utf-8") as fh:
            shapes = [json.loads(line) for line in fh][1:]
        pid = server.proc.pid
        stats = StreamStats()

        async def snapshot() -> dict:
            metrics = await _get_json(server.port, "/metrics")
            return {
                "completed": metrics["completed"],
                "wall_t": time.monotonic(),
                "cpu_s": _proc_cpu_s(pid),
            }

        before, after = asyncio.run(
            _drive_clients(server.port, shapes, seconds, stats, snapshot)
        )
        wall = after["wall_t"] - before["wall_t"]
        cpu = after["cpu_s"] - before["cpu_s"]
        peak_rss = _proc_peak_rss_mb(pid)
        final = server.stop()
    except BaseException:
        server.kill()
        raise
    return {
        "server": server,
        "setup_s": setup_s,
        "stats": stats,
        "before": before,
        "after": after,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss,
        "final": final,
    }


def run_gateway(seed: int, seconds: float, smoke: bool, trace: bool,
                work: str) -> dict:
    from repro.metrics.summary import percentile

    if trace:
        plain = _gateway_window(work, "plain", seed, seconds, False)
        run = _gateway_window(work, "traced", seed, seconds, True)
        setups = [plain["setup_s"], run["setup_s"]]
    else:
        # The measured server is one set-up sample; the others start and
        # stop before and after its window.
        before, after = _shares(SETUP_SAMPLES - 1, 2)
        setups = _setup_servers(work, "pre", seed, seconds, before)
        run = _gateway_window(work, "run", seed, seconds, False)
        setups += [run["setup_s"]]
        setups += _setup_servers(work, "post", seed, seconds, after)
    stats: StreamStats = run["stats"]
    final = run["final"]
    problems = list(stats.problems)
    if trace:
        problems += plain["stats"].problems
    replay = _worker(["replay", "--trace-file", run["server"].served_path])
    problems += replay["problems"]
    if replay["completed"] != final.get("completed"):
        problems.append(
            f"offline replay completed {replay['completed']}, "
            f"server completed {final.get('completed')}"
        )
    unfinished = (
        final.get("rejected", 0) + final.get("cancelled", 0)
        + final.get("in-flight", 0)
    )
    if unfinished:
        problems.append(f"server did not complete everything: {final}")
    attempted = final.get("submitted", 0) + stats.refused
    failed = min(attempted, stats.failed + unfinished)
    if not stats.ttft_s:
        raise BenchError("no stream completed inside the measured window")
    need = math.ceil(10 / (1 - TAIL_PCT / 100))
    if len(stats.ttft_s) < need and not smoke:
        problems.append(
            f"{len(stats.ttft_s)} streams < {need} needed for the "
            f"p{TAIL_PCT:g} tail"
        )
    completed = run["after"]["completed"] - run["before"]["completed"]
    metrics = {
        "setup_s": statistics.median(setups),
        # Paced by the wall clock, so not scaled: it falls only when the
        # server cannot keep up.
        "sim_req_per_s": completed / run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_ttft_p50_s": replay["sim_ttft_p50_s"],
        "sim_ttft_p99_s": replay["sim_ttft_p99_s"],
        "sim_answer_slo_pct": replay["sim_answer_slo_pct"],
        "gw_ttft_p50_ms": 1e3 * percentile(stats.ttft_s, 50.0),
        "gw_ttft_tail_ms": 1e3 * percentile(stats.ttft_s, TAIL_PCT),
        "gw_itl_p99_ms": 1e3 * percentile(stats.itl_s, 99.0),
    }
    layers = None
    if trace:
        with open(run["server"].layers_path, encoding="utf-8") as fh:
            layers = json.load(fh)
        # Polls run from the bind to the SIGTERM, so they are set against
        # the server's live time and CPU since its bind.
        poll_s = layers.pop("serve.pacer.poll.total_s")
        server = run["server"]
        live_s = run["after"]["wall_t"] - server.bound_t
        live_cpu_s = run["after"]["cpu_s"] - server.bound_cpu_s
        http_requests = stats.sent + 2  # streams + the two /metrics reads
        layers["serve.pacer.poll.busy_frac"] = poll_s / live_s
        layers["serve.server_cpu_frac"] = run["cpu_s"] / run["wall_s"]
        layers["serve.gateway.cpu_s_per_req"] = (
            max(0.0, live_cpu_s - poll_s) / http_requests
        )
        # The window is wall-paced, so tracing shows as server CPU.
        layers["trace.overhead_s"] = run["cpu_s"] - plain["cpu_s"]
    return {
        "attempted": max(1, attempted),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "layers": layers,
        "details": {
            "streams": stats.sent,
            "streams_ok": len(stats.ttft_s),
            "window_s": run["wall_s"],
            "server_cpu_frac": run["cpu_s"] / run["wall_s"],
            "server_final": final,
            "setup_s": setups,
        },
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the finally/except blocks stop
    # the server and workers this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = min(args.seconds, 3.0)

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        info = _info()
        if args.workload == "gateway-stream":
            result = run_gateway(
                args.seed, args.seconds, args.smoke, bool(args.trace), work
            )
        else:
            result = run_simulated(
                args.workload, args.seed, args.smoke, bool(args.trace)
            )
    except (BenchError, subprocess.TimeoutExpired, asyncio.TimeoutError,
            OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} could not run: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass

    attempted, failed = result["attempted"], result["failed"]
    if result["problems"]:
        failed = max(failed, 1)
    values = dict(result["metrics"])
    values["ok_pct"] = 100.0 * (attempted - failed) / attempted
    if args.trace:
        names = PER_LAYER
        values = result["layers"]
    else:
        names = END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in names
    }
    print("perfbench: info " + json.dumps(
        {**info, "workload": args.workload, "seed": args.seed,
         **result["details"]},
        sort_keys=True,
    ))
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}")
    print(json.dumps({
        "correct": not result["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
