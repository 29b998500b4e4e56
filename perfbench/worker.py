"""One cold repetition of a simulated benchmark workload, in its own process.

``run.py`` starts a fresh worker for every timed repetition, so the
runner's in-process memoization (``_eval_cache``, ``_capacity_cache``)
can never turn a repetition into a dict lookup.  The worker prints one
JSON object on its last stdout line.

Modes::

    worker.py {fig9-high,churn-light} --seed 1 --spawned-at T [--trace]
    worker.py fig9-high ... --setup-only  # set up, report setup_s, exit
    worker.py replay --trace-file PATH
    worker.py gw-inputs --seed 1 --bg-requests N \
        --trace-file BG.jsonl --client-file CLIENT.jsonl

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process (a system-wide clock on Linux), so ``setup_s``
covers interpreter start, imports and input generation.  ``setup_speed``
and ``speed`` are the host's speed (``hostspeed``) right after set-up
and over the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
from layers import TAIL_PCT, simulator_layers  # noqa: E402
from tracer import ClusterLog, Tracer, install  # noqa: E402

#: churn-light: open-loop Poisson arrivals of the bench-light length model.
CHURN_REQUESTS = 20000
CHURN_RATE_PER_S = 150.0
SMOKE_CHURN_REQUESTS = 600

#: gateway-stream: the background AlpacaEval trace arrives at this many
#: simulated req/s, and this many request shapes are drawn for the SSE
#: clients (a run sends ~250; they cycle through them if they send more).
BG_RATE_PER_S = 3.0
CLIENT_SHAPES = 1000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(metrics) -> str:
    from repro.harness.cache import canonical_json, metrics_to_payload

    payload = canonical_json(metrics_to_payload(metrics))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _answer_gaps(requests) -> list[float]:
    gaps: list[float] = []
    for req in requests:
        times = req.answer_token_times
        gaps.extend(b - a for a, b in zip(times, times[1:]))
    return gaps


def _latency_metrics(metrics, slo) -> dict[str, float]:
    """Simulated latency metrics of the workload's primary policy.

    The ``gw_*`` names are the client-visible view: here the client is
    the simulated one, so they are simulated milliseconds.
    """
    from repro.metrics.summary import percentile

    return {
        "sim_ttft_p50_s": metrics.tail_ttft(50.0),
        "sim_ttft_p99_s": metrics.tail_ttft(99.0),
        "sim_answer_slo_pct": 100.0 * metrics.slo_report(slo).attainment_rate,
        "gw_ttft_p50_ms": 1e3 * metrics.tail_ttft(50.0),
        "gw_ttft_tail_ms": 1e3 * metrics.tail_ttft(TAIL_PCT),
        "gw_itl_p99_ms": 1e3 * percentile(
            _answer_gaps(metrics.requests), 99.0
        ),
    }


def _check_drained(cluster, metrics, expected: int | None) -> list[str]:
    """Conservation and invariants of one drained cluster; problems found."""
    problems = []
    submitted = len(cluster.submitted)
    resolved = len(metrics.requests) + metrics.n_rejected + metrics.n_cancelled
    if submitted != resolved or not cluster.all_finished():
        problems.append(
            f"conservation: submitted={submitted} resolved={resolved}"
        )
    if expected is not None and submitted != expected:
        problems.append(f"submitted {submitted}, expected {expected}")
    for inst in cluster.instances:
        try:
            inst.check_invariants()
            inst.pool.check_invariants()
        except AssertionError as exc:
            problems.append(f"instance {inst.iid}: {exc}")
    return problems


def _outcome(metrics, problems) -> tuple[int, int]:
    """(attempted, failed) of one cell: a failed check fails them all."""
    attempted = (
        len(metrics.requests) + metrics.n_rejected + metrics.n_cancelled
    )
    if problems:
        return attempted, attempted
    return attempted, metrics.n_rejected + metrics.n_cancelled


def _fig9_settings(seed: int, smoke: bool):
    from repro.harness.runner import EvalSettings

    # Built explicitly: $REPRO_SCALE / $REPRO_SHARDS only reach
    # EvalSettings.for_scale(), so they cannot change this workload.
    if smoke:
        return EvalSettings(
            seed=seed,
            shards=1,
            n_requests=80,
            n_instances=2,
            kv_capacity_tokens=12000,
            trace_residency_multiple=1.0,
        )
    return EvalSettings(seed=seed, shards=1)


def _repetition(spawned_at: float, trace: bool, setup_only: bool, cell,
                key: str, slo, probe: bool) -> dict:
    """Time one prepared cell of a simulated workload.

    ``cell(log)`` runs the workload and returns its ``RunMetrics`` and a
    callable that checks the drained clusters (outside the timed region).
    ``probe`` says the cell first builds the capacity probe's clusters.
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    log = ClusterLog()
    log.install()
    setup_s = time.monotonic() - spawned_at
    setup_speed = hostspeed.burst_speed()
    if setup_only:
        return {"setup_s": setup_s, "setup_speed": setup_speed}

    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        metrics, check = cell(log)
        wall = time.perf_counter() - start
    peak_rss = _peak_rss_mb()

    problems = check()
    attempted, failed = _outcome(metrics, problems)
    result = {
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "wall_s": wall,
        "speed": sampler.speed(),
        "completed": len(metrics.requests),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": {key: _digest(metrics)},
        "peak_rss_mb": peak_rss,
        **_latency_metrics(metrics, slo),
    }
    if tracer is not None:
        result["layers"] = simulator_layers(
            tracer, log.clusters, log.clusters[:-1] if probe else []
        )
    return result


def run_fig9(seed: int, smoke: bool, spawned_at: float, trace: bool,
             setup_only: bool) -> dict:
    from repro.harness import cache as result_cache
    from repro.harness.runner import run_evaluation
    from repro.workload.datasets import ALPACA_EVAL

    result_cache.configure("off")
    settings = _fig9_settings(seed, smoke)

    def cell(log):
        metrics = run_evaluation(ALPACA_EVAL, "high", "pascal", settings)
        # run_evaluation builds the capacity probe's clusters, then the
        # session's own cluster: the last one built is the cell's.
        return metrics, lambda: _check_drained(
            log.clusters[-1], metrics, settings.n_requests_for(ALPACA_EVAL)
        )

    return _repetition(
        spawned_at, trace, setup_only, cell, f"fig9-high/pascal/seed{seed}",
        settings.cluster_config().slo, probe=True,
    )


def run_churn(seed: int, smoke: bool, spawned_at: float, trace: bool,
              setup_only: bool) -> dict:
    from repro.api import ListSource, ServingSession
    from repro.bench.shard import BENCH_LIGHT
    from repro.config import ClusterConfig, InstanceConfig
    from repro.workload.trace import TraceConfig, build_trace

    n_requests = SMOKE_CHURN_REQUESTS if smoke else CHURN_REQUESTS
    requests = build_trace(
        TraceConfig(BENCH_LIGHT, n_requests, CHURN_RATE_PER_S, seed=seed)
    )
    config = ClusterConfig(
        n_instances=8, instance=InstanceConfig(kv_capacity_tokens=60000)
    )

    def cell(log):
        session = ServingSession(policy="fcfs", config=config)
        session.attach(ListSource(requests))
        metrics = session.drain()

        def check() -> list[str]:
            problems = _check_drained(session.cluster, metrics, n_requests)
            if session.n_submitted != (
                session.n_completed + session.n_rejected
                + session.n_cancelled
            ):
                problems.append("session counters do not conserve requests")
            return problems

        return metrics, check

    return _repetition(
        spawned_at, trace, setup_only, cell, f"churn-light/fcfs/seed{seed}",
        config.slo, probe=False,
    )


def run_replay(path: str) -> dict:
    """Replay a gateway's recorded traffic offline under ``pascal``, the
    gateway's policy: its simulated view."""
    from repro.api import ServingSession, TraceFileSource
    from repro.harness.runner import ReplaySettings
    from repro.workload.trace import ReplayTraceConfig

    config = ReplaySettings().cluster_config()
    session = ServingSession(policy="pascal", config=config)
    session.attach(TraceFileSource(ReplayTraceConfig(path=path)))
    metrics = session.drain()
    problems = _check_drained(session.cluster, metrics, None)
    return {
        "completed": len(metrics.requests),
        "cancelled": metrics.n_cancelled,
        "rejected": metrics.n_rejected,
        "problems": problems,
        **_latency_metrics(metrics, config.slo),
    }


def write_gateway_inputs(seed: int, bg_requests: int, bg_path: str,
                         client_path: str) -> dict:
    """gateway-stream inputs from the seed: the background AlpacaEval
    trace the server replays open-loop, and the client request shapes
    (bench-light lengths, so enough short streams fit in one run)."""
    from repro.bench.shard import BENCH_LIGHT
    from repro.workload.datasets import ALPACA_EVAL
    from repro.workload.trace import TraceConfig, build_trace, export_trace

    background = build_trace(
        TraceConfig(ALPACA_EVAL, bg_requests, BG_RATE_PER_S, seed=seed)
    )
    export_trace(background, bg_path)
    clients = build_trace(
        TraceConfig(BENCH_LIGHT, CLIENT_SHAPES, 1.0, seed=seed + 1)
    )
    export_trace(clients, client_path)
    return {"background": len(background), "client_shapes": len(clients)}


SIMULATED = {"fig9-high": run_fig9, "churn-light": run_churn}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=(*SIMULATED, "replay", "gw-inputs"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--client-file")
    parser.add_argument("--bg-requests", type=int, default=0)
    args = parser.parse_args(argv)
    if args.mode == "replay":
        result = run_replay(args.trace_file)
    elif args.mode == "gw-inputs":
        result = write_gateway_inputs(
            args.seed, args.bg_requests, args.trace_file, args.client_file,
        )
    else:
        spawned_at = (
            time.monotonic() if args.spawned_at is None else args.spawned_at
        )
        result = SIMULATED[args.mode](
            args.seed, args.smoke, spawned_at, args.trace, args.setup_only
        )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
