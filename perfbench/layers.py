"""Per-layer metric names, units, and their computation from a traced run.

``PER_LAYER`` is the single list of per-layer metrics the benchmark
prints with ``--trace 1``; ``BENCHMARK.json`` declares the same names.
Layers a workload does not reach report 0 (PASCAL's ``refresh`` and
migrations under ``fcfs``, the pacer outside ``gateway-stream``).
"""

from __future__ import annotations

#: Percentile reported as ``gw_ttft_tail_ms``.  A gateway-stream run
#: finishes ~235 streams in a 15 s window; p90 keeps ~23 beyond it, so it
#: stays supported (>= 10 beyond) even when a slower server completes half
#: as many.
TAIL_PCT = 90.0

EVENT_KINDS = ("arrival", "step_complete", "transfer_complete", "cancel")
INSTANCE_METHODS = ("maybe_start_step", "on_step_complete", "sync")
POLICY_METHODS = ("place_arrival", "on_phase_transition")
KVPOOL_METHODS = (
    "allocate",
    "grow",
    "grow_all",
    "grow_all_n",
    "swap_out",
    "swap_in",
    "release",
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    # sim (engine, events)
    ("sim.events_per_req", "ev/req"),
    *((f"sim.events.{kind}", "count") for kind in EVENT_KINDS),
    ("sim.engine.self_s", "s"),
    # workload + api.sources
    ("workload.source.pull_s", "s"),
    # schedulers (+ core.pascal)
    ("schedulers.form_batch.calls", "count"),
    ("schedulers.form_batch.self_s", "s"),
    ("schedulers.form_batch.us_per_call", "us"),
    ("schedulers.resident_per_reform", "req"),
    ("schedulers.batch_size_mean", "req"),
    ("core.pascal.refresh.calls", "count"),
    ("core.pascal.refresh.self_s", "s"),
    # serving.instance (epochs, emission)
    ("serving.steps_per_epoch", "steps"),
    *(
        (f"serving.instance.{method}.{stat}", unit)
        for method in INSTANCE_METHODS
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ),
    # core.placement + serving.monitor (Algorithms 1/2)
    *(
        (f"core.policy.{method}.{stat}", unit)
        for method in POLICY_METHODS
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("serving.monitor.calls", "count"),
    ("serving.monitor.self_s", "s"),
    # memory (KV pool)
    *(
        (f"memory.kvpool.{method}.{stat}", unit)
        for method in KVPOOL_METHODS
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("memory.swap_out_tokens", "tokens"),
    ("memory.peak_gpu_frac", "fraction"),
    # cluster.migration
    ("cluster.migrations", "count"),
    ("cluster.transfer_p99_s", "sim_s"),
    # perfmodel
    ("perfmodel.decode_step.calls", "count"),
    ("perfmodel.decode_step.self_s", "s"),
    # metrics (collector)
    ("metrics.collect.self_s", "s"),
    ("metrics.token_times_per_req", "tokens/req"),
    # harness.runner (capacity probe)
    ("harness.probe.self_s", "s"),
    ("harness.probe.events", "count"),
    # api.session
    ("api.session.step.bounded.calls", "count"),
    ("api.session.step.unbounded.calls", "count"),
    ("api.session.step.self_s", "s"),
    # serve (pacer, gateway); filled in by the orchestrator
    ("serve.pacer.poll.calls", "count"),
    ("serve.pacer.poll.busy_frac", "fraction"),
    ("serve.pacer.poll.p99_ms", "ms"),
    ("serve.server_cpu_frac", "fraction"),
    ("serve.gateway.cpu_s_per_req", "s/req"),
    # tracing itself
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulator_layers(tracer, clusters, probe_clusters) -> dict[str, float]:
    """Every per-layer metric the simulator process can see.

    ``clusters`` is every cluster the run built; ``probe_clusters`` the
    subset built inside the capacity probe.  Counts come from public
    attributes read after the run, times from ``tracer``'s spans.
    """
    from repro.metrics.summary import percentile

    instances = [inst for c in clusters for inst in c.instances]
    requests = [req for c in clusters for req in c.submitted]
    out: dict[str, float] = {}
    events = sum(c.engine.events_processed for c in clusters)
    out["sim.events_per_req"] = _ratio(events, len(requests))
    for kind in EVENT_KINDS:
        out[f"sim.events.{kind}"] = tracer.calls(f"sim.handler.{kind}")
    out["sim.engine.self_s"] = tracer.self_s("sim.engine")
    out["workload.source.pull_s"] = tracer.total_s("workload.source.pull")

    reforms = tracer.calls("schedulers.form_batch")
    out["schedulers.form_batch.calls"] = reforms
    out["schedulers.form_batch.self_s"] = tracer.self_s(
        "schedulers.form_batch"
    )
    out["schedulers.form_batch.us_per_call"] = 1e6 * _ratio(
        tracer.total_s("schedulers.form_batch"), reforms
    )
    out["schedulers.resident_per_reform"] = _ratio(
        tracer.counters.get("form_batch.resident", 0), reforms
    )
    out["schedulers.batch_size_mean"] = _ratio(
        tracer.counters.get("form_batch.batch", 0), reforms
    )
    out["core.pascal.refresh.calls"] = tracer.calls("core.pascal.refresh")
    out["core.pascal.refresh.self_s"] = tracer.self_s("core.pascal.refresh")

    out["serving.steps_per_epoch"] = _ratio(
        sum(inst.decode_steps for inst in instances),
        tracer.calls("sim.handler.step_complete"),
    )
    for method in INSTANCE_METHODS:
        name = f"serving.instance.{method}"
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.self_s"] = tracer.self_s(name)
    for method in POLICY_METHODS:
        name = f"core.policy.{method}"
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.self_s"] = tracer.self_s(name)
    out["serving.monitor.calls"] = tracer.calls("serving.monitor")
    out["serving.monitor.self_s"] = tracer.self_s("serving.monitor")

    for method in KVPOOL_METHODS:
        name = f"memory.kvpool.{method}"
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.self_s"] = tracer.self_s(name)
    out["memory.swap_out_tokens"] = sum(
        inst.swap_out_tokens for inst in instances
    )
    out["memory.peak_gpu_frac"] = max(
        (
            _ratio(inst.pool.peak_gpu_used_blocks,
                   inst.pool.gpu_capacity_blocks)
            for inst in instances
        ),
        default=0.0,
    )

    transfers = [
        latency for c in clusters for latency in
        c.migrations.transfer_latencies()
    ]
    out["cluster.migrations"] = len(transfers)
    # No transfer without a migration (fcfs never migrates).
    out["cluster.transfer_p99_s"] = (
        percentile(transfers, 99.0) if transfers else 0.0
    )

    out["perfmodel.decode_step.calls"] = tracer.calls("perfmodel.decode_step")
    out["perfmodel.decode_step.self_s"] = tracer.self_s(
        "perfmodel.decode_step"
    )
    out["metrics.collect.self_s"] = tracer.self_s("metrics.collect")
    out["metrics.token_times_per_req"] = _ratio(
        sum(len(req.answer_token_times) for req in requests), len(requests)
    )
    out["harness.probe.self_s"] = tracer.self_s("harness.probe")
    out["harness.probe.events"] = sum(
        c.engine.events_processed for c in probe_clusters
    )
    out["api.session.step.bounded.calls"] = tracer.counters.get(
        "session.step.bounded", 0
    )
    out["api.session.step.unbounded.calls"] = tracer.counters.get(
        "session.step.unbounded", 0
    )
    out["api.session.step.self_s"] = tracer.self_s("api.session.step")
    out["serve.pacer.poll.calls"] = tracer.calls("serve.pacer.poll")
    # The pacer polls only inside the gateway-stream server.
    polls = tracer.samples["serve.pacer.poll"]
    out["serve.pacer.poll.p99_ms"] = (
        1e3 * percentile(polls, 99.0) if polls else 0.0
    )
    return out
