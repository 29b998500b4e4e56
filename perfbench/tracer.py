"""Per-layer spans recorded from outside the simulator.

:func:`install` wraps public functions and methods of each simulator
layer in timing spans.  Nothing under ``src/`` knows about it: the
wrappers are set as class or module attributes before any cluster is
built, so every later lookup goes through them.

A span is one call of a wrapped function.  Spans nest on a stack, and a
span's *self* time is its length minus the time its child spans cover.
Spans are aggregated in memory per name (calls, total, child time) and
read out when the run ends.  A call that re-enters a span of the same
name, such as a subclass method calling ``super()``, is folded into the
outer span so it is counted once.

:class:`ClusterLog` records every :class:`~repro.cluster.cluster.Cluster`
built while it is installed.  The benchmark uses it with tracing off too:
it runs once per cluster, not per event, and gives the correctness checks
access to the instances and KV pools that ``run_evaluation`` keeps inside.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

from layers import INSTANCE_METHODS, KVPOOL_METHODS, POLICY_METHODS


class Tracer:
    """In-memory span aggregation keyed by span name."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, seconds covered by children]
        self.stats: dict[str, list] = {}
        #: name -> every span length, for names that need percentiles.
        self.samples: dict[str, list[float]] = {"serve.pacer.poll": []}
        #: Free-form counters filled by span hooks.
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        hook: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``hook(args, kwargs, result)`` runs after each call, outside the
        timed interval, to record counts at the same boundary.
        """
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        record = self.stats.get(name)
        return record[1] if record else 0.0

    def self_s(self, name: str) -> float:
        record = self.stats.get(name)
        return record[1] - record[2] if record else 0.0


class _TimedIterator:
    """Iterator proxy whose every ``next`` is a span."""

    def __init__(self, tracer: Tracer, iterator):
        self._next = tracer.wrap("workload.source.pull", iterator.__next__)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class ClusterLog:
    """Every cluster constructed while installed, in construction order."""

    def __init__(self) -> None:
        self.clusters: list = []

    def install(self) -> None:
        from repro.cluster.cluster import Cluster

        original = Cluster.__init__
        clusters = self.clusters

        @functools.wraps(original)
        def init(cluster, *args, **kwargs):
            original(cluster, *args, **kwargs)
            clusters.append(cluster)

        Cluster.__init__ = init


def _classes_defining(base: type, method: str) -> list[type]:
    """``base`` and its transitive subclasses that define ``method``."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if method in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _wrap_methods(
    tracer: Tracer,
    base: type,
    method: str,
    name: str,
    hook: Callable | None = None,
) -> None:
    for cls in _classes_defining(base, method):
        setattr(cls, method, tracer.wrap(name, cls.__dict__[method], hook))


#: Instance-monitor census queries (Algorithms 1/2 read these).
MONITOR_METHODS = (
    "answering_slo_ok",
    "kv_footprint",
    "pending_decode_tokens",
    "reasoning_count",
    "fresh_answering_count",
)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans of ``tracer``."""
    # Import every module that defines a policy, scheduler or perf-model
    # subclass, so the subclass walk below finds their overrides.
    import repro.core.extensions  # noqa: F401
    import repro.core.policies  # noqa: F401
    import repro.perfmodel.profile  # noqa: F401
    import repro.perfmodel.unit  # noqa: F401
    import repro.schedulers.fcfs  # noqa: F401
    import repro.schedulers.oracle  # noqa: F401
    import repro.schedulers.round_robin  # noqa: F401
    from repro.api import sources
    from repro.api.session import ServingSession
    from repro.core.pascal import PascalScheduler
    from repro.core.policy import ClusterPolicy
    from repro.harness import runner
    from repro.memory.blocks import KVPool
    from repro.perfmodel.analytical import PerfModel
    from repro.schedulers.base import IntraScheduler
    from repro.serve.pacer import WallClockPacer
    from repro.serving.instance import ServingInstance
    from repro.serving.monitor import InstanceMonitor
    from repro.sim.engine import SimulationEngine

    # sim: the dispatch loop is a span; every handler bound through
    # register() is a child span, so the engine's self time is dispatch
    # outside the handlers.
    for method in ("run", "step"):
        _wrap_methods(tracer, SimulationEngine, method, "sim.engine")
    register = SimulationEngine.register

    def traced_register(engine, kind, handler):
        register(
            engine,
            kind,
            tracer.wrap(f"sim.handler.{kind.name.lower()}", handler),
        )

    SimulationEngine.register = traced_register

    # workload + api.sources: every pull from an attached source.
    for cls in _classes_defining(sources.ArrivalSource, "__iter__"):
        original = cls.__dict__["__iter__"]

        def timed_iter(source, _original=original):
            return _TimedIterator(tracer, iter(_original(source)))

        cls.__iter__ = timed_iter

    # schedulers (+ core.pascal)
    def on_form_batch(args, kwargs, plan):
        tracer.add("form_batch.resident", len(args[1].requests))
        tracer.add("form_batch.batch", plan.batch_size)

    _wrap_methods(
        tracer, IntraScheduler, "form_batch", "schedulers.form_batch",
        on_form_batch,
    )
    _wrap_methods(tracer, PascalScheduler, "refresh", "core.pascal.refresh")

    # serving.instance: epoch planning, step completion, lazy emission.
    for method in INSTANCE_METHODS:
        _wrap_methods(
            tracer, ServingInstance, method, f"serving.instance.{method}"
        )

    # core.placement + serving.monitor (Algorithms 1/2)
    for method in POLICY_METHODS:
        _wrap_methods(tracer, ClusterPolicy, method, f"core.policy.{method}")
    for method in MONITOR_METHODS:
        _wrap_methods(tracer, InstanceMonitor, method, "serving.monitor")

    # memory
    for method in KVPOOL_METHODS:
        _wrap_methods(tracer, KVPool, method, f"memory.kvpool.{method}")

    # perfmodel: the decode step-latency method.
    _wrap_methods(
        tracer, PerfModel, "decode_step_seconds", "perfmodel.decode_step"
    )

    # metrics: ServingSession.metrics() is the collector's public door.
    _wrap_methods(tracer, ServingSession, "metrics", "metrics.collect")

    # harness.runner: the capacity probe, looked up as a module global.
    runner.measured_capacity_req_per_s = tracer.wrap(
        "harness.probe", runner.measured_capacity_req_per_s
    )

    # api.session: bounded (pacer, drain chunks) vs unbounded steps.
    def on_step(args, kwargs, result):
        bounded = len(args) > 1 or any(
            kwargs.get(key) is not None for key in ("until", "max_events")
        )
        tracer.add("session.step.bounded" if bounded else
                   "session.step.unbounded")

    _wrap_methods(tracer, ServingSession, "step", "api.session.step", on_step)

    # serve: the wall-clock pacer's poll.
    _wrap_methods(tracer, WallClockPacer, "poll", "serve.pacer.poll")
