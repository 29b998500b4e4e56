"""The one-pass batch former agrees with the full-sort reference former.

``IntraScheduler.form_batch`` reads residency from request fields and
walks the requests once; ``tests/reference_former.py`` keeps the
straightforward multi-pass algorithm it replaced.  Hypothesis builds
random instance states — memory pressure, KV pinned by departed
(migrating) requests, swapped-out and pending requests, the batch-size
limit and the prefill-token budget — and both formers must produce the
same plan and the same residency effects.  A second property swaps the
reference in for whole cluster runs and compares every observable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    ExtensionPolicyConfig,
    InstanceConfig,
    SchedulerConfig,
)
from repro.core.pascal import PascalScheduler
from repro.perfmodel.unit import UnitPerfModel
from repro.schedulers.base import IntraScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.oracle import OracleScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.serving.instance import ServingInstance
from repro.sim.engine import SimulationEngine
from repro.workload.request import Phase, ReqState, Request
from tests.reference_former import reference_form_batch
from tests.test_epoch_equivalence import (
    POLICIES,
    build_requests,
    fingerprint,
    workload_spec,
)

QUANTUM = 4
DEMOTION_TOKENS = 20
SETUP_T = 1.5
REFORM_T = 2.0


def make_scheduler(policy: str) -> IntraScheduler:
    if policy == "fcfs":
        return FCFSScheduler()
    if policy == "oracle":
        return OracleScheduler()
    if policy == "rr":
        return RoundRobinScheduler(QUANTUM)
    return PascalScheduler(QUANTUM, demotion_threshold_tokens=DEMOTION_TOKENS)


@st.composite
def request_spec(draw):
    prompt = draw(st.integers(min_value=1, max_value=60))
    # Zero reasoning and zero generated tokens are drawn often: together
    # they make the ``skip_prefill`` requests whose allocation completes
    # the prompt in the middle of a reform.
    reasoning = draw(st.one_of(st.just(0), st.integers(1, 40)))
    answer = draw(st.integers(min_value=1, max_value=40))
    generated = draw(
        st.one_of(st.just(0), st.integers(0, reasoning + answer - 1))
    )
    prefill_done = generated > 0 or draw(st.booleans())
    return {
        "prompt": prompt,
        "reasoning": reasoning,
        "answer": answer,
        "generated": generated,
        "prefill_done": prefill_done,
        "skip_prefill": (
            not prefill_done and reasoning == 0 and draw(st.booleans())
        ),
        "where": draw(st.sampled_from(("pending", "gpu", "cpu"))),
        "running": draw(st.booleans()),
        "level": draw(st.integers(min_value=0, max_value=3)),
        "quantum_used": draw(st.integers(min_value=0, max_value=QUANTUM - 1)),
        "arrival": draw(st.floats(min_value=0.0, max_value=1.0)),
    }


@st.composite
def instance_spec(draw):
    return {
        "policy": draw(st.sampled_from(("fcfs", "rr", "oracle", "pascal"))),
        # 1 to 100 blocks of 16 tokens: from heavy pressure to none.
        "gpu_tokens": draw(st.integers(min_value=16, max_value=1600)),
        "max_batch": draw(st.integers(min_value=1, max_value=12)),
        "max_prefill": draw(st.integers(min_value=1, max_value=240)),
        "requests": draw(st.lists(request_spec(), max_size=14)),
        # KV still pinned by requests that departed (mid-migration).
        "pinned": draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=120), st.booleans()
                ),
                max_size=2,
            )
        ),
    }


def build_state(spec):
    """A deterministic instance state from ``spec``, built through the
    pool and instance APIs (not ``admit()``, which would start steps)."""
    engine = SimulationEngine()
    config = InstanceConfig(
        kv_capacity_tokens=spec["gpu_tokens"],
        scheduler=SchedulerConfig(
            token_quantum=QUANTUM,
            max_batch_size=spec["max_batch"],
            max_prefill_tokens=spec["max_prefill"],
        ),
    )
    perf = UnitPerfModel(decode_step_s=1.0, swap_s_per_token=0.001)
    inst = ServingInstance(
        iid=0,
        config=config,
        perf=perf,
        engine=engine,
        scheduler=make_scheduler(spec["policy"]),
    )
    pool = inst.pool
    everyone = []
    for rid, r in enumerate(spec["requests"]):
        req = Request(
            rid=rid,
            prompt_len=r["prompt"],
            reasoning_len=r["reasoning"],
            answer_len=r["answer"],
            arrival_t=r["arrival"],
            skip_prefill=r["skip_prefill"],
        )
        req.generated_tokens = r["generated"]
        req.prefill_done = r["prefill_done"]
        if r["generated"] >= r["reasoning"]:
            req.phase = Phase.ANSWERING
            if r["reasoning"]:
                req.reasoning_end_t = r["arrival"]
            if r["generated"] > r["reasoning"]:
                req.first_answer_t = r["arrival"]
        req.instance_id = inst.iid
        inst.requests.add(req)
        inst.scheduler.on_admit(req, r["arrival"])
        req.level = r["level"]
        req.quantum_used = r["quantum_used"]
        tokens = req.full_kv_tokens
        where = r["where"]
        if where == "gpu" and not pool.can_allocate_gpu(tokens):
            where = "pending"
        if where == "gpu":
            pool.allocate(req, tokens, on_gpu=True)
            state = ReqState.RUNNING if r["running"] else ReqState.QUEUED
            req.set_state(state, SETUP_T)
        elif where == "cpu":
            pool.allocate(req, tokens, on_gpu=False)
            req.set_state(ReqState.PREEMPTED, SETUP_T)
        else:
            inst._pending_kv += tokens
        everyone.append(req)
    for k, (tokens, on_gpu) in enumerate(spec["pinned"]):
        ghost = Request(rid=1000 + k, prompt_len=tokens, reasoning_len=0,
                        answer_len=1)
        on_gpu = on_gpu and pool.can_allocate_gpu(tokens)
        pool.allocate(ghost, tokens, on_gpu=on_gpu)
        ghost.set_state(ReqState.MIGRATING, SETUP_T)
        everyone.append(ghost)
    inst.check_invariants()
    ops: list[tuple[str, int]] = []
    for name in ("do_swap_out", "do_swap_in", "do_allocate"):
        original = getattr(inst, name)

        def recorded(req, now, _name=name, _original=original):
            ops.append((_name, req.rid))
            _original(req, now)

        setattr(inst, name, recorded)
    return inst, everyone, ops


def observe(plan, inst, everyone, ops):
    pool = inst.pool
    return {
        "plan": (
            plan.kind,
            [r.rid for r in plan.requests],
            plan.prefill_tokens,
            plan.kv_total,
            plan.crossing_counts,
        ),
        "ops": list(ops),
        "requests": [
            (
                r.rid,
                r.state,
                r.kv_tokens,
                r.on_gpu,
                r.prefill_done,
                r.level,
                r.enqueue_seq,
                r.demoted,
                r.quantum_used,
                r.n_preemptions,
                r.first_sched_t,
                r.answer_sched_t,
                sorted((k[0].name, k[1], v) for k, v in r.breakdown.items()),
            )
            for r in everyone
        ],
        "pool": (
            pool.gpu_used_blocks,
            pool.cpu_used_blocks,
            pool.peak_gpu_used_blocks,
            pool.gpu_used_tokens(),
            pool.cpu_used_tokens(),
        ),
        "instance": (
            inst.overhead_s,
            inst.swap_out_tokens,
            inst.swap_in_tokens,
            inst.pending_kv_tokens(),
            inst.scheduler._seq,
        ),
    }


class TestOneStateAgainstReference:
    @given(instance_spec())
    @settings(max_examples=300, deadline=None)
    def test_same_plan_and_effects(self, spec):
        fast, fast_all, fast_ops = build_state(spec)
        slow, slow_all, slow_ops = build_state(spec)
        for now in (REFORM_T, REFORM_T + 1.0):
            # A second reform starts from the state the first one left
            # (parked, evicted, swapped-in and freshly admitted requests).
            plan = fast.scheduler.form_batch(fast, now)
            expected = reference_form_batch(slow.scheduler, slow, now)
            assert observe(plan, fast, fast_all, fast_ops) == observe(
                expected, slow, slow_all, slow_ops
            )
            fast.check_invariants()


def _run(policy, specs, capacity, max_batch):
    requests = build_requests(specs)
    config = ClusterConfig(
        n_instances=2,
        instance=InstanceConfig(
            kv_capacity_tokens=capacity,
            scheduler=SchedulerConfig(
                token_quantum=8,
                max_batch_size=max_batch,
                max_prefill_tokens=96,
            ),
        ),
        extensions=ExtensionPolicyConfig(),
    )
    cluster = Cluster(config, policy=policy)
    cluster.run_trace(requests)
    assert cluster.all_finished()
    return fingerprint(requests), [
        (
            inst.reforms,
            inst.tokens_generated,
            inst.decode_steps,
            inst.prefill_steps,
            inst.swap_out_tokens,
            inst.swap_in_tokens,
            inst.busy_time_s,
        )
        for inst in cluster.instances
    ]


class TestWholeRunsAgainstReference:
    @given(
        workload_spec(),
        st.sampled_from(POLICIES),
        # 200 tokens covers the largest request (40 + 80 + 60 tokens),
        # so every run drains; smaller pools force swaps.
        st.sampled_from((200, 320, 2400)),
        st.sampled_from((2, 256)),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_runs(self, specs, policy, capacity, max_batch):
        fast = _run(policy, specs, capacity, max_batch)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(IntraScheduler, "form_batch", reference_form_batch)
            slow = _run(policy, specs, capacity, max_batch)
        assert fast == slow
