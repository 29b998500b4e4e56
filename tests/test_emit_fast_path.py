"""The decode emit path records non-milestone tokens inline, exactly.

``ServingInstance._emit_tokens`` records a token that is no milestone for
its request (no phase flip, no first answering token, no completion, no
quantum expiry) through ``record_plain_tokens``, without going through
``_emit_token`` and ``Request.record_token``.  These tests pin
that shortcut to the per-token path: a hand-built batch that mixes every
milestone kind with plain tokens, and whole runs compared against the
per-token path, against ``epoch_coalescing=False`` and with the token
log switched on.  Every hook must fire in the same order and see the
same state, and the token log must get the same entries.
"""

from __future__ import annotations

import pytest

from repro.api import ServingSession
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, InstanceConfig, SchedulerConfig
from repro.core.pascal import PascalScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.serving.instance import ServingInstance
from repro.workload.request import Phase, ReqState, Request
from tests.conftest import build_instance
from tests.test_epoch_equivalence import _HookRecorder, fingerprint

QUANTUM = 6
NOW = 5.0


def per_token(inst, requests, now):
    """The per-token path: every token through ``_emit_token``."""
    for req in requests:
        inst._emit_token(req, now)


def positioned(rid, reasoning, answer, generated, quantum_used):
    """A running request ``generated`` tokens into its decode."""
    req = Request(rid=rid, prompt_len=4, reasoning_len=reasoning,
                  answer_len=answer)
    req.prefill_done = True
    req.generated_tokens = generated
    req.quantum_used = quantum_used
    if generated >= reasoning:
        req.phase = Phase.ANSWERING
        if reasoning:
            req.reasoning_end_t = 1.0
        if generated > reasoning:
            req.first_answer_t = 1.0
            req.answer_token_times = [1.0] * (generated - reasoning)
    return req


#: (rid, reasoning, answer, generated, quantum_used, milestone of the
#: next token).  Plain tokens sit between the milestones so a hook sees
#: some batch-mates already advanced and some not yet.
MIXED_BATCH = (
    (0, 10, 10, 3, 1, "plain reasoning"),
    (1, 5, 10, 4, 1, "phase flip"),
    (2, 10, 10, 5, 2, "plain reasoning"),
    (3, 5, 10, 5, 1, "first answering token"),
    (4, 2, 10, 6, 1, "plain answering"),
    (5, 2, 4, 5, 1, "completion"),
    (6, 10, 10, 2, QUANTUM - 1, "quantum expiry"),
    (7, 2, 10, 7, 2, "plain answering"),
    (8, 0, 1, 0, 0, "first answering token and completion"),
    (9, 3, 10, 2, QUANTUM - 1, "phase flip and quantum expiry"),
)


def build_mixed(scheduler):
    engine, inst = build_instance(scheduler, capacity_tokens=4096)
    requests = []
    for rid, reasoning, answer, generated, used, _ in MIXED_BATCH:
        req = positioned(rid, reasoning, answer, generated, used)
        req.instance_id = inst.iid
        inst.requests.add(req)
        inst.pool.allocate(req, req.full_kv_tokens, on_gpu=True)
        req.set_state(ReqState.RUNNING, 1.0)
        requests.append(req)
    observed = []

    def state():
        return (
            inst.tokens_generated,
            tuple(
                (r.rid, r.generated_tokens, r.quantum_used, r.phase,
                 r.state, r.level, len(r.answer_token_times))
                for r in requests
            ),
        )

    inst.on_transition = lambda req, _inst, now: observed.append(
        ("transition", req.rid, now, state())
    )
    inst.on_first_token = lambda req, now: observed.append(
        ("first-token", req.rid, now, state())
    )
    inst.on_complete = lambda req, now: observed.append(
        ("complete", req.rid, now, state())
    )
    return inst, requests, observed


def outcome(inst, requests, observed):
    return (
        observed,
        inst.tokens_generated,
        [
            (
                r.rid,
                r.generated_tokens,
                r.quantum_used,
                r.phase,
                r.state,
                r.level,
                r.enqueue_seq,
                r.reasoning_end_t,
                r.first_answer_t,
                r.done_t,
                tuple(r.answer_token_times),
                r in inst.requests,
                inst.pool.holds(r),
            )
            for r in requests
        ],
    )


@pytest.mark.parametrize(
    "make_scheduler",
    [
        lambda: RoundRobinScheduler(QUANTUM),
        lambda: PascalScheduler(QUANTUM),
    ],
    ids=["rr", "pascal"],
)
class TestMixedBatch:
    def test_matches_per_token_path(self, make_scheduler):
        fast = build_mixed(make_scheduler())
        slow = build_mixed(make_scheduler())
        fast[0]._emit_tokens(fast[1], NOW)
        per_token(slow[0], slow[1], NOW)
        assert outcome(*fast) == outcome(*slow)

    def test_every_milestone_kind_fires(self, make_scheduler):
        inst, requests, observed = build_mixed(make_scheduler())
        inst._emit_tokens(requests, NOW)
        kinds = {(kind, rid) for kind, rid, _, _ in observed}
        assert kinds == {
            ("transition", 1),
            ("transition", 9),
            ("first-token", 3),
            ("first-token", 8),
            ("complete", 5),
            ("complete", 8),
        }
        # Quantum expiry demoted the two requests that exhausted theirs.
        assert requests[6].level == 1 and requests[6].quantum_used == 0
        assert requests[9].level == 1 and requests[9].quantum_used == 0
        # Plain tokens advanced inline.
        assert requests[0].generated_tokens == 4
        assert requests[4].answer_token_times[-1] == NOW
        assert inst.tokens_generated == len(MIXED_BATCH)

    def test_hooks_see_batch_order_state(self, make_scheduler):
        # The hook for request 3 fires after requests 0-2 got their token
        # and before requests 4-9 did, as on the per-token path.
        inst, requests, observed = build_mixed(make_scheduler())
        inst._emit_tokens(requests, NOW)
        (first_token,) = [e for e in observed if e[:2] == ("first-token", 3)]
        tokens_so_far, snapshot = first_token[3]
        generated = {rid: g for rid, g, *_ in snapshot}
        assert tokens_so_far == 4
        assert generated[2] == 6  # already advanced
        assert generated[4] == 6  # not yet

    def test_token_log_matches_per_token_path(self, make_scheduler):
        fast = build_mixed(make_scheduler())
        slow = build_mixed(make_scheduler())
        fast[0].token_log = {}
        slow[0].token_log = {}
        fast[0]._emit_tokens(fast[1], NOW)
        per_token(slow[0], slow[1], NOW)
        assert outcome(*fast) == outcome(*slow)
        assert fast[0].token_log == slow[0].token_log
        assert list(fast[0].token_log) == [r[0] for r in MIXED_BATCH]


def test_non_running_request_takes_the_per_token_path():
    # A token for a request that is not RUNNING is an error on the
    # per-token path; the inline path must not swallow it.
    inst, requests, _ = build_mixed(RoundRobinScheduler(QUANTUM))
    requests[0].set_state(ReqState.QUEUED, 2.0)
    with pytest.raises(RuntimeError, match="generated a token while QUEUED"):
        inst._emit_tokens(requests[:1], NOW)


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
#: Staggered arrivals and varied lengths: under a small quantum nearly
#: every decode step mixes milestone and plain tokens.
SPECS = [
    (rid, 5 + 3 * rid, (7 * rid) % 23, 1 + (11 * rid) % 17, 0.15 * rid)
    for rid in range(12)
]


def config(epoch, quantum=QUANTUM):
    return ClusterConfig(
        n_instances=2,
        instance=InstanceConfig(
            kv_capacity_tokens=600,
            scheduler=SchedulerConfig(token_quantum=quantum),
            epoch_coalescing=epoch,
        ),
    )


def requests_from(specs):
    return [
        Request(rid=rid, prompt_len=p, reasoning_len=r, answer_len=a,
                arrival_t=t)
        for rid, p, r, a, t in specs
    ]


def batch_run(policy, epoch, token_log=False):
    requests = requests_from(SPECS)
    cluster = Cluster(config(epoch), policy=policy)
    log = cluster.enable_token_log() if token_log else None
    cluster.run_trace(requests)
    assert cluster.all_finished()
    for inst in cluster.instances:
        inst.check_invariants()
    counters = [
        (inst.tokens_generated, inst.decode_steps)
        for inst in cluster.instances
    ]
    return fingerprint(requests), counters, log


def session_run(policy, epoch):
    session = ServingSession(policy=policy, config=config(epoch))
    recorder = session.subscribe(_HookRecorder())
    for req in requests_from(SPECS):
        session.submit(req)
    metrics = session.drain()
    return recorder.events, fingerprint(
        sorted(metrics.requests, key=lambda r: r.rid)
    )


@pytest.mark.parametrize("policy", ["fcfs", "rr", "pascal"])
class TestWholeRuns:
    def test_matches_per_token_path_and_single_stepping(
        self, policy, monkeypatch
    ):
        fast = batch_run(policy, epoch=True)
        single = batch_run(policy, epoch=False)
        fast_events = session_run(policy, epoch=True)
        monkeypatch.setattr(ServingInstance, "_emit_tokens", per_token)
        slow = batch_run(policy, epoch=True)
        slow_events = session_run(policy, epoch=True)
        assert fast[:2] == slow[:2]
        assert fast[0] == single[0]
        assert fast_events == slow_events

    def test_token_log_run_matches(self, policy, monkeypatch):
        plain = batch_run(policy, epoch=True)
        logged = batch_run(policy, epoch=True, token_log=True)
        assert plain[:2] == logged[:2]
        log = logged[2]
        monkeypatch.setattr(ServingInstance, "_emit_tokens", per_token)
        assert batch_run(policy, epoch=True, token_log=True)[2] == log
        for rid, prompt, reasoning, answer, _ in SPECS:
            # One entry per generated token, answer tokens last.
            assert len(log[rid]) == reasoning + answer
            times = dict((fp[0], fp[-1]) for fp in logged[0])[rid]
            assert tuple(log[rid][-answer:]) == times
