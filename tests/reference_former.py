"""Reference batch former: the straightforward full-sort implementation.

This is the batch-formation algorithm exactly as ``IntraScheduler``
described it before the one-pass rewrite: filter the live requests, sort
them by the policy's key, sum the GPU blocks they hold through pool
queries, then walk the order reserving blocks, and finally park the
resident-but-unbatched requests.  It asks the pool about every request and
makes several passes, which is why the runtime former no longer looks like
this; the tests keep it as the oracle the runtime former must agree with
(plan and residency effects alike).
"""

from __future__ import annotations

from repro.schedulers.base import IntraScheduler, StepKind, StepPlan
from repro.workload.request import ReqState, Request


def reference_form_batch(
    scheduler: IntraScheduler, inst, now: float
) -> StepPlan:
    """Recompute GPU residency and the next step's batch (oracle)."""
    pool = inst.pool
    cfg = inst.config.scheduler
    live = [r for r in inst.requests if not r.finished]
    scheduler.refresh(live, now)
    order = sorted(live, key=scheduler.priority_key)

    # Blocks pinned by requests that are no longer schedulable here
    # (KV caches mid-migration stay allocated until the copy lands)
    # are off-limits for this plan.
    resident_blocks = sum(
        pool.blocks_for(r.kv_tokens)
        for r in live
        if pool.holds(r) and pool.on_gpu(r)
    )
    external_blocks = pool.gpu_used_blocks - resident_blocks
    capacity = pool.gpu_capacity_blocks - external_blocks
    planned_blocks = 0
    batch: list[Request] = []
    keep_resident: list[Request] = []
    swap_in: list[Request] = []
    admit: list[Request] = []
    evict: list[Request] = []
    stop_admission = False

    for req in order:
        in_batch = len(batch) < cfg.max_batch_size
        resident = pool.holds(req) and pool.on_gpu(req)
        if not resident and not in_batch:
            # No execution slot anyway; don't move memory for it.
            continue
        footprint = req.kv_tokens if pool.holds(req) else req.full_kv_tokens
        need = pool.blocks_for(footprint + (1 if in_batch else 0))
        fits = planned_blocks + need <= capacity
        if resident:
            if fits:
                planned_blocks += need
                keep_resident.append(req)
                if in_batch:
                    batch.append(req)
            else:
                evict.append(req)
        else:
            if stop_admission:
                continue
            if not fits:
                # Head-of-line: no lower-priority request may leapfrog.
                stop_admission = True
                continue
            planned_blocks += need
            if pool.holds(req):
                swap_in.append(req)
            else:
                admit.append(req)
            batch.append(req)

    # Apply residency changes: evictions first so swap-ins have room.
    for req in evict:
        inst.do_swap_out(req, now)
    for req in swap_in:
        inst.do_swap_in(req, now)
    for req in admit:
        inst.do_allocate(req, now)

    # Park everything resident-but-unbatched.
    batch_set = set(id(r) for r in batch)
    for req in keep_resident:
        if id(req) not in batch_set and req.state == ReqState.RUNNING:
            req.set_state(ReqState.QUEUED, now)

    if not batch:
        return StepPlan(StepKind.IDLE)

    # vLLM runs pending prefills with priority over decode.
    prefills: list[Request] = []
    prefill_budget = cfg.max_prefill_tokens
    for req in batch:
        if not req.prefill_done and req.prompt_len <= prefill_budget:
            prefills.append(req)
            prefill_budget -= req.prompt_len
    if prefills:
        return StepPlan(
            StepKind.PREFILL,
            prefills,
            prefill_tokens=sum(r.prompt_len for r in prefills),
        )

    decodes = [r for r in batch if r.prefill_done]
    if not decodes:
        return StepPlan(StepKind.IDLE)
    plan = StepPlan(StepKind.DECODE, decodes)
    plan.prepare_decode(pool.block_size)
    return plan
