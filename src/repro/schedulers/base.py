"""Intra-instance scheduler framework.

All four intra-instance policies in the paper — FCFS (vLLM default), RR,
the infinite-memory oracle and PASCAL's hierarchical queue — reduce to one
mechanism with different *priority keys*:

1. sort the instance's live requests by the policy's key (lower = sooner);
2. walk the order greedily, reserving GPU KV blocks (current footprint plus
   one token of growth) for each request until memory or the batch limit is
   exhausted — **without skipping**: the first request that does not fit
   cuts the prefix, which is exactly what produces head-of-line blocking
   under FCFS and bounded preemption under RR/PASCAL;
3. requests beyond the prefix lose GPU residency (swap to CPU over PCIe),
   requests inside it gain residency (admission or swap-in);
4. if any selected request still needs its prompt processed, the step is a
   prefill step (vLLM runs prefills with priority); otherwise it decodes
   one token for every batched request.

Priority *state* (multilevel ladder position, band) lives on the request;
policies are stateless apart from a sequence counter, which keeps the whole
zoo small and uniformly testable.

Batch formation runs on every reform (each arrival, completion, phase
flip or quantum expiry), so :meth:`IntraScheduler.form_batch` is the
simulator's hot loop.  One pass snapshots the live requests together
with the GPU blocks they hold, the policy key sorts them, and one walk
over the sorted order reserves blocks, with the block arithmetic
inline, and collects the evictions, swap-ins, admissions and parked
requests as it goes.  Residency comes from the
``kv_tokens``/``on_gpu`` fields the instance's KV pool keeps in sync, so
the walk makes no pool call per request.  At about 220 resident requests
the cost is the per-request walk, not the sort.  The multi-pass
formulation this replaced lives on in ``tests/reference_former.py`` as
the oracle the walk is property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import TYPE_CHECKING

from repro.workload.request import ReqState, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.instance import ServingInstance

_FINISHED = ReqState.FINISHED
_RUNNING = ReqState.RUNNING


class StepKind(Enum):
    IDLE = auto()
    PREFILL = auto()
    DECODE = auto()


@dataclass
class StepPlan:
    """What the instance executes next.

    A decode plan carries *incremental* bookkeeping so the per-step hot
    loop never re-derives batch aggregates: ``kv_total`` is the batch's
    summed KV footprint (advanced by ``batch_size`` per decode step) and
    ``crossing_counts[s % block_size]`` is the number of requests whose
    cache crosses a block boundary on the plan's ``s``-th growth step —
    valid for the plan's whole life because a reused decode plan grows
    every member by exactly one token per step.  ``steps_taken`` counts
    growth steps applied under this plan.
    """

    kind: StepKind
    requests: list[Request] = field(default_factory=list)
    prefill_tokens: int = 0
    kv_total: int = 0
    crossing_counts: list[int] = field(default_factory=list)
    steps_taken: int = 0

    @property
    def batch_size(self) -> int:
        return len(self.requests)

    def prepare_decode(self, block_size: int) -> None:
        """Snapshot the decode aggregates from the batch's current state."""
        self.kv_total = sum(r.kv_tokens for r in self.requests)
        counts = [0] * block_size
        for r in self.requests:
            counts[-r.kv_tokens % block_size] += 1
        self.crossing_counts = counts
        self.steps_taken = 0


class IntraScheduler:
    """Base policy: subclasses define the priority key and the quantum."""

    name = "base"

    #: Token quantum; None disables time-sharing (FCFS / oracle).
    quantum_tokens: int | None = None

    def __init__(self) -> None:
        self._seq = 0

    # ------------------------------------------------------------------
    # policy surface
    # ------------------------------------------------------------------
    def priority_key(self, req: Request) -> tuple:
        """Sort key; lower sorts earlier (= scheduled sooner)."""
        raise NotImplementedError

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # lifecycle hooks (called by the instance / cluster)
    # ------------------------------------------------------------------
    def on_admit(self, req: Request, now: float) -> None:
        """A request was routed to this instance (new or migrated in)."""
        req.level = 0
        req.quantum_used = 0
        req.enqueue_seq = self.next_seq()

    def on_quantum_expired(self, req: Request, now: float) -> None:
        """The request consumed its token quantum: lower its priority."""
        req.level += 1
        req.quantum_used = 0
        req.enqueue_seq = self.next_seq()

    def on_phase_transition_local(self, req: Request, now: float) -> None:
        """The request entered answering and stays on this instance."""

    def refresh(self, requests: list[Request], now: float) -> None:
        """Pre-sort hook (PASCAL uses it for conditional demotion)."""

    # ------------------------------------------------------------------
    # batch formation
    # ------------------------------------------------------------------
    def form_batch(self, inst: "ServingInstance", now: float) -> StepPlan:
        """Recompute GPU residency and the next step's batch.

        Residency is read from ``req.on_gpu`` / ``req.kv_tokens``, which
        the instance's :class:`~repro.memory.blocks.KVPool` keeps in sync
        for every request it holds (an unheld request reads
        ``(0, False)``; ``ServingInstance.check_invariants`` enforces
        both).  Subclasses change the priority key, never this method.
        """
        pool = inst.pool
        cfg = inst.config.scheduler
        block_size = pool.block_size
        # Snapshot the live requests and, in the same pass, the GPU blocks
        # they hold.  Blocks pinned by requests that are no longer
        # schedulable here (KV caches mid-migration stay allocated until
        # the copy lands) are off-limits for this plan.  Block counts here
        # and in the walk are ``KVPool.blocks_for`` (ceiling division by
        # the block size) written inline: this loop runs per request on
        # every reform.
        live: list[Request] = []
        resident_blocks = 0
        for req in inst.requests:
            if req.state is _FINISHED:
                continue
            live.append(req)
            if req.on_gpu:
                resident_blocks += -(-req.kv_tokens // block_size)
        self.refresh(live, now)
        live.sort(key=self.priority_key)

        capacity = (
            pool.gpu_capacity_blocks - pool.gpu_used_blocks + resident_blocks
        )
        room = cfg.max_batch_size  # execution slots still free
        planned_blocks = 0
        batch: list[Request] = []
        unprefilled: list[Request] = []  # batched, prompt not yet run
        park: list[Request] = []
        swap_in: list[Request] = []
        admit: list[Request] = []
        evict: list[Request] = []
        stop_admission = False

        for req in live:
            if req.on_gpu:
                # A request given an execution slot reserves one token of
                # growth; one without a slot stays resident (parked) if
                # its current footprint still fits.
                need = -(-(req.kv_tokens + (room > 0)) // block_size)
                if planned_blocks + need > capacity:
                    evict.append(req)
                    continue
                planned_blocks += need
                if room <= 0:
                    if req.state is _RUNNING:
                        park.append(req)
                    continue
            else:
                if stop_admission or room <= 0:
                    # No execution slot, or a higher-priority request
                    # already failed to fit: don't move memory for it.
                    continue
                held = req.kv_tokens  # swapped out to CPU when non-zero
                need = -(-((held or req.full_kv_tokens) + 1) // block_size)
                if planned_blocks + need > capacity:
                    # Head-of-line: no lower-priority request may leapfrog.
                    stop_admission = True
                    continue
                planned_blocks += need
                if held:
                    swap_in.append(req)
                else:
                    admit.append(req)
            batch.append(req)
            room -= 1
            if not req.prefill_done:
                unprefilled.append(req)

        # Apply residency changes: evictions first so swap-ins have room.
        for req in evict:
            inst.do_swap_out(req, now)
        for req in swap_in:
            inst.do_swap_in(req, now)
        for req in admit:
            inst.do_allocate(req, now)
        # Park everything resident-but-unbatched.
        for req in park:
            req.set_state(ReqState.QUEUED, now)

        if not batch:
            return StepPlan(StepKind.IDLE)

        # vLLM runs pending prefills with priority over decode.  Allocation
        # may have completed a prompt (``skip_prefill``), hence the
        # re-check; ``unprefilled`` keeps batch order.
        prefills: list[Request] = []
        prefill_budget = cfg.max_prefill_tokens
        for req in unprefilled:
            if not req.prefill_done and req.prompt_len <= prefill_budget:
                prefills.append(req)
                prefill_budget -= req.prompt_len
        if prefills:
            return StepPlan(
                StepKind.PREFILL,
                prefills,
                prefill_tokens=sum(r.prompt_len for r in prefills),
            )

        if any(not r.prefill_done for r in unprefilled):
            batch = [r for r in batch if r.prefill_done]
            if not batch:
                return StepPlan(StepKind.IDLE)
        plan = StepPlan(StepKind.DECODE, batch)
        plan.prepare_decode(block_size)
        return plan
