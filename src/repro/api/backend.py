"""Execution backends: scalar interpretation vs vectorized batching.

A campaign's inner loop can run two ways:

* ``"scalar"`` — the historical path: every run interprets its trace
  through :class:`~repro.platform.core.CoreStepper`, one instruction
  at a time.
* ``"batch"`` — the runs of an index block execute together on the
  vectorized engine (:mod:`repro.platform.batch`), which advances all
  replications with numpy array state, one segment position at a
  time: segments every run shares advance on scalar addresses, and
  varied-input segments are packed by event skeleton with per-run
  addresses.  Bit-identical to the scalar path (same seeds, same PRNG
  draw sequences, same cycle counts), typically an order of magnitude
  faster when blocks are large.
* ``"auto"`` (the default) — batch where it pays: blocks smaller than
  :data:`AUTO_MIN_GROUP` runs, workloads without a batch description
  and platforms the engine does not vectorize all fall back to the
  scalar loop.  Because both paths are bit-identical, auto-selection
  never changes a single observation.  An **explicit** ``"batch"``
  request, by contrast, fails fast with the engine's
  ``batch_unsupported_reason`` when the campaign cannot batch — a
  parity/benchmark harness asking for the vector engine should not
  silently measure the interpreter.

A workload opts in by implementing the optional hook
``plan_batch(platform, run_index, run_seed, input_seed) ->
Optional[BatchPlan]``: it describes the run as a tuple of trace
segments plus a ``finalize`` callback that converts the measured
per-segment cycles back into the exact
:class:`~repro.api.workload.RunObservation` its ``execute`` would have
produced.  Single-core plans batch whatever their traces: the engine
takes one segment list per run.  ``group_key`` matters only for
co-scheduled plans (below).

Co-scheduled (multicore contention) runs batch too: a plan whose
``finalize_concurrent`` is set describes one analysis trace plus
``co_runners`` on the other cores; runs whose plans share ``group_key``
execute as one group on the co-scheduled vector engine
(:mod:`repro.platform.batch_concurrent`), which advances every
replication's whole core set in lockstep and returns per-run
:class:`~repro.platform.soc.ConcurrentRunResult`\\ s — again
bit-identical to the scalar interleave.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..harness.records import RunRecord
from ..platform.soc import ConcurrentRunResult, Platform

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..harness.campaign import CampaignConfig
    from ..platform.trace import Trace
    from .workload import RunObservation, Workload

__all__ = [
    "AUTO_MIN_GROUP",
    "BACKENDS",
    "BatchMeasurement",
    "BatchPlan",
    "campaign_batch_unsupported_reason",
    "execute_batch_indices",
    "execute_one",
    "pin_worker_threads",
    "resolve_backend",
    "validate_backend",
]

#: Accepted ``backend=`` spellings.
BACKENDS = ("scalar", "batch", "auto")

#: Under ``backend="auto"``, index blocks (and co-scheduled groups)
#: smaller than this run scalar: the numpy dispatch overhead of the
#: vector engine only amortizes once several replications advance per
#: event.
AUTO_MIN_GROUP = 8


def validate_backend(backend: str) -> str:
    """Reject unknown backend names at construction time."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def campaign_batch_unsupported_reason(
    workload: "Workload", platform: Platform
) -> Optional[str]:
    """Why this (workload, platform) campaign cannot batch (None = it can).

    Consults the workload's optional ``batch_unsupported_reason``
    probe when present (contention scenarios use it to run the
    co-scheduled engine's checks over every scheduled core); otherwise
    the single-core engine's platform check applies.
    """
    if getattr(workload, "plan_batch", None) is None:
        name = getattr(workload, "name", type(workload).__name__)
        return (
            f"workload {name!r} has no batch description "
            "(no plan_batch hook)"
        )
    probe = getattr(workload, "batch_unsupported_reason", None)
    if probe is not None:
        reason: Optional[str] = probe(platform)
        return reason
    from ..platform.batch import batch_unsupported_reason

    return batch_unsupported_reason(platform)


def resolve_backend(
    backend: str, workload: "Workload", platform: Platform
) -> str:
    """The backend this campaign will actually use (``scalar``/``batch``).

    ``batch`` and ``auto`` both require the workload to describe its
    runs via ``plan_batch`` and the platform to be vectorizable.  When
    either is missing, ``auto`` silently runs scalar — results are
    identical either way, so the fallback is safe by construction —
    while an **explicit** ``"batch"`` request raises :class:`ValueError`
    carrying the unsupported reason (a caller that demands the vector
    engine must not silently measure the interpreter instead).
    """
    validate_backend(backend)
    if backend == "scalar":
        return "scalar"
    reason = campaign_batch_unsupported_reason(workload, platform)
    if reason is None:
        return "batch"
    if backend == "batch":
        raise ValueError(
            f"backend='batch' requested but the campaign cannot batch: "
            f"{reason} (use backend='auto' for automatic scalar fallback)"
        )
    return "scalar"


@dataclass(frozen=True)
class BatchMeasurement:
    """Measured outcome of one run inside a batched group.

    ``segment_cycles`` holds the run's per-segment cycle counts (the
    cycle clock restarts per segment, matching the scalar multi-job
    protocol); ``instructions`` is the trace-pure total instruction
    count of all segments.
    """

    segment_cycles: Tuple[int, ...]
    instructions: int

    @property
    def total_cycles(self) -> int:
        """All segments summed — a whole-run execution time."""
        return sum(self.segment_cycles)


@dataclass(frozen=True)
class BatchPlan:
    """One run reduced to batchable trace segments.

    Single-core plans (``finalize`` set) batch with every other
    single-core plan of their index block on the same ``core_id``,
    whatever their segments; equal segments are best passed as the same
    trace objects, which the engine advances together.  ``group_key``
    matters only for co-scheduled plans: two such plans with equal
    ``group_key`` MUST carry identical traces and ``co_runners`` (the
    workload's contract), and the runner batches them into one
    vectorized pass.  ``finalize`` converts the measurement back into
    exactly the :class:`RunObservation` the workload's ``execute``
    would have returned for the same seeds.

    **Co-scheduled plans** set ``finalize_concurrent`` instead: the run
    is then one analysis trace (``segments[0]`` on ``core_id``) plus
    ``co_runners`` — ``(core_id, trace)`` pairs for the other cores —
    and the group executes on the co-scheduled vector engine, which
    hands ``finalize_concurrent`` the run's full
    :class:`~repro.platform.soc.ConcurrentRunResult` (per-core results,
    bus/memory breakdown) to rebuild the observation from.  Exactly one
    of the two finalizers must be set.
    """

    segments: Tuple["Trace", ...]
    group_key: Hashable
    finalize: Optional[Callable[[BatchMeasurement], "RunObservation"]] = None
    core_id: int = 0
    co_runners: Tuple[Tuple[int, "Trace"], ...] = ()
    loop_co_runners: bool = True
    finalize_concurrent: Optional[
        Callable[[ConcurrentRunResult], "RunObservation"]
    ] = None

    def __post_init__(self) -> None:
        if (self.finalize is None) == (self.finalize_concurrent is None):
            raise ValueError(
                "exactly one of finalize/finalize_concurrent must be set"
            )
        if self.finalize_concurrent is not None and len(self.segments) != 1:
            raise ValueError(
                "a co-scheduled plan carries exactly one analysis trace"
            )

    @property
    def concurrent(self) -> bool:
        """Whether this plan co-schedules cores (vs. trace segments)."""
        return self.finalize_concurrent is not None

    def traces_by_core(self) -> Dict[int, "Trace"]:
        """The co-scheduled core map of a concurrent plan."""
        traces = {self.core_id: self.segments[0]}
        for core_id, trace in self.co_runners:
            traces[core_id] = trace
        return traces


def execute_one(
    workload: "Workload",
    platform: Platform,
    config: "CampaignConfig",
    run_index: int,
) -> RunRecord:
    """Execute run ``run_index`` through the scalar interpreter."""
    run_seed = config.platform_seed(run_index)
    input_seed = config.input_seed(run_index)
    obs = workload.execute(platform, run_seed, input_seed)
    return RunRecord(
        index=run_index,
        cycles=float(obs.cycles),
        path=obs.path,
        platform_seed=run_seed,
        input_seed=input_seed,
        metadata=dict(obs.metadata),
    )


def _measure_plan_scalar(
    platform: Platform, plan: BatchPlan, run_seed: int
) -> BatchMeasurement:
    """Measure one plan through the scalar interpreter.

    Exactly the scalar run protocol — full platform reset, then every
    segment drained by a fresh stepper — so ``plan.finalize`` sees the
    same measurement a scalar ``execute`` would have taken.  Used for
    runs whose trace group is too small to amortize the vector engine:
    their plan is already built, so re-deriving it through
    ``workload.execute`` would only duplicate work.
    """
    platform.reset(run_seed)
    core = platform.cores[plan.core_id]
    segment_cycles = tuple(
        core.execute(segment).cycles for segment in plan.segments
    )
    instructions = sum(len(segment) for segment in plan.segments)
    return BatchMeasurement(
        segment_cycles=segment_cycles, instructions=instructions
    )


def _measure_plan_concurrent_scalar(
    platform: Platform, plan: BatchPlan, run_seed: int
) -> ConcurrentRunResult:
    """Measure one co-scheduled plan through the scalar interleave.

    Exactly the protocol ``Scenario.execute`` follows — the plan
    already carries the assembled core map, so only the co-scheduled
    execution itself remains.
    """
    return platform.run_concurrent(
        plan.traces_by_core(),
        run_seed,
        analysis_core=plan.core_id,
        loop_co_runners=plan.loop_co_runners,
    )


def execute_batch_indices(
    workload: "Workload",
    platform: Platform,
    config: "CampaignConfig",
    indices: Sequence[int],
    emit: Callable[[RunRecord], None],
    min_group: int,
    strict: bool,
) -> None:
    """Execute ``indices`` on the vector engines, handing each record to
    ``emit``.

    Single-core plans are packed per core into one call of the segment
    engine (:func:`~repro.platform.batch.run_batch_segments`) with one
    segment list per run: the engine shares every segment position the
    runs have in common and packs the rest by event skeleton, so runs
    with varied inputs batch too.  Co-scheduled plans are grouped by
    ``group_key`` and each group runs on the co-scheduled engine
    (:func:`~repro.platform.batch_concurrent.run_concurrent_batch`).  A
    block or group below ``min_group`` runs, and one the engine
    rejects, executes its (already-built) plans through the scalar
    interpreter instead; runs without a plan fall back to the
    workload's own ``execute``.  With ``strict=True`` (the explicit
    ``backend="batch"`` contract) an engine rejection raises instead of
    silently degrading.  The emitted record *set* is bit-identical to
    the scalar path in every case; only the emission order differs
    (co-scheduled groups, single-core blocks, then plan-less residue by
    index) — the runner's record merge orders records by index.
    """
    from ..platform import batch as batch_engine
    from ..platform import batch_concurrent as concurrent_engine

    groups: "OrderedDict[Hashable, List[Tuple[int, int, BatchPlan]]]" = (
        OrderedDict()
    )
    blocks: Dict[int, List[Tuple[int, int, BatchPlan]]] = {}
    planless_indices: List[int] = []
    for run_index in indices:
        run_seed = config.platform_seed(run_index)
        input_seed = config.input_seed(run_index)
        plan = workload.plan_batch(platform, run_index, run_seed, input_seed)
        if plan is None:
            planless_indices.append(run_index)
        elif plan.concurrent:
            groups.setdefault(plan.group_key, []).append(
                (run_index, run_seed, plan)
            )
        else:
            blocks.setdefault(plan.core_id, []).append(
                (run_index, run_seed, plan)
            )

    def emit_observation(
        run_index: int, run_seed: int, observation: "RunObservation"
    ) -> None:
        emit(
            RunRecord(
                index=run_index,
                cycles=float(observation.cycles),
                path=observation.path,
                platform_seed=run_seed,
                input_seed=config.input_seed(run_index),
                metadata=dict(observation.metadata),
            )
        )

    def emit_measured(
        run_index: int, run_seed: int, plan: BatchPlan,
        measurement: BatchMeasurement,
    ) -> None:
        assert plan.finalize is not None
        emit_observation(run_index, run_seed, plan.finalize(measurement))

    def emit_concurrent(
        run_index: int, run_seed: int, plan: BatchPlan,
        result: ConcurrentRunResult,
    ) -> None:
        assert plan.finalize_concurrent is not None
        emit_observation(
            run_index, run_seed, plan.finalize_concurrent(result)
        )

    def reject(exc: batch_engine.BatchUnsupported) -> None:
        if strict:
            raise ValueError(
                "backend='batch' requested but a run group cannot batch: "
                f"{exc}"
            ) from exc

    for members in groups.values():
        lead_plan = members[0][2]
        seeds = [member[1] for member in members]
        results: Optional[List[ConcurrentRunResult]] = None
        if len(members) >= min_group:
            try:
                results = concurrent_engine.run_concurrent_batch(
                    platform,
                    lead_plan.traces_by_core(),
                    seeds,
                    analysis_core=lead_plan.core_id,
                    loop_co_runners=lead_plan.loop_co_runners,
                )
            except batch_engine.BatchUnsupported as exc:
                reject(exc)
        if results is not None:
            for (run_index, run_seed, plan), result in zip(members, results):
                emit_concurrent(run_index, run_seed, plan, result)
        else:
            for run_index, run_seed, plan in members:
                emit_concurrent(
                    run_index, run_seed, plan,
                    _measure_plan_concurrent_scalar(platform, plan, run_seed),
                )

    for core_id, members in sorted(blocks.items()):
        outcome = None
        if len(members) >= min_group:
            reason = batch_engine.batch_unsupported_reason(platform, core_id)
            if reason is not None:
                reject(batch_engine.BatchUnsupported(reason))
            else:
                try:
                    outcome = batch_engine.run_batch_segments(
                        platform,
                        [plan.segments for _, _, plan in members],
                        [run_seed for _, run_seed, _ in members],
                        core_id,
                    )
                except batch_engine.BatchUnsupported as exc:
                    reject(exc)
        if outcome is not None:
            for (run_index, run_seed, plan), segment_cycles, result in zip(
                members, outcome.segment_cycles, outcome.results
            ):
                emit_measured(
                    run_index, run_seed, plan,
                    BatchMeasurement(
                        segment_cycles=segment_cycles,
                        instructions=result.instructions,
                    ),
                )
        else:
            for run_index, run_seed, plan in members:
                emit_measured(
                    run_index, run_seed, plan,
                    _measure_plan_scalar(platform, plan, run_seed),
                )
    for run_index in sorted(planless_indices):
        emit(execute_one(workload, platform, config, run_index))


def pin_worker_threads() -> None:
    """Pin threaded-math pools to one thread in a forked shard worker.

    Each shard is already an independent process running its own
    simulation; letting numpy's BLAS/OpenMP pools default to one thread
    *per core* inside every shard multiplies into ``shards x cores``
    runnable threads and wrecks batched-campaign wall times.

    Pool sizes are frozen when the BLAS library first loads, so the
    primary pinning happens in :mod:`repro.platform.batch` *before* its
    numpy import — children forked afterwards inherit the
    single-threaded configuration.  This worker-side re-pin is defense
    in depth: it covers the case where the parent never touched the
    batch module (scalar backend) and the child imports numpy lazily,
    and it is a no-op when the library is already configured.  The
    batch engine is elementwise — it gains nothing from intra-op
    threading either way.
    """
    for variable in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[variable] = "1"
