"""Campaign execution: one driver, in-process or on forked shards.

:class:`CampaignRunner` is the single driver behind every measurement
campaign.  It owns the paper's per-run seeding discipline (delegated to
:class:`~repro.harness.campaign.CampaignConfig`: every run ``r`` derives
an independent platform seed and workload-input seed from the campaign's
base seed) and executes any :class:`~repro.api.workload.Workload` from
three parts:

* **one block executor** runs an index block under the resolved
  backend — ``execute_one`` per run on ``"scalar"``, one
  :func:`~repro.api.backend.execute_batch_indices` call on
  ``"batch"`` — and derives the block size: one run on scalar,
  ``max(16, policy.step)`` runs for an adaptive batch campaign, and
  the whole index set for a fixed-budget batch campaign (so the default
  campaign stays one vector-engine call);
* **one record merge** counts progress, accepts records in any arrival
  order and replays the contiguous run-index prefix through an optional
  :class:`~repro.core.convergence.CampaignConvergence`; a fixed-budget
  campaign is simply one without a tracker;
* **two feeders** hand index blocks to the executor: in-process in
  index order, or on ``shards`` forked workers, each owning the strided
  index set ``shard_id, shard_id + shards, ...`` and streaming every
  record back to the parent as it completes.

Determinism argument: per-run seeds depend only on ``(base_seed,
run_index)`` and ``Workload.execute`` fully resets the platform, so a
run's observation is independent of which process executes it, in which
block, and of every other run.  The merge sorts by run index, hence
serial and sharded campaigns are bit-identical — verified by the
shard-determinism tests.

**Adaptive campaigns** (``convergence=ConvergencePolicy(...)``): the
campaign halts once the MBPTA convergence criterion holds, with
``config.runs`` as the cap.  The stopping decision is a pure function
of the records in index order — the tracker only ever sees the
contiguous prefix — so where the records were measured never changes
it.  Feeders check the stop between blocks (forked shards through a
shared event), so each feeder overshoots the stopping point by at most
one block, and the merge discards every record at or beyond it: the
surviving record set is bit-identical to a serial adaptive campaign.

Parallelism uses the ``fork`` start method (workloads hold linked
program images with closures that do not pickle; forked children inherit
them for free).  Where ``fork`` is unavailable the runner silently
degrades to the in-process feeder — results are identical either way.
A shard whose workload raises, or whose process dies, fails the whole
campaign with a :class:`RuntimeError` naming the shard.

**Execution backends** (``backend="scalar"|"batch"|"auto"``): runs whose
workload describes them as trace segments (``Workload.plan_batch``) can
execute on the vectorized engines — :mod:`repro.platform.batch` for
single-core plans, :mod:`repro.platform.batch_concurrent` for
co-scheduled contention scenarios — bit-identical to the scalar
interpreter, so backend selection never changes an observation.
``"auto"`` (the default) batches only blocks (and co-scheduled groups)
large enough to amortize the vector dispatch overhead and falls back to
scalar everywhere else (unsupported configurations, missing numpy);
``backend="batch"`` is strict: a campaign or run group the engines
cannot describe raises with the engine's reason instead of silently
degrading.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as pyqueue
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

if TYPE_CHECKING:
    from .requests import CampaignRequest

from ..core.convergence import CampaignConvergence, ConvergencePolicy
from ..harness.campaign import CampaignConfig, CampaignResult
from ..harness.measurements import PathSamples
from ..harness.records import RunRecord
from ..platform.soc import Platform
from .backend import (
    AUTO_MIN_GROUP,
    execute_batch_indices,
    execute_one,
    pin_worker_threads,
    resolve_backend,
    validate_backend,
)
from .workload import Workload

__all__ = ["CampaignRunner"]

Progress = Callable[[int, int], None]
Emit = Callable[[RunRecord], None]

#: Adaptive batch campaigns execute in index blocks of at least this
#: many runs between convergence re-checks; overshoot past the stopping
#: point is discarded, so the block size never changes the result.
_MIN_ADAPTIVE_BLOCK = 16


class _BlockExecutor:
    """Runs index blocks of one campaign under its resolved backend.

    The only place the backend is consulted: ``min_group`` and
    ``strict`` follow the *requested* backend (an explicit ``"batch"``
    forces the engine on any group size and fails fast), and the block
    size follows the resolved one.
    """

    def __init__(
        self,
        workload: Workload,
        platform: Platform,
        config: CampaignConfig,
        requested: str,
        convergence: Optional[ConvergencePolicy],
    ) -> None:
        self.workload = workload
        self.platform = platform
        self.config = config
        self.backend = resolve_backend(requested, workload, platform)
        self.strict = requested == "batch"
        self.min_group = 1 if self.strict else AUTO_MIN_GROUP
        if self.backend != "batch":
            self.block = 1
        elif convergence is not None:
            self.block = max(_MIN_ADAPTIVE_BLOCK, convergence.step)
        else:
            self.block = config.runs

    def blocks(self, indices: range) -> Iterator[range]:
        """``indices`` cut into consecutive blocks of this campaign's size."""
        for start in range(0, len(indices), self.block):
            yield indices[start:start + self.block]

    def __call__(self, indices: Sequence[int], emit: Emit) -> None:
        """Execute ``indices``, handing each record to ``emit``."""
        if self.backend == "batch":
            execute_batch_indices(
                self.workload, self.platform, self.config, indices, emit,
                self.min_group, self.strict,
            )
            return
        for run_index in indices:
            emit(
                execute_one(
                    self.workload, self.platform, self.config, run_index
                )
            )


class _RecordMerge:
    """Collects a campaign's records in any arrival order.

    Counts progress per arrived record, and — for adaptive campaigns —
    replays the contiguous run-index prefix through ``tracker``,
    exactly the decision sequence of a serial scalar campaign.
    ``stop_at`` is the first index beyond the stopping run once the
    tracker converges.
    """

    def __init__(
        self,
        total: int,
        progress: Optional[Progress],
        tracker: Optional[CampaignConvergence],
    ) -> None:
        self.total = total
        self.progress = progress
        self.tracker = tracker
        self.records: List[RunRecord] = []
        self.stop_at: Optional[int] = None
        self._pending: Dict[int, RunRecord] = {}
        self._next_index = 0

    @property
    def stopped(self) -> bool:
        return self.stop_at is not None

    def add(self, record: RunRecord) -> None:
        self.records.append(record)
        if self.progress is not None:
            self.progress(len(self.records), self.total)
        if self.tracker is None or self.stop_at is not None:
            return
        self._pending[record.index] = record
        while self._next_index in self._pending:
            ready = self._pending.pop(self._next_index)
            self._next_index += 1
            if self.tracker.observe(ready.path, ready.cycles):
                self.stop_at = self._next_index
                return

    def kept(self) -> List[RunRecord]:
        """The surviving records (below the stopping point) by index."""
        kept = [
            record for record in self.records
            if self.stop_at is None or record.index < self.stop_at
        ]
        kept.sort(key=lambda record: record.index)
        return kept


def _feed_in_process(
    execute: _BlockExecutor, merge: _RecordMerge, runs: int
) -> None:
    """Execute ``range(runs)`` block by block in this process."""
    for block in execute.blocks(range(runs)):
        if merge.stopped:
            return
        execute(block, merge.add)


def _feed_forked(
    execute: _BlockExecutor, merge: _RecordMerge, runs: int, shards: int
) -> None:
    """Execute ``range(runs)`` on ``shards`` forked workers.

    Shard ``s`` runs the strided indices ``s, s + shards, ...`` block by
    block, streaming each record to the parent; the parent merges them
    and sets the stop event once the merge has stopped.  A worker that
    raises reports its error; a worker killed by a signal/OOM/exit never
    reports, so queue timeouts scan for dead workers.  Either fails the
    campaign at once and terminates the remaining workers.
    """
    ctx = mp.get_context("fork")
    messages = ctx.Queue()
    stop = ctx.Event()

    def shard_body(shard_id: int) -> None:
        pin_worker_threads()

        def emit(record: RunRecord) -> None:
            messages.put(("record", shard_id, record))

        try:
            for block in execute.blocks(range(shard_id, runs, shards)):
                if stop.is_set():
                    break
                execute(block, emit)
            messages.put(("done", shard_id, None))
        except BaseException as exc:  # surface the failure in the parent
            messages.put(("done", shard_id, repr(exc)))

    workers = [
        ctx.Process(target=shard_body, args=(shard_id,))
        for shard_id in range(shards)
    ]
    for worker in workers:
        worker.start()
    finished: Set[int] = set()
    errors: List[str] = []
    try:
        while len(finished) < shards and not errors:
            try:
                kind, shard_id, payload = messages.get(timeout=1.0)
            except pyqueue.Empty:
                errors.extend(
                    f"shard {shard_id}: worker died with exit code "
                    f"{worker.exitcode}"
                    for shard_id, worker in enumerate(workers)
                    if shard_id not in finished
                    and worker.exitcode not in (0, None)
                )
                continue
            if kind == "record":
                merge.add(payload)
                if merge.stopped:
                    stop.set()
            elif payload is None:
                finished.add(shard_id)
            else:
                errors.append(f"shard {shard_id}: {payload}")
    finally:
        stop.set()
        for worker in workers:
            if len(finished) < shards:
                worker.terminate()
            worker.join()
        messages.close()
    if errors:
        raise RuntimeError("campaign shard(s) failed: " + "; ".join(errors))


class CampaignRunner:
    """Execute a workload campaign, in-process or on forked shards.

    Every campaign — fixed-budget or adaptive, serial or sharded, scalar
    or batch — runs through the same block executor and record merge
    (see the module docstring); only the feeder differs.

    Parameters
    ----------
    config:
        Run count, base seed and input-variation mode.
    shards:
        Worker processes; 1 (default) runs in-process.  Sharded and
        serial campaigns produce identical results.
    backend:
        ``"scalar"``, ``"batch"`` or ``"auto"`` (default).  The batch
        backend executes runs together on the vectorized engine
        (single-core segments or co-scheduled contention scenarios) —
        bit-identical to scalar, so the choice never changes an
        observation; ``auto`` batches only where it pays.
        ``"batch"`` forces the engine even for tiny groups (useful for
        parity testing) and fails fast with the engine's reason when
        the workload or platform cannot batch.
    """

    def __init__(
        self,
        config: CampaignConfig = CampaignConfig(),
        shards: int = 1,
        backend: str = "auto",
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config
        self.shards = shards
        self.backend = validate_backend(backend)

    # ------------------------------------------------------------------
    @classmethod
    def from_request(cls, request: "CampaignRequest") -> "CampaignRunner":
        """The runner a :class:`~repro.api.requests.CampaignRequest`
        describes (run budget, seeds, sharding, backend)."""
        return cls(
            request.campaign_config(),
            shards=request.shards,
            backend=request.backend,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload,
        platform: Platform,
        progress: Optional[Progress] = None,
        convergence: Optional[ConvergencePolicy] = None,
    ) -> CampaignResult:
        """Measure ``workload`` on ``platform``.

        With ``convergence=None`` (default) exactly ``config.runs``
        executions are measured.  With a
        :class:`~repro.core.convergence.ConvergencePolicy` the campaign
        is **adaptive**: it halts at the first run where the per-path
        pWCET estimates satisfy the MBPTA stopping rule, with
        ``config.runs`` as the cap; the result then carries
        ``runs_requested`` and a full convergence summary.

        ``progress(done, total)`` is invoked after every completed run,
        in completion order; an adaptive campaign also counts the runs
        its last blocks measured past the stopping point.
        """
        cfg = self.config
        workload.prepare(platform)
        execute = _BlockExecutor(
            workload, platform, cfg, self.backend, convergence
        )
        tracker = (
            CampaignConvergence(convergence)
            if convergence is not None else None
        )
        merge = _RecordMerge(cfg.runs, progress, tracker)
        shards = min(self.shards, cfg.runs)
        if shards > 1 and "fork" in mp.get_all_start_methods():
            _feed_forked(execute, merge, cfg.runs, shards)
        else:
            _feed_in_process(execute, merge, cfg.runs)
        records = merge.kept()
        label = f"{workload.name}@{platform.name}"
        samples = PathSamples(label=label)
        for record in records:
            samples.add(record.path, record.cycles)
        return CampaignResult(
            label=label,
            samples=samples,
            run_details=records,
            runs_requested=cfg.runs if tracker is not None else None,
            convergence=(
                tracker.summary(requested=cfg.runs)
                if tracker is not None else None
            ),
            backend=execute.backend,
        )
