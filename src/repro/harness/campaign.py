"""MBPTA measurement campaigns.

Implements the paper's experimental protocol:

    "We execute TVCA 3,000 times to collect execution times ...  We
    flush caches, reset the FPGA and reload the executable across
    executions to have the same conditions for each execution.  We also
    set a new seed for each experiment after the binary has been
    reloaded."

:class:`CampaignConfig` owns the per-run seeding discipline — every run
``r`` derives a fresh platform seed and an independent workload input
seed from the campaign's base seed.  Execution itself lives in
:class:`repro.api.runner.CampaignRunner`, which runs any
:class:`repro.api.workload.Workload` serially or in parallel shards and
collects execution times into
:class:`~repro.harness.measurements.PathSamples` keyed by the executed
path (the paper performs per-path analysis).

:class:`MeasurementCampaign` remains as the serial convenience facade:
:meth:`run_tvca` for the case study and :meth:`run_program` for
arbitrary DSL programs, both now thin adapters over the runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from ..platform.prng import derive_seed
from ..platform.soc import Platform
from ..programs.layout import LinkedImage
from ..programs.dsl import Env, Program
from ..workloads.tvca.app import TvcaApplication
from .measurements import ExecutionTimeSample, PathSamples
from .records import RunRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> harness)
    from ..api.requests import CampaignRequest
    from ..api.workload import BatchPlan, PreparedTrace, RunObservation
    from ..core.convergence import CampaignConvergenceSummary, ConvergencePolicy

__all__ = ["CampaignConfig", "CampaignResult", "MeasurementCampaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-level parameters.

    Attributes
    ----------
    runs:
        Number of measured executions (the paper uses 3,000).
    base_seed:
        Root of the per-run seed derivations.
    vary_inputs:
        When False every run replays identical workload inputs, leaving
        platform randomization as the only variation source (useful for
        isolating hardware effects in ablations).
    """

    runs: int = 1000
    base_seed: int = 2017
    vary_inputs: bool = True

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    def platform_seed(self, run_index: int) -> int:
        """Per-run platform randomization seed."""
        return derive_seed(self.base_seed, 1, run_index)

    def input_seed(self, run_index: int) -> int:
        """Per-run workload input seed (constant when vary_inputs=False)."""
        if not self.vary_inputs:
            return derive_seed(self.base_seed, 2, 0)
        return derive_seed(self.base_seed, 2, run_index)


@dataclass
class CampaignResult:
    """Everything one campaign produced.

    ``run_details`` holds one typed :class:`RunRecord` per measured
    execution, sorted by run index — cycles, path, and the exact seeds
    that reproduce the run.

    Adaptive campaigns additionally set ``runs_requested`` (the run cap
    that was asked for) and ``convergence`` (the stopping decision with
    per-path checkpoint histories); fixed-budget campaigns leave both
    ``None``.

    ``backend`` records which execution backend the runner resolved to
    (``"scalar"`` or ``"batch"``) — provenance only: the two backends
    are bit-identical, so it never affects the observations.
    """

    label: str
    samples: PathSamples
    run_details: List[RunRecord] = field(default_factory=list)
    runs_requested: Optional[int] = None
    convergence: Optional["CampaignConvergenceSummary"] = None
    backend: Optional[str] = None

    @property
    def records(self) -> List[RunRecord]:
        """Alias for ``run_details`` under its modern name."""
        return self.run_details

    @property
    def merged(self) -> ExecutionTimeSample:
        """All execution times pooled across paths (collection order)."""
        ordered = ExecutionTimeSample(label=self.label)
        for value, _ in self._ordered_observations():
            ordered.add(value)
        return ordered

    def _ordered_observations(self) -> List[Tuple[float, str]]:
        return [(record.cycles, record.path) for record in self.run_details]

    @property
    def num_runs(self) -> int:
        """Number of measured executions."""
        return len(self.run_details)

    @property
    def runs_used(self) -> int:
        """Alias for :attr:`num_runs` in adaptive-campaign vocabulary."""
        return len(self.run_details)

    @property
    def stopped_early(self) -> bool:
        """Whether an adaptive campaign converged before its cap."""
        return (
            self.runs_requested is not None
            and len(self.run_details) < self.runs_requested
        )


class _IndexedProgramWorkload:
    """Legacy adapter: DSL program whose env comes from the *run index*.

    The old ``run_program(env_fn=...)`` contract keys environments by
    run index rather than input seed.  The runner detects the optional
    ``execute_indexed`` hook and passes the index through, which keeps
    the contract shard-deterministic (the index, unlike execution order,
    is stable across sharding).
    """

    def __init__(
        self,
        program: Program,
        image: LinkedImage,
        env_fn: Optional[Callable[[int], Env]],
        core_id: int,
    ) -> None:
        from ..api.workload import ProgramWorkload

        self.name = program.name
        self._inner = ProgramWorkload(program, image=image, core_id=core_id)
        self._env_fn = env_fn

    def prepare(self, platform: Platform) -> None:
        self._inner.prepare(platform)

    def execute(
        self, platform: Platform, run_seed: int, input_seed: int
    ) -> "RunObservation":
        return self._inner.execute(platform, run_seed, input_seed)

    def execute_indexed(
        self, platform: Platform, run_index: int, run_seed: int, input_seed: int
    ) -> "RunObservation":
        return self._inner._observe(
            platform, self._prepared_indexed(run_index, input_seed), run_seed
        )

    def _prepared_indexed(
        self, run_index: int, input_seed: int
    ) -> "PreparedTrace":
        inner = self._inner
        env_fn = self._env_fn
        if env_fn is not None:
            # Index-keyed environments must not share the seed-keyed
            # trace cache (with vary_inputs=False every run carries the
            # same input seed but a different env) — key by run index.
            inner.env_fn = lambda _seed: env_fn(run_index)
            return inner._prepared(input_seed, cache_key=("idx", run_index))
        return inner._prepared(input_seed)

    def plan_batch(
        self, platform: Platform, run_index: int, run_seed: int, input_seed: int
    ) -> "BatchPlan":
        """Batchable form of :meth:`execute_indexed`.

        Index-keyed environments yield per-run singleton groups (each
        run has its own trace); without an ``env_fn`` the trace is
        constant and the whole campaign shares one group.
        """
        prepared = self._prepared_indexed(run_index, input_seed)
        if self._env_fn is not None:
            group_key = (self.name, self._inner.core_id, "idx", run_index)
        else:
            group_key = (self.name, self._inner.core_id, "<static>")
        return self._inner.batch_plan_for(prepared, group_key)


class MeasurementCampaign:
    """Serial convenience facade over :class:`repro.api.CampaignRunner`.

    ``backend`` selects the execution backend (``"auto"`` default —
    trace-sharing runs batch on the vectorized engine, bit-identically
    to the scalar interpreter).
    """

    def __init__(
        self,
        config: CampaignConfig = CampaignConfig(),
        backend: str = "auto",
    ) -> None:
        self.config = config
        self.backend = backend

    @staticmethod
    def run_request(
        request: "CampaignRequest",
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> CampaignResult:
        """Execute a :class:`~repro.api.requests.CampaignRequest`.

        The unified entry point shared with the CLI and the campaign
        service: the request carries its own campaign config, workload,
        platform, shards and backend, so this ignores the facade's
        constructor state and delegates straight to
        :meth:`~repro.api.runner.CampaignRunner.run_request`.
        """
        from ..api.runner import CampaignRunner

        return CampaignRunner.run_request(request, progress=progress)

    def run_tvca(
        self,
        platform: Platform,
        app: Optional[TvcaApplication] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        convergence: Optional["ConvergencePolicy"] = None,
    ) -> CampaignResult:
        """Measure the TVCA ``config.runs`` times on ``platform``.

        Each run resets/reseeds the platform (done inside
        :meth:`TvcaApplication.run_once`) and draws fresh workload
        inputs.  Observations are grouped by the run's coarse path class.
        ``convergence`` switches to adaptive mode (``config.runs``
        becomes the cap), exactly as in :meth:`CampaignRunner.run`.
        """
        from ..api.runner import CampaignRunner
        from ..api.workload import TvcaWorkload

        workload = TvcaWorkload(app=app) if app is not None else TvcaWorkload()
        runner = CampaignRunner(self.config, backend=self.backend)
        return runner.run(
            workload, platform, progress=progress, convergence=convergence
        )

    def run_program(
        self,
        platform: Platform,
        program: Program,
        image: LinkedImage,
        env_fn: Optional[Callable[[int], Env]] = None,
        core_id: int = 0,
        progress: Optional[Callable[[int, int], None]] = None,
        convergence: Optional["ConvergencePolicy"] = None,
    ) -> CampaignResult:
        """Measure a DSL ``program`` ``config.runs`` times on ``platform``.

        ``env_fn(run_index)`` supplies the input environment per run
        (default: empty).  Observations are grouped by the executed DSL
        path signature.  ``progress(done, total)`` is invoked after each
        run, exactly as in :meth:`run_tvca`.
        """
        from ..api.runner import CampaignRunner

        workload = _IndexedProgramWorkload(program, image, env_fn, core_id)
        runner = CampaignRunner(self.config, backend=self.backend)
        return runner.run(
            workload, platform, progress=progress, convergence=convergence
        )
