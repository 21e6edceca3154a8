"""The TVCA application driver: closed loop of plant, controller and code.

One *measured execution* follows the paper's protocol: the platform is
fully reset and reseeded, then the application runs a fixed number of
control hyperperiods bare-metal.  Within one hyperperiod the fixed-
priority schedule releases the sensor-acquisition task twice (it runs at
twice the actuator rate) and each actuator task once; jobs execute back
to back on the core (the task set is schedulable with large slack, so no
preemption occurs — asserted via the timeline simulator).

For every job the driver

1. advances the *Python-level* controller against the plant to obtain
   the real numbers of this control step,
2. fills the DSL input environment (branch outcomes, loop trip counts,
   table indices, FDIV/FSQRT operand classes) from those numbers,
3. expands the task program into an instruction trace and executes it on
   the platform core, accumulating cycles.

The run's **path identifier** groups executions for per-path MBPTA.  Two
granularities are produced: the exact concatenated DSL signature (which
can be very fine) and a coarse *path class* — saturation/fault flags and
the maximum gain-schedule depth per axis — matching the handful of
program-level paths a tool would distinguish on the real TVCA.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ...platform.soc import Platform
from ...platform.prng import derive_seed
from ...platform.trace import Trace
from ...programs.compiler import PathSignature, generate_trace
from ...programs.layout import LayoutConfig, LinkedImage, link
from ...programs.dsl import Block, Call, Program, alu
from .controller import (
    AxisController,
    PidConfig,
    SensorProcessor,
)
from .plant import PlantConfig, TvcPlant
from .scheduler import Job, TaskSpec, build_jobs, simulate_timeline
from .tasks import (
    DEFAULT_AERO_ELEMENTS,
    DEFAULT_AERO_WINDOW,
    DEFAULT_ESTIMATOR_DIM,
    build_actuator_task,
    build_math_helper,
    build_sensor_task,
)

__all__ = ["TvcaConfig", "TvcaRunResult", "TvcaRunPlan", "TvcaApplication"]

#: Bound on the job traces one :class:`TvcaApplication` memoizes.  The
#: four sensor jobs of a hyperperiod pair repeat across every run, the
#: actuator jobs mostly differ; the bound caps memory on long
#: varied-input campaigns while the least-recently-used order keeps the
#: shared jobs resident.
JOB_TRACE_MEMO_SIZE = 512

_JobTrace = Tuple[Trace, PathSignature]




@dataclass(frozen=True)
class TvcaConfig:
    """Application-level configuration.

    Attributes
    ----------
    clock_hz:
        Platform clock (used to convert periods to cycles).
    actuator_period_s:
        Period of the two actuator tasks; the sensor task runs at twice
        this rate.  One hyperperiod = one actuator period.
    hyperperiods:
        Control hyperperiods per measured execution.
    layout:
        Link layout; sweeping ``layout.layout_offset`` emulates the
        memory-layout sensitivity of the DET platform.
    plant / pid:
        Physical model and controller gains.
    estimator_dim / aero_elements / aero_window:
        Working-set sizes of the generated code (defaults give the
        measured configuration's cache pressure; tests shrink them).
    """

    clock_hz: float = 50e6
    actuator_period_s: float = 0.020
    hyperperiods: int = 2
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    pid: PidConfig = field(default_factory=PidConfig)
    estimator_dim: int = DEFAULT_ESTIMATOR_DIM
    aero_elements: int = DEFAULT_AERO_ELEMENTS
    aero_window: int = DEFAULT_AERO_WINDOW

    @property
    def actuator_period_cycles(self) -> int:
        """Actuator period in platform cycles."""
        return int(self.actuator_period_s * self.clock_hz)

    @property
    def sensor_period_cycles(self) -> int:
        """Sensor period in platform cycles (half the actuator period)."""
        return self.actuator_period_cycles // 2


@dataclass(frozen=True)
class TvcaRunResult:
    """Outcome of one measured TVCA execution.

    ``path_class`` is the *structural* path identifier used for
    per-path MBPTA grouping: it distinguishes executions whose code
    shape differs materially (the sensor fault-handling path).  The
    finer input-driven variation (saturation flags, gain-schedule
    depths) changes only a handful of instructions; it is recorded in
    ``input_profile`` and, exactly, in ``full_signature``.
    """

    cycles: int
    path_class: str
    input_profile: str
    full_signature: str
    per_task_cycles: Dict[str, int]
    per_task_max_job_cycles: Dict[str, int]
    max_response_cycles: int
    deadlines_met: bool
    instructions: int


@dataclass(frozen=True)
class TvcaRunPlan:
    """The platform-independent half of one measured TVCA execution.

    The closed-loop control mathematics (plant, sensor processing, PID
    updates) is pure Python and depends only on the input seed — never
    on platform timing — so the complete sequence of per-job instruction
    traces can be built ahead of execution.  :meth:`TvcaApplication.
    run_once` executes the plan job by job under the paper's protocol;
    contention scenarios concatenate it into a single trace and
    co-schedule it against opponents.
    """

    jobs: Tuple["Job", ...]
    traces: Tuple[Trace, ...]
    signatures: Tuple[str, ...]
    path_class: str
    input_profile: str

    @property
    def full_signature(self) -> str:
        """Exact concatenated DSL signature of the whole run."""
        return "|".join(self.signatures)

    def concatenated_trace(self) -> Trace:
        """All job traces back to back, in release order — the form a
        co-scheduled (contention-scenario) run executes."""
        merged = Trace()
        for trace in self.traces:
            merged.extend(trace)
        return merged


class TvcaApplication:
    """The complete TVCA case study, ready to run on a platform."""

    TASK_SENSOR = "sensor_acquisition"
    TASK_ACT_X = "actuator_control_x"
    TASK_ACT_Y = "actuator_control_y"

    def __init__(self, config: TvcaConfig = TvcaConfig()) -> None:
        self.config = config
        self._math_helper = build_math_helper()
        self._sensor_program = build_sensor_task(estimator_dim=config.estimator_dim)
        self._act_x_program = build_actuator_task(
            "x",
            self._math_helper,
            aero_elements=config.aero_elements,
            aero_window=config.aero_window,
        )
        self._act_y_program = build_actuator_task(
            "y",
            self._math_helper,
            aero_elements=config.aero_elements,
            aero_window=config.aero_window,
        )
        # A synthetic main ties the three tasks into one linked image so
        # code and data of all tasks share the address space, as in the
        # real single binary.
        self._main_program = Program(
            name="tvca_main",
            body=[
                Block([alu(2)]),
                Call(self._sensor_program),
                Call(self._act_x_program),
                Call(self._act_y_program),
            ],
        )
        self.image: LinkedImage = link(self._main_program, config.layout)
        period = config.actuator_period_cycles
        self.tasks: List[TaskSpec] = [
            TaskSpec(self.TASK_SENSOR, period=period // 2, priority=0),
            TaskSpec(self.TASK_ACT_X, period=period, priority=1),
            TaskSpec(self.TASK_ACT_Y, period=period, priority=2),
        ]
        self._programs: Dict[str, Program] = {
            self.TASK_SENSOR: self._sensor_program,
            self.TASK_ACT_X: self._act_x_program,
            self.TASK_ACT_Y: self._act_y_program,
        }
        self._job_traces: "OrderedDict[Hashable, _JobTrace]" = OrderedDict()

    # ------------------------------------------------------------------
    # Environment construction
    # ------------------------------------------------------------------
    def _aero_index(self, error: float) -> int:
        """Map an attitude error to an aero-window base index."""
        top = self.config.aero_elements - self.config.aero_window - 1
        scale = abs(error) / self.config.plant.max_deflection
        return min(int(scale * top), top)

    # ------------------------------------------------------------------
    # Trace planning (platform-independent)
    # ------------------------------------------------------------------
    def _job_trace(self, name: str, env: Dict[str, Any]) -> _JobTrace:
        """The trace and signature of one job of task ``name``, memoized.

        A job trace is a pure function of ``(task, env)``, so equal jobs
        of any runs return the *same* :class:`Trace` object.  Shared
        traces are read-only: executors and the batch engine only read
        them, and :meth:`TvcaRunPlan.concatenated_trace` copies.
        """
        key = (name, tuple(sorted(env.items())))
        entry = self._job_traces.get(key)
        if entry is None:
            entry = generate_trace(self._programs[name], self.image, env)
            self._job_traces[key] = entry
            if len(self._job_traces) > JOB_TRACE_MEMO_SIZE:
                self._job_traces.popitem(last=False)
        else:
            self._job_traces.move_to_end(key)
        return entry

    def build_plan(self, input_seed: int) -> TvcaRunPlan:
        """Run the closed control loop and build every job's trace.

        Pure function of ``input_seed``: the plant, sensor processing and
        controller mathematics never observe platform timing, so the
        traces (and the executed path) are fully determined before a
        single instruction is simulated.  Job traces come from a memo
        shared by every plan (see :meth:`_job_trace`), so plans of
        different seeds may hold the same read-only trace objects.
        """
        cfg = self.config
        plant = TvcPlant(cfg.plant, input_seed)
        sensor_proc = SensorProcessor()
        sensor_proc.prime(plant.sense_x(), plant.sense_y())
        ctrl_x = AxisController(cfg.pid)
        ctrl_y = AxisController(cfg.pid)

        horizon = cfg.hyperperiods * cfg.actuator_period_cycles
        jobs = build_jobs(self.tasks, horizon=horizon)

        traces: List[Trace] = []
        signatures: List[str] = []
        any_fault = False
        any_sat_x = False
        any_sat_y = False
        max_steps_x = 0
        max_steps_y = 0

        dt = cfg.actuator_period_s / 2.0
        command_x = 0.0
        command_y = 0.0
        filtered = (0.0, 0.0, 0.0, 0.0)
        telemetry_slot = 0

        for job in jobs:
            name = job.task.name
            if name == self.TASK_SENSOR:
                decisions = sensor_proc.process(plant.sense_x(), plant.sense_y())
                filtered = decisions.filtered
                env = {"faults": decisions.faults, "telemetry_slot": telemetry_slot}
                telemetry_slot += 4
                any_fault = any_fault or any(decisions.faults)
                # The plant advances between sensor samples (held commands).
                plant.step(command_x, command_y, dt)
            elif name == self.TASK_ACT_X:
                d = ctrl_x.update(filtered[0], filtered[1], cfg.actuator_period_s)
                command_x = d.command
                any_sat_x = any_sat_x or d.saturated
                max_steps_x = max(max_steps_x, d.schedule_steps)
                env = {
                    "steps_x": d.schedule_steps,
                    "iclamp_x": d.integrator_clamped,
                    "sat_x": d.saturated,
                    "div_class_x": d.div_operand_class,
                    "sqrt_class_x": d.sqrt_operand_class,
                    "sqrt_class": d.sqrt_operand_class,
                    "aero_idx_x": self._aero_index(filtered[0]),
                }
            else:
                d = ctrl_y.update(filtered[2], filtered[3], cfg.actuator_period_s)
                command_y = d.command
                any_sat_y = any_sat_y or d.saturated
                max_steps_y = max(max_steps_y, d.schedule_steps)
                env = {
                    "steps_y": d.schedule_steps,
                    "iclamp_y": d.integrator_clamped,
                    "sat_y": d.saturated,
                    "div_class_y": d.div_operand_class,
                    "sqrt_class_y": d.sqrt_operand_class,
                    "sqrt_class": d.sqrt_operand_class,
                    "aero_idx_y": self._aero_index(filtered[2]),
                }

            trace, signature = self._job_trace(name, env)
            traces.append(trace)
            signatures.append(f"{name}[{job.index}]:{signature.as_key()}")

        path_class = f"fault={'T' if any_fault else 'F'}"
        input_profile = (
            f"sx={'T' if any_sat_x else 'F'};"
            f"sy={'T' if any_sat_y else 'F'};"
            f"gsx={max_steps_x};gsy={max_steps_y}"
        )
        return TvcaRunPlan(
            jobs=tuple(jobs),
            traces=tuple(traces),
            signatures=tuple(signatures),
            path_class=path_class,
            input_profile=input_profile,
        )

    # ------------------------------------------------------------------
    # One measured execution
    # ------------------------------------------------------------------
    def run_once(
        self, platform: Platform, run_seed: int, input_seed: Optional[int] = None
    ) -> TvcaRunResult:
        """Execute one full measurement run under the paper's protocol.

        ``run_seed`` drives the *platform* randomization (cache seeds),
        ``input_seed`` the *workload* inputs (initial attitude errors,
        gusts, sensor noise); they default to independent derivations of
        the same value so a single integer reproduces the run.  The run
        plan (job traces, path) is built first — it is a pure function
        of ``input_seed`` — and then executed job by job on core 0.

        Historical timing semantics, preserved bit for bit: each job's
        cycle clock restarts at zero while shared-resource state (the
        bus busy horizon, the store buffer's drain times) carries over
        from the previous job, so jobs after the first absorb some
        residual stall from their predecessor's tail.  Contention
        scenarios instead execute :meth:`TvcaRunPlan.concatenated_trace`
        on a continuous clock; the two paths are therefore not
        cycle-comparable — compare scenarios against the *isolation*
        scenario, not against this method.
        """
        if input_seed is None:
            input_seed = derive_seed(run_seed, 0xA11CE)
        plan = self.build_plan(input_seed)
        platform.reset(run_seed)
        core = platform.cores[0]

        total_cycles = 0
        total_instructions = 0
        per_task_cycles: Dict[str, int] = {t.name: 0 for t in self.tasks}
        per_task_max: Dict[str, int] = {t.name: 0 for t in self.tasks}
        executions: Dict[object, int] = {}

        for job, trace in zip(plan.jobs, plan.traces):
            name = job.task.name
            result = core.execute(trace)
            total_cycles += result.cycles
            total_instructions += result.instructions
            per_task_cycles[name] += result.cycles
            per_task_max[name] = max(per_task_max[name], result.cycles)
            executions[job] = result.cycles

        outcomes = simulate_timeline(plan.jobs, executions)
        deadlines_met = all(o.deadline_met for o in outcomes)
        max_response = max(o.response for o in outcomes)
        # The task set has huge slack at these rates; preemption-free
        # execution is the modelled (and asserted) regime.
        assert all(o.preemptions == 0 for o in outcomes), (
            "unexpected preemption: job execution times exceed the "
            "sensor inter-release gap"
        )

        return TvcaRunResult(
            cycles=total_cycles,
            path_class=plan.path_class,
            input_profile=plan.input_profile,
            full_signature=plan.full_signature,
            per_task_cycles=per_task_cycles,
            per_task_max_job_cycles=per_task_max,
            max_response_cycles=max_response,
            deadlines_met=deadlines_met,
            instructions=total_instructions,
        )
