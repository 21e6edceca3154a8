"""Single-core execution engine.

A :class:`Core` bundles the per-core resources of the paper's platform —
7-stage pipeline, IL1, DL1, ITLB, DTLB and FPU — and executes an
instruction :class:`~repro.platform.trace.Trace`, charging cycles for

* pipeline base cost, hazards, branch bubbles and integer long ops,
* IL1/DL1 hits (folded into the base cost) and misses (bus + DRAM),
* ITLB/DTLB misses (fixed page-walk penalty),
* write-through stores (drained through a store buffer to the bus; the
  core stalls only when the buffer is full),
* FP operation latencies (mode-dependent for FDIV/FSQRT).

Execution is factored into a resumable :class:`CoreStepper`: one stepper
owns the cursor of one trace on one core and can either drain the trace
in a single burst (:meth:`Core.execute`, the single-core path — one
``advance`` call with every hot reference hoisted to locals, so the cost
profile of the old monolithic loop is preserved) or be advanced one
instruction at a time, which is how
:meth:`repro.platform.soc.Platform.run_concurrent` interleaves several
cores in cycle order so their bus transactions genuinely overlap.

Micro-architectural shortcuts, all timing-neutral or conservative:

* sequential fetches within one cache line hit a line (stream) buffer
  and do not re-probe the IL1 — LEON3 fetches through a line buffer;
* the last instruction/data page translation is cached (a one-entry
  micro-TLB), so the TLBs are probed only on page changes;
* FP latency overlaps the pipeline base cycle (``latency - 1`` extra
  cycles are charged).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from .bus import Bus
from .cache import Cache, CacheConfig, CacheStats
from .fpu import FpOp, Fpu, FpuConfig, FpuStats
from .memory import MemoryController
from .pipeline import PipelineConfig, PipelineModel, PipelineStats
from .prng import CombinedLfsrPrng, derive_seed
from .tlb import Tlb, TlbConfig, TlbStats
from .trace import InstrKind, Trace

__all__ = ["CoreConfig", "RunResult", "Core", "CoreStepper"]


#: InstrKind -> FpOp mapping for the FPU-executed kinds.
_FP_OPS: Dict[int, FpOp] = {
    int(InstrKind.FADD): FpOp.ADD,
    int(InstrKind.FSUB): FpOp.SUB,
    int(InstrKind.FMUL): FpOp.MUL,
    int(InstrKind.FDIV): FpOp.DIV,
    int(InstrKind.FSQRT): FpOp.SQRT,
    int(InstrKind.FCONV): FpOp.CONV,
    int(InstrKind.FCMP): FpOp.CMP,
}


@dataclass(frozen=True)
class CoreConfig:
    """Per-core resource configuration.

    ``store_buffer_depth`` models the LEON3 write buffer: stores retire
    into the buffer at no cost and drain over the bus; the pipeline
    stalls only when a store finds the buffer full.
    """

    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    itlb: TlbConfig = field(default_factory=TlbConfig)
    dtlb: TlbConfig = field(default_factory=TlbConfig)
    fpu: FpuConfig = field(default_factory=FpuConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    store_buffer_depth: int = 8


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing one trace on one core.

    ``core_id`` records which core ran the trace and
    ``bus_contention_cycles`` how many cycles this core's transactions
    spent waiting for the shared bus (its slice of
    :attr:`~repro.platform.bus.BusStats.contention_by_master`) — zero in
    isolation, the per-core contention breakdown in co-scheduled runs.
    """

    cycles: int
    instructions: int
    icache: CacheStats
    dcache: CacheStats
    itlb: TlbStats
    dtlb: TlbStats
    fpu: FpuStats
    pipeline: PipelineStats
    core_id: int = 0
    bus_contention_cycles: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


class Core:
    """One LEON3-like core attached to the shared bus and DRAM."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        bus: Bus,
        memory: MemoryController,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.bus = bus
        self.memory = memory
        # Each randomized component gets its own PRNG instance so that
        # victim draws in one cache never perturb another; all are
        # reseeded from the single per-run seed in prepare_run().
        self.icache = Cache(
            config.icache, prng=CombinedLfsrPrng(1), name=f"core{core_id}.il1"
        )
        self.dcache = Cache(
            config.dcache, prng=CombinedLfsrPrng(2), name=f"core{core_id}.dl1"
        )
        self.itlb = Tlb(
            config.itlb, prng=CombinedLfsrPrng(3), name=f"core{core_id}.itlb"
        )
        self.dtlb = Tlb(
            config.dtlb, prng=CombinedLfsrPrng(4), name=f"core{core_id}.dtlb"
        )
        self.fpu = Fpu(config.fpu)
        self.pipeline = PipelineModel(config.pipeline)
        self._store_buffer_ready: List[int] = []

    # ------------------------------------------------------------------
    # Run protocol
    # ------------------------------------------------------------------
    def prepare_run(self, seed: int) -> None:
        """Flush all state and install per-run randomization seeds.

        Mirrors the paper's protocol: caches flushed, platform reset and
        a fresh seed installed before every measured execution.  Each
        component receives an independently derived sub-seed.
        """
        self.icache.flush()
        self.dcache.flush()
        self.itlb.flush()
        self.dtlb.flush()
        self.icache.reseed(derive_seed(seed, self.core_id, 0))
        self.dcache.reseed(derive_seed(seed, self.core_id, 1))
        self.itlb.reseed(derive_seed(seed, self.core_id, 2))
        self.dtlb.reseed(derive_seed(seed, self.core_id, 3))
        self.icache.reset_stats()
        self.dcache.reset_stats()
        self.itlb.reset_stats()
        self.dtlb.reset_stats()
        self.fpu.reset_stats()
        self.pipeline.reset_stats()
        self._store_buffer_ready = []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stepper(
        self, trace: Trace, start_cycle: int = 0, loop: bool = False
    ) -> "CoreStepper":
        """A resumable execution of ``trace`` on this core."""
        return CoreStepper(self, trace, start_cycle=start_cycle, loop=loop)

    def execute(self, trace: Trace, start_cycle: int = 0) -> RunResult:
        """Execute ``trace`` to completion; return cycles and statistics."""
        stepper = CoreStepper(self, trace, start_cycle=start_cycle)
        stepper.advance(len(trace))
        return stepper.result()


class CoreStepper:
    """Resumable execution of one trace on one core.

    The stepper owns the per-trace cursor — instruction index, local
    cycle count and the fetch/translation locality state — while the
    parent :class:`Core` owns the hardware state (caches, TLBs, FPU,
    store buffer).  :meth:`advance` executes a bounded burst with every
    hot reference hoisted to locals, so draining a whole trace in one
    call costs the same as the historical monolithic loop, while
    :meth:`repro.platform.soc.Platform.run_concurrent` advances several
    steppers one instruction at a time in cycle order.

    ``loop=True`` restarts the trace from the top when it runs off the
    end — used for co-runner opponents that must stay active for the
    whole co-scheduled run; a looping stepper never reports ``done``.
    """

    __slots__ = (
        "core",
        "trace",
        "start_cycle",
        "loop",
        "now",
        "index",
        "instructions",
        "_last_iline",
        "_last_ipage",
        "_last_dpage",
        "_contention_base",
    )

    def __init__(
        self,
        core: Core,
        trace: Trace,
        start_cycle: int = 0,
        loop: bool = False,
    ) -> None:
        self.core = core
        self.trace = trace
        self.start_cycle = start_cycle
        self.loop = loop and len(trace) > 0
        self.now = start_cycle
        self.index = 0
        self.instructions = 0
        self._last_iline = -1
        self._last_ipage = -1
        self._last_dpage = -1
        self._contention_base = core.bus.stats.contention_by_master.get(
            core.core_id, 0
        )

    @property
    def done(self) -> bool:
        """True once the trace is exhausted (never for looping steppers)."""
        return not self.loop and self.index >= len(self.trace.kinds)

    def step(self) -> bool:
        """Execute one instruction; return False when the trace is done."""
        return self.advance(1) == 1

    def advance(self, max_instructions: int) -> int:
        """Execute up to ``max_instructions``; return the number executed.

        Stops early only when the trace ends (non-looping steppers).
        State is written back to the stepper on exit, so execution can
        resume at any time — including after other cores have advanced
        and moved the shared bus / DRAM state.
        """
        if max_instructions <= 0 or self.done:
            return 0
        core = self.core
        cfg = core.config
        icache = core.icache
        dcache = core.dcache
        itlb = core.itlb
        dtlb = core.dtlb
        fpu = core.fpu
        pipeline = core.pipeline
        bus = core.bus
        memory = core.memory
        core_id = core.core_id
        buffer_depth = cfg.store_buffer_depth

        iline_shift = icache.config.line_shift
        ipage_shift = itlb.config.page_shift
        dpage_shift = dtlb.config.page_shift

        trace = self.trace
        kinds = trace.kinds
        pcs = trace.pcs
        addrs = trace.addrs
        op_classes = trace.operand_classes
        deps = trace.dep_distances
        takens = trace.takens
        length = len(kinds)
        if length == 0:
            return 0

        load_kind = int(InstrKind.LOAD)
        store_kind = int(InstrKind.STORE)
        fp_ops = _FP_OPS

        now = self.now
        index = self.index
        last_iline = self._last_iline
        last_ipage = self._last_ipage
        last_dpage = self._last_dpage
        looping = self.loop
        store_buffer = core._store_buffer_ready

        executed = 0
        while executed < max_instructions:
            if index >= length:
                if not looping:
                    break
                index = 0
            kind = kinds[index]
            pc = pcs[index]

            # ---------------- fetch ----------------
            iline = pc >> iline_shift
            if iline != last_iline:
                last_iline = iline
                ipage = pc >> ipage_shift
                if ipage != last_ipage:
                    last_ipage = ipage
                    now += itlb.lookup(pc)
                if not icache.read(pc):
                    now += bus.request(core_id, now, is_line=True)
                    now += memory.access(pc, False, now)

            # ---------------- pipeline base + hazards ----------------
            now += pipeline.issue(kind, deps[index], takens[index])

            # ---------------- execute / memory ----------------
            if kind == load_kind:
                addr = addrs[index]
                dpage = addr >> dpage_shift
                if dpage != last_dpage:
                    last_dpage = dpage
                    now += dtlb.lookup(addr)
                if not dcache.read(addr):
                    now += bus.request(core_id, now, is_line=True)
                    now += memory.access(addr, False, now)
            elif kind == store_kind:
                addr = addrs[index]
                dpage = addr >> dpage_shift
                if dpage != last_dpage:
                    last_dpage = dpage
                    now += dtlb.lookup(addr)
                dcache.write(addr)
                # Write-through: the store drains through the buffer.
                while store_buffer and store_buffer[0] <= now:
                    store_buffer.pop(0)
                if len(store_buffer) >= buffer_depth:
                    # Buffer full: stall until the oldest entry drains.
                    now = max(now, store_buffer.pop(0))
                cost = bus.request(core_id, now, is_line=False)
                cost += memory.access(addr, True, now)
                store_buffer.append(now + cost)
            else:
                fp_op = fp_ops.get(kind)
                if fp_op is not None:
                    # Overlap the pipeline base cycle with the FP start.
                    now += fpu.latency(fp_op, op_classes[index]) - 1

            index += 1
            executed += 1

        self.now = now
        self.index = index
        self._last_iline = last_iline
        self._last_ipage = last_ipage
        self._last_dpage = last_dpage
        self.instructions += executed
        core._store_buffer_ready = store_buffer
        return executed

    def result(self) -> RunResult:
        """Snapshot the execution outcome (valid mid-run for co-runners
        halted when the analysis core finished)."""
        core = self.core
        waited = (
            core.bus.stats.contention_by_master.get(core.core_id, 0)
            - self._contention_base
        )
        return RunResult(
            cycles=self.now - self.start_cycle,
            instructions=self.instructions,
            icache=replace(core.icache.stats),
            dcache=replace(core.dcache.stats),
            itlb=replace(core.itlb.stats),
            dtlb=replace(core.dtlb.stats),
            fpu=replace(core.fpu.stats),
            pipeline=replace(core.pipeline.stats),
            core_id=core.core_id,
            bus_contention_cycles=waited,
        )
