"""Vectorized batch execution of randomized replications.

A pWCET campaign executes the *same* instruction trace thousands of
times, varying only the per-run platform randomization (placement
seeds, replacement victims).  The scalar interpreter
(:class:`~repro.platform.core.CoreStepper`) pays the Python
per-instruction dispatch cost once per run; the vector engines reshape
the computation so it is paid once per *trace*, with numpy arrays
holding the per-lane divergent state.

This module holds the one component set both vector engines share —
each component acts on lane index arrays:

* :class:`_VecPrng` — per-lane :class:`CombinedLfsrPrng` states (victim
  draws advance only the lanes that actually miss into a full set, so
  every lane consumes exactly the draw sequence the scalar interpreter
  would);
* three replacement policies, :class:`_VecCache` (tag stores ``(L,
  sets, ways)``), :class:`_VecTlb`, :class:`_VecBus` (per-run busy
  horizon and grant pointer), :class:`_VecMemory` (open-row and refresh
  state) and :class:`_VecStoreBuffer` (FIFO rings);
* one per-instruction compile pass (:func:`_compile_pass`) folding
  fetch/line/page locality, pipeline hazards and FPU latencies into
  trace-pure facts, one identity-keyed compile memo, one per-component
  seed derivation, one support check and one broadcast-and-clone path
  for deterministic platforms.

Two loops drive it.  The **segment loop** here
(:meth:`_BatchEngine.run_segments`, single-core campaigns) takes one
segment list per lane and advances every lane through the same segment
*position* at once; it folds the compile pass into an event list with
static-cost gaps.  A position whose trace all lanes share (the whole of
a fixed-input campaign) calls the components' *broadcast* methods: one
scalar address for all lanes, set indices memoized per line, and only
fetch probes on new lines, loads and stores cost vector work.  At a
divergent position (varied inputs) the lanes are packed by event
skeleton — traces with the same sequence of instruction fetches,
loads and stores — and each subgroup calls the *index* methods with
per-lane address columns (data-TLB probes masked per lane).  The **step loop** in
:mod:`repro.platform.batch_concurrent` (co-scheduled campaigns) lets
lanes diverge in time and calls the index methods too.

Bit-identity contract
---------------------

For every supported configuration the engine reproduces the scalar
interpreter *exactly*: per-run cycle counts, hit/miss/eviction
counters and PRNG draw sequences are equal bit for bit to
``[platform.run(trace, seed, core_id) for seed in seeds]`` (verified
by ``tests/platform/test_batch_backend.py``).  Per-run randomization
streams are keyed, as in the scalar path, by the derivation chain
``derive_seed(run_seed, core_id + 101)`` → per-component sub-seeds
(computed for all lanes at once by :func:`_derive_seeds`), so a run's
results depend only on ``(run_seed, segments)`` — never on which runs
share its batch.

Deterministic platforms (``PlatformConfig.is_randomized`` false) are
handled by a degenerate fast path: one scalar reference execution is
measured and broadcast, which is exact because no component of such a
platform consumes the per-run seed.

Unsupported shapes — tree-PLRU replacement on a randomized platform,
or numpy missing — raise :class:`BatchUnsupported`; callers
(:mod:`repro.api.backend`) fall back to the scalar path.
"""

from __future__ import annotations

import os
import sys
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .bus import BusConfig, BusStats
from .cache import CacheConfig, CacheStats
from .core import _FP_OPS, CoreConfig, RunResult
from .fpu import Fpu, FpuStats
from .memory import MemoryConfig, MemoryStats
from .pipeline import PipelineModel, PipelineStats
from .prng import CombinedLfsrPrng, Lfsr
from .soc import Platform
from .tlb import TlbConfig, TlbStats
from .trace import InstrKind, Trace

# The batch engine is elementwise and campaigns parallelize across
# forked shard processes, so intra-op BLAS/OpenMP threading can only
# oversubscribe (shards x pool-size runnable threads).  Pool sizes are
# frozen when the BLAS library first loads, which is why the knobs must
# be set *before* our numpy import — forked shard workers then inherit
# both the loaded library and this single-threaded configuration.
# ``setdefault`` keeps any explicit user configuration authoritative,
# and an already-imported numpy is left untouched (pinning after load
# would be a silent no-op anyway; the worker-side re-pin in
# repro.api.backend covers children that import numpy lazily).
if "numpy" not in sys.modules:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, "1")  # repro-lint: disable=REP002,REP005 -- pins BLAS/OMP to one thread before numpy loads; a determinism fix (keeps batch results thread-count independent), honouring any explicit user override

try:  # numpy is optional: without it every campaign stays scalar.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None  # type: ignore[assignment]

__all__ = [
    "BatchUnsupported",
    "BatchRunOutcome",
    "batch_unsupported_reason",
    "numpy_available",
    "run_batch",
    "run_batch_segments",
]

_T = TypeVar("_T")

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Replacement policies the vectorized state machines cover.  Tree-PLRU
#: is only reachable on deterministic platforms (it consumes no
#: randomness), which the degenerate path already handles.
_VEC_REPLACEMENTS = frozenset({"random", "lru", "round_robin"})
_VEC_PLACEMENTS = frozenset({"modulo", "random_modulo", "hash_random"})


class BatchUnsupported(RuntimeError):
    """The batch engine cannot reproduce this configuration; run scalar."""


def numpy_available() -> bool:
    """Whether the vectorized path can run at all."""
    return _np is not None


def _unsupported_reason(
    platform: Platform, core_ids: Sequence[int], check_grants: bool
) -> Optional[str]:
    """Why running ``core_ids`` on the vector components is impossible
    (None = supported); ``check_grants`` rejects bus grant logging,
    which only the co-scheduled results would have to reproduce."""
    cfg = platform.config
    for core_id in core_ids:
        if not 0 <= core_id < cfg.num_cores:
            return f"core_id {core_id} out of range [0, {cfg.num_cores})"
        if core_id >= cfg.bus.num_masters:
            return f"core_id {core_id} is not a bus master"
    if check_grants and cfg.bus.record_grants:
        return "bus grant logging is not vectorized"
    if not cfg.is_randomized:
        # Deterministic platform: the degenerate path needs no numpy.
        return None
    if _np is None:
        return "numpy is not available"
    core = cfg.core
    for label, cache in (("icache", core.icache), ("dcache", core.dcache)):
        if cache.placement not in _VEC_PLACEMENTS:
            return f"{label} placement {cache.placement!r} is not vectorized"
        if cache.replacement not in _VEC_REPLACEMENTS:
            return f"{label} replacement {cache.replacement!r} is not vectorized"
    for label, tlb in (("itlb", core.itlb), ("dtlb", core.dtlb)):
        if tlb.replacement not in _VEC_REPLACEMENTS:
            return f"{label} replacement {tlb.replacement!r} is not vectorized"
    return None


def batch_unsupported_reason(
    platform: Platform, core_id: int = 0
) -> Optional[str]:
    """Why ``platform`` cannot be batch-executed (None = supported)."""
    return _unsupported_reason(platform, (core_id,), check_grants=False)


# ----------------------------------------------------------------------
# Trace compilation (trace-pure preprocessing, shared by all lanes)
# ----------------------------------------------------------------------

#: Memory kinds of a compiled instruction (the scalar LOAD/STORE split).
_MK_NONE, _MK_LOAD, _MK_STORE = 0, 1, 2

#: Probe flags of an event skeleton code (see
#: :meth:`_CompiledSegment.lane_columns`); the low two bits hold the
#: memory kind.
_HAS_FETCH, _HAS_ITLB = 4, 8

#: A compiled instruction: ``(fetch_pc, itlb_page, cost, mem_kind,
#: mem_addr, dtlb_page)``.
_Row = Tuple[int, int, int, int, int, int]

#: Number of pipeline + FPU statistic counters (see :func:`_counters`).
_STAT_FIELDS = 9


def _counters(pipeline: PipelineStats, fpu: FpuStats) -> Tuple[int, ...]:
    """The nine pipeline/FPU counters as one flat tuple."""
    return (
        pipeline.instructions,
        pipeline.base_cycles,
        pipeline.branch_bubbles,
        pipeline.load_use_stalls,
        pipeline.long_op_stalls,
        fpu.ops,
        fpu.div_ops,
        fpu.sqrt_ops,
        fpu.total_cycles,
    )


def _stats_from_counters(counters: Sequence[Any]) -> Tuple[PipelineStats, FpuStats]:
    """Inverse of :func:`_counters`."""
    values = [int(value) for value in counters]
    return PipelineStats(*values[:5]), FpuStats(*values[5:])


def _compile_pass(
    trace: Trace,
    core_cfg: CoreConfig,
    locality: Tuple[int, int, int] = (-1, -1, -1),
    prefix: Optional[List[Tuple[int, ...]]] = None,
) -> Tuple[List[_Row], Tuple[int, int, int], Tuple[int, ...]]:
    """One pass over ``trace``, reduced to per-instruction facts.

    Each row holds ``fetch_pc`` (the fetched byte address when the
    instruction probes the IL1, -1 otherwise), the ITLB/DTLB pages
    probed on page changes (-1 otherwise), ``cost`` (the pipeline cost,
    plus the FPU's extra cycles for non-memory instructions), the
    memory kind and the LOAD/STORE byte address.  ``locality`` is the
    ``(line, ipage, dpage)`` state the pass starts from — cold for a
    fresh :class:`CoreStepper` — and the state it ends in is returned
    with the nine pipeline/FPU counters of the pass; ``prefix``, when
    given, receives the counters after every instruction.

    Reuses the real :class:`PipelineModel` and :class:`Fpu` so per-
    instruction costs and their statistics are the scalar ones by
    construction; both cost oracles are stateless given the trace
    fields, so every pass may start them fresh.
    """
    pipeline = PipelineModel(core_cfg.pipeline)
    fpu = Fpu(core_cfg.fpu)
    iline_shift = core_cfg.icache.line_shift
    ipage_shift = core_cfg.itlb.page_shift
    dpage_shift = core_cfg.dtlb.page_shift
    load_kind = int(InstrKind.LOAD)
    store_kind = int(InstrKind.STORE)
    fp_ops = _FP_OPS

    kinds = trace.kinds
    pcs = trace.pcs
    addrs = trace.addrs
    op_classes = trace.operand_classes
    deps = trace.dep_distances
    takens = trace.takens

    last_iline, last_ipage, last_dpage = locality
    rows: List[_Row] = []
    for i in range(len(kinds)):
        kind = kinds[i]
        pc = pcs[i]
        fetch_pc = -1
        itlb_page = -1
        iline = pc >> iline_shift
        if iline != last_iline:
            last_iline = iline
            fetch_pc = pc
            ipage = pc >> ipage_shift
            if ipage != last_ipage:
                last_ipage = ipage
                itlb_page = ipage
        pipe = pipeline.issue(kind, deps[i], takens[i])
        if kind == load_kind or kind == store_kind:
            addr = addrs[i]
            dpage = addr >> dpage_shift
            if dpage != last_dpage:
                last_dpage = dpage
                dtlb_page = dpage
            else:
                dtlb_page = -1
            mem_kind = _MK_LOAD if kind == load_kind else _MK_STORE
            rows.append((fetch_pc, itlb_page, pipe, mem_kind, addr, dtlb_page))
        else:
            fp_op = fp_ops.get(kind)
            extra = fpu.latency(fp_op, op_classes[i]) - 1 if fp_op is not None else 0
            rows.append((fetch_pc, itlb_page, pipe + extra, _MK_NONE, -1, -1))
        if prefix is not None:
            prefix.append(_counters(pipeline.stats, fpu.stats))
    totals = _counters(pipeline.stats, fpu.stats)
    return rows, (last_iline, last_ipage, last_dpage), totals


@dataclass
class _CompiledSegment:
    """One trace reduced to the segment loop's event list.

    ``events`` tuples are ``(gap, fetch_pc, itlb_page, mem_kind, addr,
    dtlb_page, pre_cost)``: ``gap`` is the static cycle cost since the
    previous event (pipeline + FPU of the instructions in between,
    including the post-fetch cost of fetch-only events), the middle five
    columns are the compile pass's and ``pre_cost`` is the memory
    instruction's own pipeline cost, charged between its fetch and its
    data access exactly as the scalar interpreter does.  ``totals``
    holds the pass's nine pipeline/FPU counters.
    """

    events: List[Tuple[int, int, int, int, int, int, int]]
    tail: int
    length: int
    totals: Tuple[int, ...]
    _lane_columns: Optional[Tuple[bytes, Any]] = None

    def lane_columns(self) -> Tuple[bytes, Any]:
        """The events as ``(skeleton, columns)``, built on first use.

        ``skeleton`` holds one code per event: the memory kind plus the
        :data:`_HAS_FETCH`/:data:`_HAS_ITLB` probe flags, which follow
        the code addresses.  Segments with equal skeletons make the same
        cache, ITLB, bus and DRAM calls in the same order and differ
        only in the values, the ``(6, events)`` int64 ``columns``: gap,
        fetch_pc, itlb_page, addr, dtlb_page (-1: no DTLB probe) and
        pre_cost.  DTLB probes follow the data addresses, so they stay
        per-lane values rather than fragmenting the skeleton by data
        page.
        """
        if self._lane_columns is None:
            np = _np
            skeleton = bytes(
                mem_kind
                | (_HAS_FETCH if fetch_pc >= 0 else 0)
                | (_HAS_ITLB if itlb_page >= 0 else 0)
                for _, fetch_pc, itlb_page, mem_kind, _, _, _ in self.events
            )
            events = np.array(self.events, dtype=np.int64).reshape(-1, 7)
            columns = events[:, [0, 1, 2, 4, 5, 6]].T.copy()
            self._lane_columns = (skeleton, columns)
        return self._lane_columns


def _compile_segment(trace: Trace, core_cfg: CoreConfig) -> _CompiledSegment:
    """Fold the compile pass of ``trace`` into static-gap events.

    Locality restarts per segment, matching a fresh
    :class:`CoreStepper`.
    """
    rows, _, totals = _compile_pass(trace, core_cfg)
    events: List[Tuple[int, int, int, int, int, int, int]] = []
    gap = 0
    for fetch_pc, itlb_page, cost, mem_kind, addr, dtlb_page in rows:
        if mem_kind != _MK_NONE:
            events.append((gap, fetch_pc, itlb_page, mem_kind, addr, dtlb_page, cost))
            gap = 0
        elif fetch_pc >= 0:
            events.append((gap, fetch_pc, itlb_page, _MK_NONE, -1, -1, 0))
            gap = cost
        else:
            gap += cost
    return _CompiledSegment(events=events, tail=gap, length=len(rows), totals=totals)


#: Memoized compiled traces.  Keyed by object identity of the (trace,
#: core config) pair plus the compiler and its extra arguments; the
#: cached value keeps strong references to both, so an ``is`` check on
#: lookup makes id-reuse after garbage collection impossible while an
#: entry lives.  Compilation costs about one scalar pass over the trace
#: — without the memo, adaptive campaigns (one engine per index block),
#: sharded campaigns and co-scheduled groups sharing opponent traces
#: would pay it once per block/shard/group instead of once per trace.
_COMPILE_CACHE: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()
_COMPILE_CACHE_SIZE = 256


def _memoized(
    compile_fn: Callable[..., _T], trace: Trace, core_cfg: CoreConfig, *args: Any
) -> _T:
    """``compile_fn(trace, core_cfg, *args)``, memoized by identity."""
    key = (id(trace), id(core_cfg), compile_fn, args)
    entry = _COMPILE_CACHE.get(key)
    if entry is not None and entry[0] is trace and entry[1] is core_cfg:
        _COMPILE_CACHE.move_to_end(key)
        cached: _T = entry[2]
        return cached
    compiled = compile_fn(trace, core_cfg, *args)
    _COMPILE_CACHE[key] = (trace, core_cfg, compiled)
    _COMPILE_CACHE.move_to_end(key)
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_SIZE:
        _COMPILE_CACHE.popitem(last=False)
    return compiled


# ----------------------------------------------------------------------
# Vectorized platform components
# ----------------------------------------------------------------------
#
# State is laid out per *lane* (one replication of one core) or per
# *run* (the shared bus and DRAM).  Index methods take arrays of unique
# lane indices: state is gathered, computed at the event's width and
# scattered back, so fancy-indexed ``+=`` updates are exact.  Broadcast
# methods serve the segment loop at positions whose trace every lane
# shares: one scalar address for every lane.  At divergent positions
# the segment loop calls the cache/TLB index methods and the lane-subset
# forms of its bus, DRAM and store-buffer methods.


class _StepTables:
    """Precomputed ``nbits``-step advance of the stacked LFSR slots.

    An ``nbits`` draw of :class:`CombinedLfsrPrng` is a GF(2)-linear map
    of the four slot states: both the post-draw state and the emitted
    output word are XORs of per-state-bit basis contributions.  Each
    slot's state is split into a high and a low half and the map is
    tabulated per half (``table[hi] ^ table[lo]``), so one draw costs a
    constant handful of stacked ops — two gathers per table family —
    instead of ``nbits`` feedback/shift rounds.  The four slots' tables
    are concatenated flat with per-slot offsets, which keeps the gather
    a plain 1-D take under a broadcast index.
    """

    __slots__ = (
        "lo_bits",
        "lo_mask",
        "hi_offsets",
        "lo_offsets",
        "state_hi",
        "state_lo",
        "out_hi",
        "out_lo",
    )

    def __init__(self, nbits: int, degrees: Tuple[int, ...]) -> None:
        np = _np
        lo_bits: List[int] = []
        hi_offsets: List[int] = []
        lo_offsets: List[int] = []
        state_hi_parts: List[Any] = []
        state_lo_parts: List[Any] = []
        out_hi_parts: List[Any] = []
        out_lo_parts: List[Any] = []
        hi_total = 0
        lo_total = 0
        for degree in degrees:
            lo = (degree + 1) // 2
            hi = degree - lo
            lo_bits.append(lo)
            hi_offsets.append(hi_total)
            lo_offsets.append(lo_total)
            sh, oh = _expand_basis(degree, nbits, lo, hi)
            sl, ol = _expand_basis(degree, nbits, 0, lo)
            state_hi_parts.append(sh)
            out_hi_parts.append(oh)
            state_lo_parts.append(sl)
            out_lo_parts.append(ol)
            hi_total += 1 << hi
            lo_total += 1 << lo
        self.lo_bits = np.array(lo_bits, dtype=np.uint32)[:, None]
        self.lo_mask = np.array(
            [(1 << lo) - 1 for lo in lo_bits], dtype=np.uint32
        )[:, None]
        self.hi_offsets = np.array(hi_offsets, dtype=np.uint32)[:, None]
        self.lo_offsets = np.array(lo_offsets, dtype=np.uint32)[:, None]
        self.state_hi = np.concatenate(state_hi_parts)
        self.state_lo = np.concatenate(state_lo_parts)
        self.out_hi = np.concatenate(out_hi_parts)
        self.out_lo = np.concatenate(out_lo_parts)


def _expand_basis(
    degree: int, nbits: int, shift_base: int, count: int
) -> Tuple[Any, Any]:
    """Tabulate the ``nbits``-step map over one state half.

    Scalar-steps each single-bit basis state ``1 << (shift_base + j)``
    with the real :class:`Lfsr` (so tap configuration and output
    convention cannot drift from the interpreter), then expands to all
    ``2**count`` subset XORs with the doubling trick.
    """
    np = _np
    states = np.zeros(1 << count, dtype=np.uint32)
    outs = np.zeros(1 << count, dtype=np.int64)
    for j in range(count):
        lfsr = Lfsr(degree, 1 << (shift_base + j))
        out = lfsr.bits(nbits)
        size = 1 << j
        states[size : 2 * size] = states[:size] ^ np.uint32(lfsr.state)
        outs[size : 2 * size] = outs[:size] ^ out
    return states, outs


#: Step tables memoized per draw width (degrees are fixed per process).
_STEP_TABLES: Dict[int, _StepTables] = {}


def _step_tables(nbits: int) -> _StepTables:
    tables = _STEP_TABLES.get(nbits)
    if tables is None:
        tables = _StepTables(nbits, CombinedLfsrPrng.DEGREES)
        _STEP_TABLES[nbits] = tables
    return tables


class _VecPrng:
    """Per-lane :class:`CombinedLfsrPrng` states, drawn per lane index.

    Seeding reproduces ``CombinedLfsrPrng.reseed`` per lane; a draw
    advances only the indexed lanes, so every lane's bit stream is
    exactly the scalar one regardless of how misses interleave across
    lanes.  Draws go through the per-``nbits`` :class:`_StepTables`: all
    four LFSR slots advance in one stacked table lookup, and rejection
    (non-power-of-two ``randint``) retries only the rejecting lanes.
    """

    def __init__(self, seeds: Any) -> None:
        np = _np
        seeds_u64 = _as_u64(seeds)
        slots: List[Any] = []
        # Slot k takes the (k+1)-th SplitMix64 draw of the lane seed, as
        # the scalar reseed's expander hands them out.
        for slot, degree in enumerate(CombinedLfsrPrng.DEGREES):
            state = _mix(slot + 1, seeds_u64) & np.uint64((1 << degree) - 1)
            slots.append(np.where(state == 0, np.uint64(1), state))
        self._states = np.stack(slots).astype(np.uint32)

    def _draw(self, states: Any, nbits: int) -> Tuple[Any, Any]:
        """(value, new_states) of one ``nbits`` draw over stacked lanes."""
        np = _np
        tables = _step_tables(nbits)
        hi = (states >> tables.lo_bits) + tables.hi_offsets
        lo = (states & tables.lo_mask) + tables.lo_offsets
        value = np.bitwise_xor.reduce(
            tables.out_hi[hi] ^ tables.out_lo[lo], axis=0
        )
        return value, tables.state_hi[hi] ^ tables.state_lo[lo]

    def next_bits_idx(self, nbits: int, lanes: Any) -> Any:
        """``n``-bit draws for the indexed lanes (``lanes`` must hold
        unique indices)."""
        value, advanced = self._draw(self._states[:, lanes], nbits)
        self._states[:, lanes] = advanced
        return value

    def randint_idx(self, n: int, lanes: Any) -> Any:
        """Uniform draw in ``[0, n)`` per indexed lane, with the scalar
        generator's per-lane rejection loop."""
        np = _np
        if n == 1:
            return np.zeros(lanes.shape[0], dtype=np.int64)
        bits = (n - 1).bit_length()
        out = self.next_bits_idx(bits, lanes)
        if n & (n - 1) == 0:
            return out
        bad = np.flatnonzero(out >= n)
        while bad.size:
            redraw = self.next_bits_idx(bits, lanes[bad])
            out[bad] = redraw
            bad = bad[redraw >= n]
        return out


# Replacement policies share one interface over aligned ``lanes`` /
# ``sets`` (an int when every lane probes the same set) / ``ways``
# arrays: ``touch`` (hit), ``fill`` (allocation), ``victim`` (a full
# set's victim way per lane).  ``needs_touch`` tells the caches whether
# the hit way must be computed at all.


class _VecRandomRepl:
    """Random replacement: victims drawn from the per-lane PRNG."""

    needs_touch = False

    def __init__(self, prng: _VecPrng, num_ways: int) -> None:
        self._prng = prng
        self._ways = num_ways

    def touch(self, lanes: Any, sets: Any, ways: Any) -> None:
        return None

    fill = touch

    def victim(self, lanes: Any, sets: Any) -> Any:
        """One draw per listed lane — exactly the scalar consumption."""
        return self._prng.randint_idx(self._ways, lanes)


class _VecLruRepl:
    """True LRU via per-way last-touch sequence numbers.

    Initial timestamps equal the way index (the scalar policy's initial
    recency order) and every touch installs a strictly increasing
    counter, so ``argmin`` over a set reproduces ``order[0]`` exactly;
    only the *relative* stamp order within one (lane, set) ever
    matters, so sharing one counter across lanes is exact.
    """

    needs_touch = True

    def __init__(self, lanes: int, num_sets: int, num_ways: int) -> None:
        np = _np
        self._ts = np.tile(
            np.arange(num_ways, dtype=np.int64), (lanes, num_sets, 1)
        )
        self._counter = num_ways

    def touch(self, lanes: Any, sets: Any, ways: Any) -> None:
        self._ts[lanes, sets, ways] = self._counter
        self._counter += 1

    fill = touch

    def victim(self, lanes: Any, sets: Any) -> Any:
        return self._ts[lanes, sets].argmin(axis=1)


class _VecRoundRobinRepl:
    """FIFO-like rotation: per-lane per-set victim pointer."""

    needs_touch = False

    def __init__(self, lanes: int, num_sets: int, num_ways: int) -> None:
        np = _np
        self._ptr = np.zeros((lanes, num_sets), dtype=np.int64)
        self._ways = num_ways

    def touch(self, lanes: Any, sets: Any, ways: Any) -> None:
        return None

    fill = touch

    def victim(self, lanes: Any, sets: Any) -> Any:
        way = self._ptr[lanes, sets]
        self._ptr[lanes, sets] = (way + 1) % self._ways
        return way


def _make_replacement(
    name: str, seeds: Any, num_sets: int, num_ways: int
) -> Any:
    """Replacement state for ``len(seeds)`` lanes (the seeds key the
    random policy's per-lane generators)."""
    if name == "random":
        return _VecRandomRepl(_VecPrng(seeds), num_ways)
    if name == "lru":
        return _VecLruRepl(len(seeds), num_sets, num_ways)
    if name == "round_robin":
        return _VecRoundRobinRepl(len(seeds), num_sets, num_ways)
    raise BatchUnsupported(f"replacement {name!r} is not vectorized")


def _as_u64(seeds: Any) -> Any:
    """``seeds`` as a uint64 array (Python ints reduced mod 2**64)."""
    np = _np
    if isinstance(seeds, np.ndarray):
        return seeds.astype(np.uint64, copy=False)
    return np.array([int(seed) & _M64 for seed in seeds], dtype=np.uint64)


def _derive_seeds(bases: Any, *components: int) -> Any:
    """Vectorized :func:`~repro.platform.prng.derive_seed`: the same
    SplitMix64 chain over a uint64 array of base seeds."""
    np = _np
    value = _mix(1, bases)
    for component in components:
        value = _mix(1, value ^ np.uint64(int(component) & _M64))
    return value & np.uint64((1 << 63) - 1)


def _mix(values: Any, seeds_u64: Any) -> Any:
    """Vectorized ``placement._mix``: the 64-bit finalizer per lane, of
    one value shared by every lane (an int) or one value per lane."""
    np = _np
    if isinstance(values, int):
        z = np.uint64((values * _GOLDEN) & _M64) + seeds_u64
    else:
        z = values.astype(np.uint64) * np.uint64(_GOLDEN) + seeds_u64
    # uint64 arithmetic wraps mod 2**64, as the scalar finalizer does.
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _pick(sets: Any, sel: Any) -> Any:
    """``sets[sel]``, or ``sets`` itself when every lane shares one set."""
    return sets if isinstance(sets, int) else sets[sel]


class _VecCache:
    """Set-associative cache with per-lane tag stores.

    Per-lane placement seeds rotate set indices lane-wise (random modulo
    / hash placement); the tag store fills lowest-way-first, so the
    first free way of a set is always ``valid_count`` — the same
    invariant the scalar ``Cache._allocate`` scan relies on.  Misses are
    derived at stats time (accesses - hits): broadcast accesses are
    counted once for all lanes, index accesses per lane.
    """

    def __init__(self, cfg: CacheConfig, seeds: Any) -> None:
        np = _np
        lanes = len(seeds)
        self.num_sets = cfg.num_sets
        self.ways = cfg.ways
        self.line_shift = cfg.line_shift
        self._rows = np.arange(lanes)
        self.tags = np.full((lanes, self.num_sets, self.ways), -1, dtype=np.int64)
        self.valid = np.zeros((lanes, self.num_sets), dtype=np.int64)
        self._placement = cfg.placement
        self._seeds = _as_u64(seeds)
        self._rotations: Dict[int, Any] = {}
        self._set_memo: Dict[int, Any] = {}
        self.repl = _make_replacement(cfg.replacement, seeds, self.num_sets, self.ways)
        self._needs_touch = self.repl.needs_touch
        self._allocate_on_write = not cfg.write_through_no_allocate
        self.read_hits = np.zeros(lanes, dtype=np.int64)
        self.write_hits = np.zeros(lanes, dtype=np.int64)
        self.reads = np.zeros(lanes, dtype=np.int64)
        self.writes = np.zeros(lanes, dtype=np.int64)
        self.evictions = np.zeros(lanes, dtype=np.int64)
        self._all_reads = 0
        self._all_writes = 0

    # -- placement -----------------------------------------------------
    def _set_index(self, line: int) -> Any:
        """Set index of ``line`` on every lane — an int (modulo) or an
        (L,) array.

        Memoized per line: placement is a pure function of (line, lane
        seed) for the whole engine lifetime, and traces revisit a small
        working set of lines many times.
        """
        np = _np
        cached = self._set_memo.get(line)
        if cached is not None:
            return cached
        sets = self.num_sets
        result: Any
        if self._placement == "modulo":
            result = line % sets
        elif self._placement == "random_modulo":
            tag, index = divmod(line, sets)
            rotation = self._rotations.get(tag)
            if rotation is None:
                rotation = (_mix(tag, self._seeds) % np.uint64(sets)).astype(np.int64)
                self._rotations[tag] = rotation
            result = (index + rotation) % sets
        else:
            result = (_mix(line, self._seeds) % np.uint64(sets)).astype(np.int64)
        self._set_memo[line] = result
        return result

    def _set_index_idx(self, lanes: Any, lines: Any) -> Any:
        """Per-lane set index of per-lane ``lines``."""
        np = _np
        sets = self.num_sets
        if self._placement == "modulo":
            return lines % sets
        seeds = self._seeds[lanes]
        if self._placement == "random_modulo":
            rotation = (_mix(lines // sets, seeds) % np.uint64(sets)).astype(np.int64)
            return (lines % sets + rotation) % sets
        return (_mix(lines, seeds) % np.uint64(sets)).astype(np.int64)

    # -- accesses ------------------------------------------------------
    def _allocate(self, lanes: Any, sets: Any, lines: Any) -> None:
        """Fill ``lines`` on the miss ``lanes`` (``sets``/``lines``: one
        shared int or one per lane); each full lane draws its victim
        from its own stream."""
        way = self.valid[lanes, sets]
        full_sel = way >= self.ways
        full_lanes = lanes[full_sel]
        if full_lanes.size:
            way[full_sel] = self.repl.victim(full_lanes, _pick(sets, full_sel))
            self.evictions[full_lanes] += 1
            free_sel = ~full_sel
            free_lanes = lanes[free_sel]
            if free_lanes.size:
                self.valid[free_lanes, _pick(sets, free_sel)] += 1
        else:
            self.valid[lanes, sets] += 1
        self.tags[lanes, sets, way] = lines
        self.repl.fill(lanes, sets, way)

    def access(self, byte_address: int, is_write: bool) -> Any:
        """Broadcast ``Cache.read``/``write`` of one address on every
        lane; returns the miss-lane indices."""
        np = _np
        line = byte_address >> self.line_shift
        set_index = self._set_index(line)
        if isinstance(set_index, int):
            matches = self.tags[:, set_index] == line
        else:
            matches = self.tags[self._rows, set_index] == line
        hit = matches.any(axis=1)
        if self._needs_touch:
            lanes = np.flatnonzero(hit)
            if lanes.size:
                ways = matches.argmax(axis=1)[lanes]
                self.repl.touch(lanes, _pick(set_index, lanes), ways)
        if is_write:
            self.write_hits += hit
            self._all_writes += 1
        else:
            self.read_hits += hit
            self._all_reads += 1
        lanes = np.flatnonzero(~hit)
        if lanes.size and (self._allocate_on_write or not is_write):
            self._allocate(lanes, _pick(set_index, lanes), line)
        return lanes

    def access_idx(self, lanes: Any, addrs: Any, is_write: bool) -> Any:
        """``Cache.read``/``write`` of one address per indexed lane;
        returns the per-lane hit mask."""
        lines = addrs >> self.line_shift
        sets = self._set_index_idx(lanes, lines)
        matches = self.tags[lanes, sets] == lines[:, None]
        hit = matches.any(axis=1)
        if self._needs_touch and hit.any():
            self.repl.touch(lanes[hit], sets[hit], matches[hit].argmax(axis=1))
        if is_write:
            self.write_hits[lanes] += hit
            self.writes[lanes] += 1
        else:
            self.read_hits[lanes] += hit
            self.reads[lanes] += 1
        if (self._allocate_on_write or not is_write) and not hit.all():
            miss = ~hit
            self._allocate(lanes[miss], sets[miss], lines[miss])
        return hit

    def stats_for(self, lane: int) -> CacheStats:
        """Per-lane counters as a scalar-shaped :class:`CacheStats`."""
        read_hits = int(self.read_hits[lane])
        write_hits = int(self.write_hits[lane])
        return CacheStats(
            read_hits=read_hits,
            read_misses=self._all_reads + int(self.reads[lane]) - read_hits,
            write_hits=write_hits,
            write_misses=self._all_writes + int(self.writes[lane]) - write_hits,
            evictions=int(self.evictions[lane]),
            flushes=0,
        )


class _VecTlb:
    """Fully-associative TLB with per-lane entry stores."""

    def __init__(self, cfg: TlbConfig, seeds: Any) -> None:
        np = _np
        lanes = len(seeds)
        self.entries_per_lane = cfg.entries
        self.entries = np.full((lanes, cfg.entries), -1, dtype=np.int64)
        self.valid = np.zeros(lanes, dtype=np.int64)
        self.repl = _make_replacement(cfg.replacement, seeds, 1, cfg.entries)
        self._needs_touch = self.repl.needs_touch
        self._penalty = cfg.walk_penalty_cycles
        self.hits = np.zeros(lanes, dtype=np.int64)
        self.lookups = np.zeros(lanes, dtype=np.int64)
        self._all_lookups = 0

    def _fill(self, lanes: Any, pages: Any) -> None:
        way = self.valid[lanes]
        full_sel = way >= self.entries_per_lane
        full_lanes = lanes[full_sel]
        if full_lanes.size:
            way[full_sel] = self.repl.victim(full_lanes, 0)
            free_lanes = lanes[~full_sel]
            if free_lanes.size:
                self.valid[free_lanes] += 1
        else:
            self.valid[lanes] += 1
        self.entries[lanes, way] = pages
        self.repl.fill(lanes, 0, way)

    def lookup(self, page: int, now: Any) -> None:
        """Broadcast ``Tlb.lookup`` of one page on every lane: adds the
        walk penalty to ``now`` in place on the miss lanes."""
        np = _np
        matches = self.entries == page
        hit = matches.any(axis=1)
        if self._needs_touch:
            lanes = np.flatnonzero(hit)
            if lanes.size:
                self.repl.touch(lanes, 0, matches.argmax(axis=1)[lanes])
        self.hits += hit
        self._all_lookups += 1
        lanes = np.flatnonzero(~hit)
        if lanes.size:
            self._fill(lanes, page)
            now[lanes] += self._penalty

    def lookup_idx(self, lanes: Any, pages: Any) -> Any:
        """``Tlb.lookup`` of one page per indexed lane; returns the
        per-lane added latency."""
        matches = self.entries[lanes] == pages[:, None]
        hit = matches.any(axis=1)
        if self._needs_touch and hit.any():
            self.repl.touch(lanes[hit], 0, matches[hit].argmax(axis=1))
        self.hits[lanes] += hit
        self.lookups[lanes] += 1
        if not hit.all():
            miss = ~hit
            self._fill(lanes[miss], pages[miss])
        return (~hit) * self._penalty

    def stats_for(self, lane: int) -> TlbStats:
        """Per-lane counters as a scalar-shaped :class:`TlbStats`."""
        hits = int(self.hits[lane])
        lookups = self._all_lookups + int(self.lookups[lane])
        return TlbStats(hits=hits, misses=lookups - hits)


class _VecBus:
    """Shared bus with per-run arbitration state.

    :meth:`request` mirrors :class:`~repro.platform.bus.Bus` exactly for
    several issuing cores: one busy horizon and round-robin grant
    pointer per run, aggregate plus per-master contention/transaction
    splits (kept per core on the (cores, runs) grid; :meth:`stats_for`
    reconstructs ``BusStats``'s dicts with keys exactly for masters that
    issued at least one transaction, as the scalar dict-growing updates
    do).

    The broadcast methods serve the segment loop, whose core is the
    only master that ever requests: the grant pointer then takes exactly
    two values per run — 0 (never requested) or ``core_id + 1`` — so the
    arbitration delay collapses to a two-case constant selected by a
    ``requested`` flag, and only the contention counter its
    :class:`RunResult` reports is kept.  :meth:`cost_lanes` is the same
    arbitration for a subset of runs at per-run times.
    """

    def __init__(self, cfg: BusConfig, runs: int, core_ids: Sequence[int]) -> None:
        np = _np
        masters = cfg.num_masters
        self.num_masters = masters
        self.core_ids = list(core_ids)
        self._master_ids = np.array(core_ids, dtype=np.int64)
        self.busy_until = np.zeros(runs, dtype=np.int64)
        self.pointer = np.zeros(runs, dtype=np.int64)
        self.transactions = np.zeros(runs, dtype=np.int64)
        self.contention = np.zeros(runs, dtype=np.int64)
        self.transfer_total = np.zeros(runs, dtype=np.int64)
        self.transactions_by_core = np.zeros((len(core_ids), runs), dtype=np.int64)
        self.contention_by_core = np.zeros((len(core_ids), runs), dtype=np.int64)
        self._line_cost = cfg.line_transfer_cycles + cfg.arbitration_cycles
        self._word_cost = cfg.word_transfer_cycles + cfg.arbitration_cycles
        self._arb = cfg.arbitration_cycles
        self._strict = cfg.strict_rr_arbitration
        self._requested = np.zeros(runs, dtype=bool)
        self._multi = masters > 1
        # Pointer 0 -> distance core_id; pointer core_id+1 -> a full
        # rotation.
        self._delay_first = int(self._delay(core_ids[0] % masters))
        self._delay_again = int(self._delay(masters - 1))

    def _delay(self, distance: Any) -> Any:
        """Arbitration delay of a grant ``distance`` masters past the
        round-robin pointer."""
        if self._strict:
            return distance * self._arb
        return _np.where(distance == 0, 0, self._arb)

    def request(self, rows: Any, run_sel: Any, now: Any, is_line: bool) -> Any:
        """Vectorized ``Bus.request``: one transaction per indexed run.

        ``rows`` holds the issuing cores' *row* indices (positions in
        ``core_ids``), ``run_sel`` the unique run indices and ``now``
        the issuers' local times.  Returns the wait+transfer cost.
        """
        np = _np
        wait = self.busy_until[run_sel] - now
        np.maximum(wait, 0, out=wait)
        masters = self.num_masters
        master_ids = self._master_ids[rows]
        if self._multi:
            wait += self._delay((master_ids - self.pointer[run_sel]) % masters)
        transfer = self._line_cost if is_line else self._word_cost
        total = wait + transfer
        self.busy_until[run_sel] = now + total
        self.pointer[run_sel] = (master_ids + 1) % masters
        self.transactions[run_sel] += 1
        self.contention[run_sel] += wait
        self.transfer_total[run_sel] += transfer
        self.transactions_by_core[rows, run_sel] += 1
        self.contention_by_core[rows, run_sel] += wait
        return total

    def cost_lanes(self, now_l: Any, is_line: bool, lanes: Any) -> Any:
        """Segment-loop ``Bus.request`` on the given runs, issued at
        ``now_l`` (aligned with ``lanes``); returns wait + transfer."""
        np = _np
        wait = self.busy_until[lanes] - now_l
        np.maximum(wait, 0, out=wait)
        if self._multi:
            wait += np.where(
                self._requested[lanes], self._delay_again, self._delay_first
            )
            self._requested[lanes] = True
        cost = wait + (self._line_cost if is_line else self._word_cost)
        self.busy_until[lanes] = now_l + cost
        self.contention[lanes] += wait
        return cost

    def request_lanes(self, now: Any, is_line: bool, lanes: Any) -> None:
        """Segment-loop ``Bus.request`` on the given runs; advances
        ``now`` in place by wait + transfer, as the scalar caller does."""
        now_l = now[lanes]
        now[lanes] = now_l + self.cost_lanes(now_l, is_line, lanes)

    def request_all(self, now: Any, is_line: bool) -> Any:
        """Segment-loop ``Bus.request`` on every run; returns the
        per-run cost."""
        np = _np
        wait = self.busy_until - now
        np.maximum(wait, 0, out=wait)
        if self._multi:
            wait += np.where(self._requested, self._delay_again, self._delay_first)
            self._requested[:] = True
        transfer = self._line_cost if is_line else self._word_cost
        cost = wait + transfer
        np.add(now, cost, out=self.busy_until)
        self.contention += wait
        return cost

    def stats_for(self, run: int) -> BusStats:
        """Per-run counters as a scalar-shaped :class:`BusStats`."""
        transactions: Dict[int, int] = {}
        contention: Dict[int, int] = {}
        for index, core_id in enumerate(self.core_ids):
            count = int(self.transactions_by_core[index, run])
            if count > 0:
                transactions[core_id] = count
                contention[core_id] = int(self.contention_by_core[index, run])
        return BusStats(
            transactions=int(self.transactions[run]),
            contention_cycles=int(self.contention[run]),
            transfer_cycles=int(self.transfer_total[run]),
            contention_by_master=contention,
            transactions_by_master=transactions,
        )


class _VecMemory:
    """DRAM controller with per-run open-row and refresh state.

    :meth:`access` keeps the full per-run :class:`MemoryStats`
    breakdown.  The broadcast methods keep no counters (a single-core
    :class:`RunResult` reports none), and on the default configuration
    (closed-page, no refresh) every access is a compile-time-constant
    cost, so the caller's ``now`` update is one scalar broadcast.
    """

    def __init__(self, cfg: MemoryConfig, runs: int) -> None:
        np = _np
        self.cfg = cfg
        self._closed = cfg.page_policy == "closed"
        if not self._closed:
            self.open_rows = np.full((runs, cfg.num_banks), -1, dtype=np.int64)
        self._refresh = cfg.refresh_interval_cycles > 0
        self._constant = self._closed and not self._refresh
        self._read_cost = cfg.cas_cycles + cfg.activate_cycles
        self._write_cost = self._read_cost + cfg.write_cycles
        self.reads = np.zeros(runs, dtype=np.int64)
        self.writes = np.zeros(runs, dtype=np.int64)
        self.row_hits = np.zeros(runs, dtype=np.int64)
        self.row_conflicts = np.zeros(runs, dtype=np.int64)
        self.refresh_stalls = np.zeros(runs, dtype=np.int64)
        self.total_cycles = np.zeros(runs, dtype=np.int64)

    def _row_cost(self, runs: Any, addrs: Any, is_write: bool) -> Tuple[Any, Any, Any]:
        """Open-page ``(cost, empty, conflict)`` on the given runs (or
        ``slice(None)``), updating the per-bank open rows."""
        np = _np
        cfg = self.cfg
        cycles = cfg.cas_cycles + (cfg.write_cycles if is_write else 0)
        row_index = addrs // cfg.row_bytes
        bank = row_index % cfg.num_banks
        row = row_index // cfg.num_banks
        open_row = self.open_rows[runs, bank]
        empty = open_row < 0
        conflict = (open_row != row) & ~empty
        cost = (
            cycles
            + np.where(empty, cfg.activate_cycles, 0)
            + np.where(conflict, cfg.precharge_cycles + cfg.activate_cycles, 0)
        )
        self.open_rows[runs, bank] = row
        return cost, empty, conflict

    def _refresh_stall(self, now: Any) -> Any:
        # Refresh phase is 0 after every platform reset (the run
        # protocol never calls set_refresh_phase), so ``now`` alone
        # determines the collision per run.
        np = _np
        cfg = self.cfg
        position = now % cfg.refresh_interval_cycles
        stalled = position < cfg.refresh_stall_cycles
        return np.where(stalled, cfg.refresh_stall_cycles - position, 0)

    def latency(self, runs: Any, addrs: Any, is_write: bool, now: Any) -> Any:
        """Segment-loop device latency of one access per run (``runs``
        an index array or ``slice(None)``; ``addrs`` one address or one
        per run), issued at ``now``."""
        cost: Any = self._write_cost if is_write else self._read_cost
        if not self._closed:
            cost = self._row_cost(runs, addrs, is_write)[0]
        if self._refresh:
            cost = cost + self._refresh_stall(now)
        return cost

    def access(self, run_sel: Any, addrs: Any, is_write: bool, now: Any) -> Any:
        """Vectorized ``MemoryController.access`` for the indexed runs,
        issued at ``now``.  Returns the device latency — a plain int on
        the constant closed-page path, else a per-run array."""
        cost: Any = self._write_cost if is_write else self._read_cost
        if not self._closed:
            cost, empty, conflict = self._row_cost(run_sel, addrs, is_write)
            self.row_hits[run_sel] += ~(empty | conflict)
            self.row_conflicts[run_sel] += conflict
        (self.writes if is_write else self.reads)[run_sel] += 1
        if self._refresh:
            stall = self._refresh_stall(now)
            self.refresh_stalls[run_sel] += stall > 0
            cost = cost + stall
        self.total_cycles[run_sel] += cost
        return cost

    def access_lanes(
        self, byte_address: int, is_write: bool, now: Any, lanes: Any
    ) -> None:
        """Segment-loop access on the given runs; advances ``now``
        in place."""
        if self._constant:
            now[lanes] += self._write_cost if is_write else self._read_cost
        else:
            now[lanes] += self.latency(lanes, byte_address, is_write, now[lanes])

    def access_all(self, byte_address: int, is_write: bool, now: Any) -> Any:
        """Segment-loop access on every run; returns the cost (an int
        when it is run-invariant)."""
        return self.latency(slice(None), byte_address, is_write, now)

    def stats_for(self, run: int) -> MemoryStats:
        """Per-run counters as a scalar-shaped :class:`MemoryStats`."""
        return MemoryStats(
            reads=int(self.reads[run]),
            writes=int(self.writes[run]),
            row_hits=int(self.row_hits[run]),
            row_conflicts=int(self.row_conflicts[run]),
            refresh_stalls=int(self.refresh_stalls[run]),
            total_cycles=int(self.total_cycles[run]),
        )


class _VecStoreBuffer:
    """Per-lane write-through store buffer as a FIFO ring.

    The scalar store path drains ready entries *before every store* and
    then stalls on a still-full buffer.  The broadcast methods do
    exactly that on every lane (:meth:`drain`, :meth:`stall_if_full`,
    :meth:`push_all`), and :meth:`make_room` plus :meth:`push` on a lane
    subset: the segment loop restarts its clock every segment while the
    ring carries over, so its per-lane time is not monotone and the
    drain must be eager.

    The co-scheduled step loop's per-lane clocks only move forward, so
    :meth:`prepare_store` drains lazily.  Draining is observable only
    through the full check (entry ready times are fixed at push time),
    so the ring is drained exactly when a store finds the lane full.  At
    that moment the set of entries with ``ready <= now`` equals the set
    the scalar path would have popped across its earlier per-store
    drains (``now`` is monotone per lane), so the post-drain occupancy —
    and hence the stall decision — is bit-identical.
    """

    def __init__(self, lanes: int, depth: int) -> None:
        np = _np
        self.depth = depth
        self.ready = np.zeros((lanes, depth), dtype=np.int64)
        self.head = np.zeros(lanes, dtype=np.int64)
        self.count = np.zeros(lanes, dtype=np.int64)
        self._rows = np.arange(lanes)
        self._offsets = np.arange(depth)[None, :]

    def drain(self, now: Any) -> None:
        """Pop every leading entry already drained at ``now``, per lane."""
        np = _np
        while True:
            has = self.count > 0
            if not has.any():
                return
            oldest = self.ready[self._rows, self.head]
            pop = has & (oldest <= now)
            if not pop.any():
                return
            self.head = np.where(pop, (self.head + 1) % self.depth, self.head)
            self.count -= pop

    def stall_if_full(self, now: Any) -> Any:
        """A store into a full buffer waits for the oldest entry;
        returns the (possibly advanced) ``now``."""
        np = _np
        full = self.count >= self.depth
        if full.any():
            oldest = self.ready[self._rows, self.head]
            now = np.where(full, np.maximum(now, oldest), now)
            self.head = np.where(full, (self.head + 1) % self.depth, self.head)
            self.count -= full
        return now

    def push_all(self, ready_at: Any) -> None:
        """Append one entry on every lane."""
        tail = (self.head + self.count) % self.depth
        self.ready[self._rows, tail] = ready_at
        self.count += 1

    def prepare_store(self, lanes: Any, now: Any) -> None:
        """Make room for one entry per indexed lane: lazy drain of full
        lanes, then the scalar full-buffer stall (``now`` is advanced in
        place to the oldest entry's ready time on stalled lanes)."""
        full = self.count[lanes] >= self.depth
        if full.any():
            full_lanes = lanes[full]
            now_f = now[full_lanes]
            self._drain_idx(full_lanes, now_f)
            self._stall_full(full_lanes, now_f)
            now[full_lanes] = now_f

    def make_room(self, lanes: Any, now_l: Any) -> None:
        """The scalar store prologue on the given lanes, eagerly: drain
        every ready entry at ``now_l`` (aligned with ``lanes``), then
        stall a still-full lane — the segment loop's form, whose clock
        restarts every segment."""
        self._drain_idx(lanes, now_l)
        self._stall_full(lanes, now_l)

    def _stall_full(self, lanes: Any, now_l: Any) -> None:
        """A store into a full buffer waits for the oldest entry: pops
        it and advances ``now_l`` (aligned with ``lanes``) in place."""
        np = _np
        full = self.count[lanes] >= self.depth
        if full.any():
            stalled = lanes[full]
            head = self.head[stalled]
            now_l[full] = np.maximum(now_l[full], self.ready[stalled, head])
            self.head[stalled] = (head + 1) % self.depth
            self.count[stalled] -= 1

    def _drain_idx(self, lanes: Any, now: Any) -> None:
        """Pop every leading entry already drained at ``now``.

        Gathers each lane's ring in FIFO order and pops the longest
        ready *prefix* — a ready entry queued behind a stalled one stays
        buffered, exactly as in the scalar pop-while-ready loop.
        """
        np = _np
        head = self.head[lanes]
        slots = (head[:, None] + self._offsets) % self.depth
        fifo = self.ready[lanes[:, None], slots]
        poppable = (fifo <= now[:, None]) & (
            self._offsets < self.count[lanes][:, None]
        )
        pops = np.logical_and.accumulate(poppable, axis=1).sum(axis=1)
        self.head[lanes] = (head + pops) % self.depth
        self.count[lanes] -= pops

    def push(self, lanes: Any, ready_at: Any) -> None:
        """Append one entry per indexed lane."""
        tail = (self.head[lanes] + self.count[lanes]) % self.depth
        self.ready[lanes, tail] = ready_at
        self.count[lanes] += 1


def _private_components(
    core_cfg: CoreConfig, seeds: Sequence[int], core_ids: Sequence[int]
) -> Tuple[_VecCache, _VecCache, _VecTlb, _VecTlb]:
    """IL1, DL1, ITLB and DTLB lanes for every (core, run) pair.

    Seeds follow the scalar reset path — per-core seed, then one
    sub-seed per component — so every lane replays its scalar streams.
    Lanes are core-major: lane ``ci * len(seeds) + r`` is core
    ``core_ids[ci]`` in run ``r``.
    """
    np = _np
    run_seeds = _as_u64(seeds)
    core_seeds = [_derive_seeds(run_seeds, core_id + 101) for core_id in core_ids]
    icache_seeds, dcache_seeds, itlb_seeds, dtlb_seeds = (
        np.concatenate(
            [
                _derive_seeds(core_seed, core_id, component)
                for core_id, core_seed in zip(core_ids, core_seeds)
            ]
        )
        for component in range(4)
    )
    return (
        _VecCache(core_cfg.icache, icache_seeds),
        _VecCache(core_cfg.dcache, dcache_seeds),
        _VecTlb(core_cfg.itlb, itlb_seeds),
        _VecTlb(core_cfg.dtlb, dtlb_seeds),
    )


def _clone_result(result: RunResult) -> RunResult:
    """``result`` with fresh stats objects.

    Deterministic platforms broadcast one reference execution to every
    run — exact because no component of a non-randomized platform
    consumes the per-run seed (modulo placement and LRU/FIFO/PLRU
    replacement ignore it, the refresh phase resets to zero, the FPU is
    a pure function of the trace).  The scalar path hands every run
    independent (mutable) stats, so the broadcast must too.
    """
    return replace(
        result,
        icache=replace(result.icache),
        dcache=replace(result.dcache),
        itlb=replace(result.itlb),
        dtlb=replace(result.dtlb),
        fpu=replace(result.fpu),
        pipeline=replace(result.pipeline),
    )


# ----------------------------------------------------------------------
# Segment loop
# ----------------------------------------------------------------------


@dataclass
class BatchRunOutcome:
    """What one batched execution produced, per run.

    ``segment_cycles[r]`` holds run ``r``'s per-segment cycle counts
    (TVCA-style runs restart the cycle clock per job while hardware
    state carries over, so per-segment values are the primitive);
    ``results[r]`` aggregates the whole run — ``cycles`` is the sum of
    the run's segment cycles and the statistics (instruction count
    included) span all of the run's segments, as the scalar per-run
    counters do.
    """

    seeds: Tuple[int, ...]
    segment_cycles: List[Tuple[int, ...]]
    results: List[RunResult]


class _BatchEngine:
    """All per-run divergent state of one batched campaign stride."""

    def __init__(self, platform: Platform, seeds: Sequence[int], core_id: int) -> None:
        cfg = platform.config
        core_cfg = cfg.core
        self.core_cfg = core_cfg
        self.core_id = core_id
        self.runs = len(seeds)
        self.icache, self.dcache, self.itlb, self.dtlb = _private_components(
            core_cfg, seeds, (core_id,)
        )
        self.bus = _VecBus(cfg.bus, self.runs, (core_id,))
        self.memory = _VecMemory(cfg.memory, self.runs)
        self.store_buffer = _VecStoreBuffer(self.runs, core_cfg.store_buffer_depth)

    def run_segments(self, lane_segments: Sequence[Sequence[Trace]]) -> BatchRunOutcome:
        """Run every lane's segment list, one segment position at a time.

        A position whose trace every lane shares runs the broadcast
        loop; otherwise the lanes are partitioned by event skeleton and
        each subgroup runs the per-lane loop.  Hardware state carries
        across positions either way.
        """
        np = _np
        runs = self.runs
        core_cfg = self.core_cfg
        positions = len(lane_segments[0])
        cycles = np.zeros((positions, runs), dtype=np.int64)
        # Per run: instruction count, then the nine pipeline/FPU counters.
        counters = np.zeros((runs, 1 + _STAT_FIELDS), dtype=np.int64)
        for position in range(positions):
            column = [segments[position] for segments in lane_segments]
            lead = column[0]
            if all(trace is lead for trace in column):
                compiled = _memoized(_compile_segment, lead, core_cfg)
                cycles[position] = self._run_shared(compiled)
                counters += (compiled.length,) + compiled.totals
                continue
            for lanes, skeleton, columns, tails, counts in self._subgroups(column):
                now = self._run_lanes(skeleton, columns, lanes)
                cycles[position, lanes] = now + tails
                counters[lanes] += counts

        segment_cycles = [tuple(run_cycles) for run_cycles in cycles.T.tolist()]
        run_counts = counters.tolist()
        results: List[RunResult] = []
        for run, run_cycles in enumerate(segment_cycles):
            pipeline, fpu = _stats_from_counters(run_counts[run][1:])
            results.append(
                RunResult(
                    cycles=sum(run_cycles),
                    instructions=run_counts[run][0],
                    icache=self.icache.stats_for(run),
                    dcache=self.dcache.stats_for(run),
                    itlb=self.itlb.stats_for(run),
                    dtlb=self.dtlb.stats_for(run),
                    fpu=fpu,
                    pipeline=pipeline,
                    core_id=self.core_id,
                    bus_contention_cycles=int(self.bus.contention[run]),
                )
            )
        return BatchRunOutcome(
            seeds=tuple(), segment_cycles=segment_cycles, results=results
        )

    def _subgroups(self, column: Sequence[Trace]) -> List[Tuple[Any, ...]]:
        """Pack the lanes of one divergent position by event skeleton.

        Per subgroup: its lane indices, the shared skeleton, the ``(6,
        events, lanes)`` per-lane columns, and per lane the segment's
        tail and its instruction + pipeline/FPU counts.
        """
        np = _np
        by_trace: Dict[int, Tuple[Trace, List[int]]] = {}
        for lane, trace in enumerate(column):
            by_trace.setdefault(id(trace), (trace, []))[1].append(lane)
        by_skeleton: Dict[bytes, List[Tuple[_CompiledSegment, List[int]]]] = {}
        for trace, lanes in by_trace.values():
            compiled = _memoized(_compile_segment, trace, self.core_cfg)
            skeleton = compiled.lane_columns()[0]
            by_skeleton.setdefault(skeleton, []).append((compiled, lanes))
        subgroups: List[Tuple[Any, ...]] = []
        for skeleton, members in by_skeleton.items():
            # ``which[i]``: the member (distinct trace) of the i-th lane.
            which = np.repeat(
                np.arange(len(members)), [len(lanes) for _, lanes in members]
            )
            compiled_members = [compiled for compiled, _ in members]
            subgroups.append(
                (
                    np.array([lane for _, lanes in members for lane in lanes]),
                    skeleton,
                    np.stack(
                        [compiled.lane_columns()[1] for compiled in compiled_members],
                        axis=2,
                    )[:, :, which],
                    np.array([compiled.tail for compiled in compiled_members])[which],
                    np.array(
                        [
                            (compiled.length,) + compiled.totals
                            for compiled in compiled_members
                        ],
                        dtype=np.int64,
                    )[which],
                )
            )
        return subgroups

    def _run_shared(self, compiled: _CompiledSegment) -> Any:
        """One segment every lane shares: broadcast component calls, one
        scalar address for all lanes.  Returns the per-lane cycles."""
        np = _np
        icache = self.icache
        dcache = self.dcache
        itlb = self.itlb
        dtlb = self.dtlb
        bus = self.bus
        memory = self.memory
        store_buffer = self.store_buffer
        now = np.zeros(self.runs, dtype=np.int64)
        for (
            gap,
            fetch_pc,
            itlb_page,
            mem_kind,
            addr,
            dtlb_page,
            pre_cost,
        ) in compiled.events:
            if gap:
                now += gap
            if fetch_pc >= 0:
                if itlb_page >= 0:
                    itlb.lookup(itlb_page, now)
                lanes = icache.access(fetch_pc, False)
                if lanes.size:
                    bus.request_lanes(now, True, lanes)
                    memory.access_lanes(fetch_pc, False, now, lanes)
            if mem_kind == _MK_NONE:
                continue
            if pre_cost:
                now += pre_cost
            if dtlb_page >= 0:
                dtlb.lookup(dtlb_page, now)
            if mem_kind == _MK_LOAD:
                lanes = dcache.access(addr, False)
                if lanes.size:
                    bus.request_lanes(now, True, lanes)
                    memory.access_lanes(addr, False, now, lanes)
            else:
                dcache.access(addr, True)
                store_buffer.drain(now)
                now = store_buffer.stall_if_full(now)
                cost = bus.request_all(now, False)
                cost = cost + memory.access_all(addr, True, now)
                store_buffer.push_all(now + cost)
        if compiled.tail:
            now += compiled.tail
        return now

    def _run_lanes(self, skeleton: bytes, columns: Any, lanes: Any) -> Any:
        """One skeleton subgroup of a divergent position: index
        component calls with per-lane values (``columns`` is ``(6,
        events, len(lanes))``).  Returns the lanes' cycles before the
        tail."""
        np = _np
        icache = self.icache
        dcache = self.dcache
        itlb = self.itlb
        dtlb = self.dtlb
        bus = self.bus
        memory = self.memory
        store_buffer = self.store_buffer
        gaps, fetch_pcs, itlb_pages, addrs, dtlb_pages, pre_costs = columns
        dtlb_probes = dtlb_pages >= 0
        probe_any = dtlb_probes.any(axis=1).tolist()
        probe_all = dtlb_probes.all(axis=1).tolist()
        now = np.zeros(lanes.size, dtype=np.int64)

        def fill(miss: Any, line_addrs: Any) -> None:
            # A line fill on the miss lanes: bus, then DRAM at the
            # post-bus time, as the scalar caller charges them.
            miss_lanes = lanes[miss]
            issue = now[miss]
            issue += bus.cost_lanes(issue, True, miss_lanes)
            issue += memory.latency(miss_lanes, line_addrs[miss], False, issue)
            now[miss] = issue

        for event, code in enumerate(skeleton):
            now += gaps[event]
            if code & _HAS_FETCH:
                if code & _HAS_ITLB:
                    now += itlb.lookup_idx(lanes, itlb_pages[event])
                pcs = fetch_pcs[event]
                miss = ~icache.access_idx(lanes, pcs, False)
                if miss.any():
                    fill(miss, pcs)
            mem_kind = code & 3
            if mem_kind == _MK_NONE:
                continue
            now += pre_costs[event]
            if probe_all[event]:
                now += dtlb.lookup_idx(lanes, dtlb_pages[event])
            elif probe_any[event]:
                probing = dtlb_probes[event]
                now[probing] += dtlb.lookup_idx(
                    lanes[probing], dtlb_pages[event][probing]
                )
            addr = addrs[event]
            if mem_kind == _MK_LOAD:
                miss = ~dcache.access_idx(lanes, addr, False)
                if miss.any():
                    fill(miss, addr)
            else:
                dcache.access_idx(lanes, addr, True)
                store_buffer.make_room(lanes, now)
                cost = bus.cost_lanes(now, False, lanes)
                cost = cost + memory.latency(lanes, addr, True, now)
                store_buffer.push(lanes, now + cost)
        return now


def _run_degenerate(
    platform: Platform,
    lane_segments: Sequence[Sequence[Trace]],
    seeds: Sequence[int],
    core_id: int,
) -> BatchRunOutcome:
    """Deterministic platform: measure each distinct segment list once,
    broadcast it to the runs that share it (see :func:`_clone_result`)."""
    measured: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], RunResult]] = {}
    segment_cycles: List[Tuple[int, ...]] = []
    results: List[RunResult] = []
    for segments in lane_segments:
        key = tuple(id(trace) for trace in segments)
        entry = measured.get(key)
        if entry is None:
            platform.reset(seeds[0])
            core = platform.cores[core_id]
            measured_segments = [core.execute(trace) for trace in segments]
            cycles = tuple(result.cycles for result in measured_segments)
            reference = replace(
                measured_segments[-1],
                cycles=sum(cycles),
                instructions=sum(len(trace) for trace in segments),
                bus_contention_cycles=platform.bus.stats.contention_by_master.get(
                    core_id, 0
                ),
            )
            entry = (cycles, reference)
            measured[key] = entry
        segment_cycles.append(entry[0])
        results.append(_clone_result(entry[1]))
    return BatchRunOutcome(
        seeds=tuple(seeds), segment_cycles=segment_cycles, results=results
    )


def run_batch_segments(
    platform: Platform,
    segments: Sequence[Any],
    seeds: Sequence[int],
    core_id: int = 0,
) -> BatchRunOutcome:
    """Execute segment lists back to back for every seed, vectorized.

    ``segments`` is either one list of traces every run executes or one
    list per run (aligned with ``seeds``, all of one length; the traces
    may differ).  Segment semantics match the scalar
    multi-job protocol (:meth:`TvcaApplication.run_once`): each segment
    starts a fresh stepper — the cycle clock and fetch/translation
    locality restart — while caches, TLBs, the store buffer and the bus
    horizon carry over; the platform is fully reset once per run before
    the first segment.  A single-segment call is exactly
    ``platform.run``.

    Lanes at the same position that hold the same trace object advance
    together on scalar addresses; divergent lanes advance per event
    skeleton with per-lane addresses.  Callers get the most sharing by
    passing equal segments as one shared object (as memoized traces
    are).
    """
    if not seeds:
        raise ValueError("seeds must not be empty")
    if not segments:
        raise ValueError("segments must not be empty")
    if isinstance(segments[0], Trace):
        shared = tuple(segments)
        lane_segments: Sequence[Sequence[Trace]] = [shared] * len(seeds)
    else:
        lane_segments = [tuple(run_segments) for run_segments in segments]
        if len(lane_segments) != len(seeds):
            raise ValueError(
                f"{len(lane_segments)} per-run segment lists for "
                f"{len(seeds)} seeds"
            )
        if len({len(run_segments) for run_segments in lane_segments}) != 1:
            raise ValueError("every run needs the same number of segments")
        if not lane_segments[0]:
            raise ValueError("segments must not be empty")
    reason = batch_unsupported_reason(platform, core_id)
    if reason is not None:
        raise BatchUnsupported(reason)
    if not platform.config.is_randomized:
        return _run_degenerate(platform, lane_segments, seeds, core_id)
    engine = _BatchEngine(platform, seeds, core_id)
    outcome = engine.run_segments(lane_segments)
    outcome.seeds = tuple(seeds)
    return outcome


def run_batch(
    platform: Platform,
    trace: Trace,
    seeds: Sequence[int],
    core_id: int = 0,
) -> List[RunResult]:
    """Batched equivalent of ``[platform.run(trace, s, core_id) for s in
    seeds]`` — bit-identical per-run results, one pass over the trace."""
    return run_batch_segments(platform, [trace], seeds, core_id).results
