"""Which ``repro`` call points the traced pass wraps, and the per-layer
metrics derived from the recorded spans.

Every wrapped callable is public and is patched where its caller looks
it up (``generate_trace`` as ``tvca.app`` and ``api.workload`` bind it,
``execute_request`` as ``service.jobs`` binds it, ...).  Span names are
``<layer>.<call>``; the metrics below reduce them per measured cycle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracing import Tracer

# Analysis stage name -> span name.
STAGES = {
    "normalize": "analysis.normalize",
    "iid-gate": "analysis.iid_gate",
    "tail-fit": "analysis.tail_fit",
    "diagnostics": "analysis.diagnostics",
    "bootstrap": "analysis.bootstrap",
    "envelope": "analysis.envelope",
}

# Root span names, one per request kind of a cycle.
ROOTS = ("op.miss", "op.hit", "op.reanalyse")


class _TimedStage:
    """A pipeline stage that records a span around ``run``."""

    def __init__(self, stage: Any, tracer: Tracer) -> None:
        self.stage = stage
        self.name = stage.name
        self._tracer = tracer

    def run(self, ctx: Any) -> None:
        if not self._tracer.recording:
            self.stage.run(ctx)
            return
        with self._tracer.span(STAGES.get(self.name, "analysis." + self.name)):
            self.stage.run(ctx)


def install(tracer: Tracer) -> None:
    """Wrap every traced call point (undo with ``tracer.uninstall()``)."""
    from repro.api import artifacts, requests
    from repro.api import workload as api_workload
    from repro.core.analysis import pipeline
    from repro.platform import batch, batch_concurrent, core, soc
    from repro.service import jobs, server, store
    from repro.workloads.tvca import app

    def emitted(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        tracer.count("programs.instructions", len(result[0]))

    def executed(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        tracer.count("platform.instructions", result.instructions)

    def segment_lanes(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        lanes = len(args[2])
        tracer.count("batch.lanes", lanes)
        tracer.count("batch.lane_instructions", lanes * sum(len(s) for s in args[1]))

    def concurrent_lanes(
        args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any
    ) -> None:
        lanes = len(args[2])
        analysis_core = kwargs.get("analysis_core", 0)
        tracer.count("batch_concurrent.lanes", lanes)
        tracer.count(
            "batch_concurrent.lane_instructions",
            lanes * len(args[1][analysis_core]),
        )

    def serialized(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        tracer.count("artifact.bytes", len(result))

    def probed(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> None:
        tracer.count("service.store_probes")
        if result:
            tracer.count("service.store_hits")

    tracer.wrap(app.TvcaApplication, "build_plan", "tvca.build_plan")
    tracer.wrap(app, "generate_trace", "programs.generate_trace", emitted)
    tracer.wrap(api_workload, "generate_trace", "programs.generate_trace", emitted)
    tracer.wrap(app, "simulate_timeline", "tvca.finalize")
    tracer.wrap(api_workload, "simulate_timeline", "tvca.finalize")
    tracer.wrap(core.Core, "execute", "platform.core_execute", executed)
    tracer.wrap(soc.Platform, "run_concurrent", "platform.run_concurrent")
    tracer.wrap(batch, "run_batch_segments", "batch.engine", segment_lanes)
    tracer.wrap(
        batch_concurrent, "run_concurrent_batch", "batch_concurrent.engine",
        concurrent_lanes,
    )
    stages = pipeline.default_stages
    tracer.wrap_value(
        pipeline, "default_stages",
        lambda: [_TimedStage(stage, tracer) for stage in stages()],
    )
    tracer.wrap(requests.CampaignExecution, "artifact", "artifact.build")
    tracer.wrap(artifacts.CampaignArtifact, "to_json", "artifact.to_json", serialized)
    tracer.wrap(artifacts.CampaignArtifact, "from_json", "artifact.from_json")
    tracer.wrap(artifacts.CampaignArtifact, "save", "artifact.save")
    tracer.wrap(artifacts.CampaignArtifact, "load", "artifact.load")
    tracer.wrap(jobs, "execute_request", "service.execute_request")
    tracer.wrap(server.CampaignService, "dispatch", "service.dispatch")
    tracer.wrap(store.PersistentStore, "has_campaign", "service.store_has_campaign", probed)
    tracer.wrap(store.PersistentStore, "load_campaign", "service.store_load_campaign")
    tracer.wrap(store.PersistentStore, "save_campaign", "service.store_save_campaign")
    tracer.wrap(store.PersistentStore, "save_job_artifact", "service.store_save_job_artifact")
    tracer.wrap(
        store.PersistentStore, "load_job_artifact_text",
        "service.store_load_job_artifact",
    )


# (metric name, unit) in the order BENCHMARK.json lists them.
PER_LAYER: List[Tuple[str, str]] = [
    ("tvca.build_plan_s", "s"),
    ("tvca.build_plan_calls", "count"),
    ("programs.generate_trace_s", "s"),
    ("programs.instructions_emitted", "count"),
    ("tvca.finalize_s", "s"),
    ("tvca.finalize_calls", "count"),
    ("api.self_s", "s"),
    ("api.run_groups", "count"),
    ("api.batched_run_frac", "ratio"),
    ("platform.core_execute_s", "s"),
    ("platform.core_execute_segments", "count"),
    ("platform.scalar_minstr_per_s", "Minstr/s"),
    ("platform.run_concurrent_s", "s"),
    ("batch.engine_s", "s"),
    ("batch.calls", "count"),
    ("batch.lanes", "count"),
    ("batch.lane_minstr_per_s", "Minstr/s"),
    ("batch_concurrent.engine_s", "s"),
    ("batch_concurrent.calls", "count"),
    ("batch_concurrent.lanes", "count"),
    ("batch_concurrent.lane_minstr_per_s", "Minstr/s"),
    ("analysis.normalize_s", "s"),
    ("analysis.iid_gate_s", "s"),
    ("analysis.tail_fit_s", "s"),
    ("analysis.diagnostics_s", "s"),
    ("analysis.bootstrap_s", "s"),
    ("analysis.envelope_s", "s"),
    ("artifact.build_s", "s"),
    ("artifact.to_json_s", "s"),
    ("artifact.from_json_s", "s"),
    ("artifact.save_s", "s"),
    ("artifact.load_s", "s"),
    ("artifact.bytes", "bytes"),
    ("service.submit_s", "s"),
    ("service.polls_per_job", "count"),
    ("service.job_exec_s", "s"),
    ("service.overhead_s", "s"),
    ("service.dispatch_s", "s"),
    ("service.client_wait_s", "s"),
    ("service.store_save_campaign_s", "s"),
    ("service.store_load_campaign_s", "s"),
    ("service.store_load_job_artifact_s", "s"),
    ("service.store_hit_frac", "ratio"),
    ("bench.root_self_s", "s"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

# Layer -> span names whose self time it owns (for the share table).
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "programs": ("programs.generate_trace",),
    "workloads.tvca": ("tvca.build_plan", "tvca.finalize"),
    "api": ("api.execute_request", "service.execute_request"),
    "platform": ("platform.core_execute", "platform.run_concurrent"),
    "platform.batch": ("batch.engine",),
    "platform.batch_concurrent": ("batch_concurrent.engine",),
    "core.analysis": tuple(STAGES.values()),
    "api.artifacts": (
        "artifact.build", "artifact.to_json", "artifact.from_json",
        "artifact.save", "artifact.load",
    ),
    "service": (
        "service.client", "service.dispatch", "service.store_has_campaign",
        "service.store_load_campaign", "service.store_save_campaign",
        "service.store_save_job_artifact", "service.store_load_job_artifact",
    ),
    "root (benchmark glue)": ROOTS,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, cycles: int, runs_executed: int, miss_latency_total: float
) -> Dict[str, float]:
    """Per-layer values per measured cycle (counts and self times).

    ``runs_executed`` is the number of measured runs the traced cycles
    asked the campaign layer for; ``miss_latency_total`` the summed
    client-observed latency of the traced miss requests.
    """
    self_s = tracer.self_times()
    dur = tracer.durations()
    calls = tracer.calls()
    counts = tracer.counts
    per = 1.0 / cycles

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(name: str) -> float:
        return float(calls.get(name, 0))

    batched = counts["batch.lanes"] + counts["batch_concurrent.lanes"]
    scalar_runs = max(runs_executed - batched, 0)
    roots = sum(dur.get(name, 0.0) for name in ROOTS)
    job_exec = dur.get("service.execute_request", 0.0)
    return {
        "tvca.build_plan_s": s("tvca.build_plan") * per,
        "tvca.build_plan_calls": n("tvca.build_plan") * per,
        "programs.generate_trace_s": s("programs.generate_trace") * per,
        "programs.instructions_emitted": counts["programs.instructions"] * per,
        "tvca.finalize_s": s("tvca.finalize") * per,
        "tvca.finalize_calls": n("tvca.finalize") * per,
        "api.self_s": (s("api.execute_request") + s("service.execute_request")) * per,
        "api.run_groups": (
            n("batch.engine") + n("batch_concurrent.engine") + scalar_runs
        ) * per,
        "api.batched_run_frac": _ratio(batched, runs_executed),
        "platform.core_execute_s": s("platform.core_execute") * per,
        "platform.core_execute_segments": n("platform.core_execute") * per,
        "platform.scalar_minstr_per_s": _ratio(
            counts["platform.instructions"], s("platform.core_execute")
        ) / 1e6,
        "platform.run_concurrent_s": s("platform.run_concurrent") * per,
        "batch.engine_s": s("batch.engine") * per,
        "batch.calls": n("batch.engine") * per,
        "batch.lanes": counts["batch.lanes"] * per,
        "batch.lane_minstr_per_s": _ratio(
            counts["batch.lane_instructions"], s("batch.engine")
        ) / 1e6,
        "batch_concurrent.engine_s": s("batch_concurrent.engine") * per,
        "batch_concurrent.calls": n("batch_concurrent.engine") * per,
        "batch_concurrent.lanes": counts["batch_concurrent.lanes"] * per,
        "batch_concurrent.lane_minstr_per_s": _ratio(
            counts["batch_concurrent.lane_instructions"],
            s("batch_concurrent.engine"),
        ) / 1e6,
        **{
            span + "_s": s(span) * per
            for span in STAGES.values()
        },
        "artifact.build_s": s("artifact.build") * per,
        "artifact.to_json_s": s("artifact.to_json") * per,
        "artifact.from_json_s": s("artifact.from_json") * per,
        "artifact.save_s": s("artifact.save") * per,
        "artifact.load_s": s("artifact.load") * per,
        "artifact.bytes": counts["artifact.bytes"] * per,
        "service.submit_s": counts["service.submit_s"] * per,
        "service.polls_per_job": _ratio(
            counts["service.polls"], counts["service.jobs"]
        ),
        "service.job_exec_s": job_exec * per,
        "service.overhead_s": (
            max(miss_latency_total - job_exec, 0.0) * per if job_exec else 0.0
        ),
        "service.dispatch_s": s("service.dispatch") * per,
        "service.client_wait_s": s("service.client") * per,
        "service.store_save_campaign_s": s("service.store_save_campaign") * per,
        "service.store_load_campaign_s": s("service.store_load_campaign") * per,
        "service.store_load_job_artifact_s": (
            s("service.store_load_job_artifact") * per
        ),
        "service.store_hit_frac": _ratio(
            counts["service.store_hits"], counts["service.store_probes"]
        ),
        "bench.root_self_s": sum(s(name) for name in ROOTS) * per,
        "trace.attributed_frac": _ratio(
            sum(self_s.values()) - sum(s(name) for name in ROOTS), roots
        ),
    }


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Each layer's self time as a share of all traced request time."""
    self_s = tracer.self_times()
    dur = tracer.durations()
    roots = sum(dur.get(name, 0.0) for name in ROOTS)
    return {
        layer: _ratio(sum(self_s.get(name, 0.0) for name in names), roots)
        for layer, names in LAYER_SPANS.items()
    }
