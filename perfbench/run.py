"""The repro benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tvca_fixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload service_mix --seed 1 --seconds 20 --trace 1

``--trace 0`` measures every end-to-end metric with tracing off.
``--trace 1`` spends half the time untraced and half traced, and reports
every per-layer metric.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the lines
before it are for people.  A results document with provenance, sample
counts, the simulated outputs and (traced pass) the spans is written to
``.perfbench_out/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform as host_platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from calibration import reference_seconds, speed_factor

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = BENCH_DIR / "expected.json"

TVCA_KWARGS = {"estimator_dim": 20, "aero_window": 32}
ONE_CORE = {"num_cores": 1, "cache_kb": 4}
REANALYSIS_METHODS = ("gev", "pot-gpd")
CI = 0.95
SETUP_REPEATS = 5


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: the campaign a cycle requests, and where."""

    name: str
    request: Dict[str, Any]
    service: bool = False
    check_runs: int = 200
    #: Hit and re-analysis rounds per cycle.  Where those requests are
    #: short next to host noise, several rounds per campaign steady them;
    #: where their cost varies with the campaign's data, only more
    #: campaigns per run do.
    hit_rounds: int = 1

    def campaign(self, base_seed: int, runs: Optional[int] = None) -> Any:
        from repro.api import AnalysisRequest, CampaignRequest

        fields = dict(self.request)
        if runs is not None:
            fields["runs"] = runs
        return CampaignRequest(
            base_seed=base_seed, analysis=AnalysisRequest(ci=CI), **fields
        )


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "tvca_varied",
            dict(workload="tvca", platform="rand", runs=120, vary_inputs=True,
                 workload_kwargs=TVCA_KWARGS, platform_kwargs=ONE_CORE),
            check_runs=8,
            hit_rounds=6,
        ),
        WorkloadSpec(
            "tvca_fixed",
            dict(workload="tvca", platform="rand", runs=1500, vary_inputs=False,
                 workload_kwargs=TVCA_KWARGS, platform_kwargs=ONE_CORE),
        ),
        WorkloadSpec(
            "contention_hammer",
            dict(workload="table-walk", platform="rand", runs=600,
                 vary_inputs=False, scenario="opponent-memory-hammer",
                 platform_kwargs={"num_cores": 4, "cache_kb": 4}),
        ),
        WorkloadSpec(
            "service_mix",
            dict(workload="tvca", platform="rand", runs=600, vary_inputs=False,
                 workload_kwargs=TVCA_KWARGS, platform_kwargs=ONE_CORE),
            service=True,
        ),
    )
}

#: Base seed of the fixed-seed output check (digests in expected.json).
CHECK_SEED = 20170327

END_TO_END = [
    ("runs_per_s", "1/s"),
    ("time_to_artifact_s", "s"),
    ("miss_latency_s", "s"),
    ("hit_latency_s", "s"),
    ("reanalyse_latency_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def log(message: str) -> None:
    print(message, flush=True)


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, sample count, and the highest percentile (of 75/90/95/99)
    with at least ten samples beyond it."""
    out: Dict[str, Any] = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            ordered = sorted(values)
            out[f"p{pct}"] = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
            break
    return out


def records_digest(artifact: Any) -> str:
    """SHA-256 of the run-index-ordered ``(path, cycles)`` sequence."""
    rows = [[r.path, r.cycles] for r in sorted(artifact.records, key=lambda r: r.index)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def simulated_outputs(artifact: Any) -> Dict[str, Any]:
    """Digest, mean, HWM, and the pWCET point and CI at 1e-9 of an artifact."""
    merged = artifact.merged
    out: Dict[str, Any] = {
        "digest": records_digest(artifact),
        "mean_cycles": statistics.fmean(merged.values),
        "hwm_cycles": merged.hwm,
    }
    analysis = artifact.analysis or {}
    for p, q in analysis.get("pwcet", []):
        if p == 1e-9:
            out["pwcet_1e-9"] = q
    for p, lo, hi in analysis.get("pwcet_band", []):
        if p == 1e-9:
            out["ci_1e-9"] = [lo, hi]
    return out


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = result.stdout.strip() or commit
    return {
        "commit": commit,
        "host": host_platform.node(),
        "machine": host_platform.machine(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Set-up time: a fresh process until the workload is ready
# ---------------------------------------------------------------------------
def measure_setup(spec: WorkloadSpec, workdir: Path) -> "tuple[List[float], List[float]]":
    """Host and calibrated seconds from starting a fresh process until it
    is ready.  The probe times the reference itself, on its own core."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = str(BENCH_DIR / "setup_probe.py")
    raw: List[float] = []
    scaled: List[float] = []
    for repeat in range(SETUP_REPEATS):
        if spec.service:
            argv = [sys.executable, probe, "--serve", str(workdir / f"setup-store-{repeat}")]
        else:
            argv = [sys.executable, probe, spec.campaign(CHECK_SEED).to_json()]
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            fields = child.stdout.readline().split()
            if len(fields) != 4 or (not spec.service and fields[0] != "ready"):
                raise RuntimeError(f"set-up probe printed {fields!r}")
            if spec.service:
                _wait_healthy(fields[0])
            before, after, spent = map(float, fields[1:])
            ready = time.perf_counter() - start - spent
        finally:
            child.stdin.close()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        raw.append(ready)
        scaled.append(ready * speed_factor([before, after]))
    return raw, scaled


def _wait_healthy(url: str) -> None:
    if not url.startswith("http://"):
        raise RuntimeError(f"set-up probe printed {url!r}, not a daemon URL")
    deadline = time.monotonic() + 30
    while True:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=5) as reply:
                if reply.status == 200:
                    return
        except OSError:
            if time.monotonic() > deadline:
                raise
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------
@dataclass
class PassStats:
    """What one pass (untraced or traced) measured."""

    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    runs: int = 0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    raw: Dict[str, List[float]] = field(default_factory=dict)
    cycle_op_s: List[float] = field(default_factory=list)
    outputs: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, name: str, raw: float, scaled: float) -> None:
        """One sample: unscaled host value and the calibrated value."""
        self.raw.setdefault(name, []).append(raw)
        self.samples.setdefault(name, []).append(scaled)


def run_cycle(spec: WorkloadSpec, client: Any, base_seed: int, stats: PassStats) -> None:
    """One miss, then rounds of one hit and the re-analyses; then check
    every answer.

    A reference timing follows every request, so each request's time is
    scaled by the reference timings on either side of it.  Garbage is
    collected before each request (untimed) so one request's garbage is
    not collected inside the next one's timing.
    """
    from repro.api import AnalysisRequest, CampaignArtifact
    from clients import reanalysis_body

    request = spec.campaign(base_seed)
    analyses = [AnalysisRequest(method=m, ci=CI) for m in REANALYSIS_METHODS]
    operations = 1 + spec.hit_rounds * (1 + len(analyses))
    stats.attempted += operations
    marks = [reference_seconds()]
    cycle_s = 0.0

    def timed(call: Callable[[], Any]) -> Any:
        """(result, host seconds, calibrated seconds) of one request."""
        nonlocal cycle_s
        gc.collect()
        result, seconds = call()
        marks.append(reference_seconds())
        scaled = seconds * speed_factor(
            [marks[-2], *getattr(result, "references", []), marks[-1]]
        )
        cycle_s += scaled
        return result, seconds, scaled

    def send_miss() -> Any:
        result = client.miss(request)
        return result, result.time_to_artifact_s

    hits: List[str] = []
    summaries: List[Any] = []
    try:
        miss, seconds, scaled = timed(send_miss)
        factor = scaled / seconds
        stats.add("time_to_artifact_s", seconds, scaled)
        stats.add("runs_per_s", request.runs / miss.campaign_s,
                  request.runs / (miss.campaign_s * factor))
        stats.add("miss_latency_s", miss.latency_s, miss.latency_s * factor)
        for _ in range(spec.hit_rounds):
            text, seconds, scaled = timed(lambda: client.hit(request, miss))
            hits.append(text)
            stats.add("hit_latency_s", seconds, scaled)
            # One sample per round: the mean over the estimators, whose
            # costs differ, so the median is not taken across two modes.
            pair = [timed(lambda: client.reanalyse(miss, a)) for a in analyses]
            summaries += [(a, answer[0]) for a, answer in zip(analyses, pair)]
            stats.add("reanalyse_latency_s",
                      statistics.fmean(answer[1] for answer in pair),
                      statistics.fmean(answer[2] for answer in pair))
    except Exception:  # a failed request is counted, the run goes on
        traceback.print_exc()
        stats.failed += operations - (len(marks) - 1)
        return
    stats.cycles += 1
    stats.runs += request.runs
    stats.add("reference_s", statistics.median(marks), statistics.median(marks))
    stats.cycle_op_s.append(cycle_s)

    failures = []
    try:
        artifact = CampaignArtifact.from_json(miss.text)  # verifies the digest
        outputs = simulated_outputs(artifact)
        if spec.service and miss.text != local_reference(request):
            failures.append("miss: service artifact differs from the local execute_request")
        failures += ["hit: artifact differs from the miss artifact"
                     for text in hits if text != miss.text]
        for analysis, summary in summaries:
            expected = json.loads(json.dumps(reanalysis_body(artifact, analysis)))
            if summary != expected:
                failures.append(
                    f"reanalyse {analysis.method}: summary differs from the local pipeline"
                )
    except Exception as exc:  # a check that cannot run fails the miss
        failures.append(f"miss: artifact check raised {exc!r}")
        outputs = {}
    outputs["base_seed"] = base_seed
    stats.outputs.append(outputs)
    for failure in failures:
        print(f"check failed (base_seed={base_seed}): {failure}", file=sys.stderr)
    stats.failed += len(failures)


def measure_pass(
    spec: WorkloadSpec, client: Any, seeds: random.Random, seconds: float
) -> PassStats:
    """Run cycles until the next one would end past ``seconds``."""
    stats = PassStats()
    start = time.perf_counter()
    durations: List[float] = []
    while True:
        began = time.perf_counter()
        run_cycle(spec, client, seeds.randrange(1, 2**31), stats)
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(durations) >= seconds:
            return stats


def local_reference(request: Any) -> str:
    """The in-process artifact text the service must reproduce byte for byte."""
    from repro.api import execute_request

    return execute_request(request).artifact().to_json(indent=2) + "\n"


def output_check(spec: WorkloadSpec, client: Any) -> List[str]:
    """Run the fixed-seed check campaign; compare with expected.json."""
    from repro.api import CampaignArtifact

    request = spec.campaign(CHECK_SEED, runs=spec.check_runs)
    try:
        text = client.miss(request).text
        outputs = simulated_outputs(CampaignArtifact.from_json(text))
    except Exception as exc:  # reported as a failed operation
        traceback.print_exc()
        return [f"check campaign raised {exc!r}"]
    expected = json.loads(EXPECTED.read_text()).get(spec.name)
    log(f"check campaign ({spec.check_runs} runs, base_seed={CHECK_SEED}): "
        + json.dumps(outputs))
    failures = []
    if expected != outputs:
        failures.append(f"fixed-seed outputs differ from expected.json: {expected}")
    if spec.service and text != local_reference(request):
        failures.append("service artifact differs from the local execute_request")
    return failures


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-check", action="store_true",
        help="run only the fixed-seed check campaign and write its outputs "
        "to expected.json (use on a commit whose outputs are trusted)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = WORKLOADS[args.workload]
    workdir = OUT / f"work-{spec.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_check:
            return record_check(spec, workdir)
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_check(spec: WorkloadSpec, workdir: Path) -> int:
    from clients import LocalClient
    from repro.api import CampaignArtifact
    from tracing import Tracer

    miss = LocalClient(workdir, Tracer()).miss(
        spec.campaign(CHECK_SEED, runs=spec.check_runs)
    )
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected[spec.name] = simulated_outputs(CampaignArtifact.from_json(miss.text))
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    log(f"recorded {spec.name}: {json.dumps(expected[spec.name])}")
    return 0


def run(args: argparse.Namespace, spec: WorkloadSpec, workdir: Path) -> int:
    from clients import POLL_INTERVAL_S, make_client
    from layers import PER_LAYER, install, layer_metrics, layer_shares
    from tracing import Tracer

    doc: Dict[str, Any] = {"provenance": provenance(args)}
    doc["provenance"]["poll_interval_s"] = POLL_INTERVAL_S if spec.service else None
    seeds = random.Random(f"{spec.name}:{args.seed}")

    setup_raw: List[float] = []
    setup: List[float] = []
    if args.trace == 0:
        setup_raw, setup = measure_setup(spec, workdir)

    tracer = Tracer()
    client = make_client(spec.service, workdir, tracer)
    try:
        check_failures = output_check(spec, client)
        for failure in check_failures:
            print(f"check failed: {failure}", file=sys.stderr)
        untraced_s = args.seconds if args.trace == 0 else args.seconds / 2
        plain = measure_pass(spec, client, seeds, untraced_s)
        traced: Optional[PassStats] = None
        if args.trace == 1:
            tracer = Tracer()
            client.tracer = tracer
            client.probe = False  # per-layer self times need no scaling
            install(tracer)
            try:
                traced = measure_pass(spec, client, seeds, args.seconds / 2)
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        client.close()

    passes = [plain] + ([traced] if traced is not None else [])
    attempted = 1 + sum(p.attempted for p in passes)
    failed = int(bool(check_failures)) + sum(p.failed for p in passes)
    if plain.cycles == 0 or (traced is not None and traced.cycles == 0):
        print("error: no cycle completed", file=sys.stderr)
        return 1

    scaled = dict(plain.samples)
    raw = dict(plain.raw)
    if setup:
        scaled["setup_s"], raw["setup_s"] = setup, setup_raw
    summaries = {name: summarize(values) for name, values in scaled.items()}
    summaries["peak_rss_mb"] = {"median": peak_rss_mb, "n": 1}
    doc["end_to_end"] = summaries
    doc["end_to_end_unscaled"] = {name: summarize(v) for name, v in raw.items()}
    doc["samples"] = {"scaled": scaled, "unscaled": raw}
    doc["outputs"] = [o for p in passes for o in p.outputs]
    doc["failed_frac"] = failed / attempted
    log(f"workload {spec.name}: {plain.cycles} untraced cycles, "
        f"{plain.runs} runs, attempted={attempted} failed={failed} "
        f"failed_frac={failed / attempted:.4f}")
    log("simulated outputs (model not validated against LEON3 hardware; "
        "no accuracy figure):")
    for outputs in doc["outputs"]:
        log("  " + json.dumps(outputs))

    metrics: Dict[str, Dict[str, Any]] = {}
    if traced is None:
        for name, unit in END_TO_END:
            summary = summaries[name]
            unscaled = doc["end_to_end_unscaled"].get(name, summary)["median"]
            log(f"{name:>22} = {summary['median']:.6g} {unit}  (n={summary['n']}; "
                f"unscaled {unscaled:.6g})")
            metrics[name] = {"value": summary["median"], "unit": unit}
    else:
        values = layer_metrics(
            tracer, traced.cycles, traced.runs, sum(traced.raw["miss_latency_s"])
        )
        values["trace.overhead_frac"] = (
            statistics.median(traced.cycle_op_s) / statistics.median(plain.cycle_op_s)
            - 1.0
        )
        shares = layer_shares(tracer)
        doc["per_layer"] = values
        doc["layer_shares"] = shares
        for name, unit in PER_LAYER:
            log(f"{name:>36} = {values[name]:.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
        log("layer shares of traced request time:")
        for layer, share in shares.items():
            log(f"  {layer:<36} {100 * share:6.2f} %")
        spans_path = OUT / f"spans-{spec.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.to_records()))
        log(f"spans written to {spans_path}")
    results_path = OUT / f"results-{spec.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log(f"results written to {results_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
