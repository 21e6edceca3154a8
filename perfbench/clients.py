"""The two ways a cycle reaches ``repro``: in-process and through the
campaign service.

A cycle requests a campaign that must execute (*miss*), then the same
campaign answered from stored measurements (*hit*) and re-analyses of
the stored campaign with other tail estimators.  The local client
serves the hit and the re-analyses from the artifact it saved,
in-process; the service client sends every request to a ``repro serve``
daemon over HTTP.  Both return the same texts for the same
request (the local == service contract the cycle check enforces).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.api import AnalysisRequest, CampaignArtifact, CampaignRequest, execute_request
from repro.api.artifacts import analysis_summary
from repro.core.analysis import AnalysisPipeline
from repro.service import ServiceClient, serve

from calibration import reference_seconds
from tracing import Tracer

#: Fixed poll interval of the service client (seconds).  Polling competes
#: with the in-process daemon for the interpreter lock, so a shorter
#: interval inflates the latency it measures; a longer one quantizes it.
POLL_INTERVAL_S = 0.02


#: Interval between reference timings taken inside a local campaign.
PROBE_INTERVAL_S = 0.5


@dataclass
class Miss:
    """What a miss request returned, with its client-side timings.

    ``references`` are reference timings taken during the campaign (their
    own time is already subtracted from the timings).
    """

    text: str
    path: Path
    handle: str
    campaign_s: float
    latency_s: float
    time_to_artifact_s: float
    references: List[float] = field(default_factory=list)


def reanalysis_body(artifact: CampaignArtifact, analysis: AnalysisRequest) -> Dict[str, Any]:
    """The re-analysis summary, computed exactly as the daemon does."""
    config = analysis.analysis_config(artifact.num_runs)
    return analysis_summary(AnalysisPipeline(config).run(artifact.samples))


class LocalClient:
    """In-process: ``execute_request`` and the saved artifact file.

    With ``probe`` set, a campaign's progress callback takes a reference
    timing every :data:`PROBE_INTERVAL_S`, so host speed is sampled
    during long campaigns too, not only around them.
    """

    def __init__(self, workdir: Path, tracer: Tracer) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.probe = True
        self._seq = 0

    def close(self) -> None:
        pass

    def miss(self, request: CampaignRequest) -> Miss:
        self._seq += 1
        path = self.workdir / f"campaign-{self._seq:04d}.json"
        references: List[float] = []
        spent = 0.0
        campaign_end = 0.0
        next_probe = time.perf_counter() + PROBE_INTERVAL_S

        def progress(done: int, total: int) -> None:
            nonlocal spent, campaign_end, next_probe
            now = time.perf_counter()
            if done == total:
                campaign_end = now - spent
            elif self.probe and now >= next_probe:
                references.append(reference_seconds())
                next_probe = time.perf_counter()
                spent += next_probe - now
                next_probe += PROBE_INTERVAL_S

        with self.tracer.span("op.miss", root=True):
            start = time.perf_counter()
            with self.tracer.span("api.execute_request"):
                execution = execute_request(request, progress=progress)
            executed = time.perf_counter() - spent
            execution.artifact().save(path)
            saved = time.perf_counter() - spent
        return Miss(
            text=path.read_text(),
            path=path,
            handle=str(path),
            campaign_s=campaign_end - start,
            latency_s=executed - start,
            time_to_artifact_s=saved - start,
            references=references,
        )

    def hit(self, request: CampaignRequest, miss: Miss) -> "tuple[str, float]":
        assert request.analysis is not None
        with self.tracer.span("op.hit", root=True):
            start = time.perf_counter()
            artifact = CampaignArtifact.load(miss.path)
            config = request.analysis.analysis_config(artifact.num_runs)
            artifact.attach_analysis(AnalysisPipeline(config).run(artifact.samples))
            text = artifact.to_json(indent=2) + "\n"
            elapsed = time.perf_counter() - start
        return text, elapsed

    def reanalyse(self, miss: Miss, analysis: AnalysisRequest) -> "tuple[Dict[str, Any], float]":
        with self.tracer.span("op.reanalyse", root=True):
            start = time.perf_counter()
            artifact = CampaignArtifact.from_json(miss.path.read_text())
            body = json.dumps({"analysis": reanalysis_body(artifact, analysis)})
            elapsed = time.perf_counter() - start
        return json.loads(body)["analysis"], elapsed


class DaemonClient:
    """Through an in-process ``repro serve`` daemon on an ephemeral port.

    The daemon runs in this process (``repro.service.serve``) so the
    traced pass can wrap its calls; one worker, a fresh store.
    """

    def __init__(self, workdir: Path, tracer: Tracer) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.server = serve(workdir / "store", port=0, workers=1)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-daemon", daemon=True
        )
        self._thread.start()
        self.client = ServiceClient(self.server.url, timeout=120.0)
        self.client.healthz()
        self.probe = False  # the campaign runs on the daemon's thread
        self._seq = 0

    def close(self) -> None:
        self.server.shutdown()
        self._thread.join(timeout=30.0)

    def _round_trip(self, request: CampaignRequest) -> "tuple[str, str, float, float]":
        """Submit, poll at the fixed interval, fetch: (job, text, done_s, total_s)."""
        with self.tracer.span("service.client"):
            return self._submit_poll_fetch(request)

    def _submit_poll_fetch(self, request: CampaignRequest) -> "tuple[str, str, float, float]":
        start = time.perf_counter()
        job_id = str(self.client.submit(request)["job"]["id"])
        submitted = time.perf_counter()
        self.tracer.count("service.submit_s", submitted - start)
        self.tracer.count("service.jobs")
        while True:
            self.tracer.count("service.polls")
            snapshot = self.client.job(job_id)
            if snapshot["state"] == "done":
                break
            if snapshot["state"] == "failed":
                raise RuntimeError(f"{job_id} failed: {snapshot['error']}")
            time.sleep(POLL_INTERVAL_S)
        done = time.perf_counter()
        text = self.client.artifact_text(job_id)
        return job_id, text, done - start, time.perf_counter() - start

    def miss(self, request: CampaignRequest) -> Miss:
        self._seq += 1
        path = self.workdir / f"campaign-{self._seq:04d}.json"
        with self.tracer.span("op.miss", root=True):
            start = time.perf_counter()
            job_id, text, done_s, latency = self._round_trip(request)
            path.write_text(text)
            saved = time.perf_counter()
        return Miss(
            text=text,
            path=path,
            handle=job_id,
            campaign_s=done_s,
            latency_s=latency,
            time_to_artifact_s=saved - start,
        )

    def hit(self, request: CampaignRequest, miss: Miss) -> "tuple[str, float]":
        with self.tracer.span("op.hit", root=True):
            _, text, _, latency = self._round_trip(request)
        return text, latency

    def reanalyse(self, miss: Miss, analysis: AnalysisRequest) -> "tuple[Dict[str, Any], float]":
        with self.tracer.span("op.reanalyse", root=True):
            start = time.perf_counter()
            with self.tracer.span("service.client"):
                reply = self.client.analyse(miss.handle, analysis)
            elapsed = time.perf_counter() - start
        return reply["analysis"], elapsed


def make_client(service: bool, workdir: Path, tracer: Tracer) -> Any:
    return (DaemonClient if service else LocalClient)(workdir, tracer)
