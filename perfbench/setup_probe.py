"""Set-up probe: a fresh process that makes one workload ready.

    python3 setup_probe.py '<CampaignRequest JSON>'   # prints "ready"
    python3 setup_probe.py --serve STORE_DIR          # prints the daemon URL

The first form imports ``repro``, validates the request, builds the
workload and platform and prepares the workload, then prints ``ready``
and exits.  The second starts a ``repro serve`` daemon on an ephemeral
port, prints its URL, and serves until standard input closes.  The
benchmark times each from process start to ready (for the daemon: to
its first ``/healthz`` answer).  ``PYTHONPATH`` must name ``src``.

The probe also times the calibration reference itself, first thing and
once ready, on whatever core it runs on; the printed line ends with
those two timings and the seconds they took, which the benchmark
subtracts.
"""

from __future__ import annotations

import sys
import threading
import time

from calibration import reference_seconds


def _timed_reference() -> "tuple[float, float]":
    start = time.perf_counter()
    seconds = reference_seconds()
    return seconds, time.perf_counter() - start


def main(argv: list) -> int:
    before, spent = _timed_reference()
    if argv[:1] == ["--serve"]:
        from repro.service import serve

        server = serve(argv[1], port=0, workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        after, spent_after = _timed_reference()
        print(server.url, before, after, spent + spent_after, flush=True)
        sys.stdin.read()
        server.shutdown()
        thread.join(timeout=30)
        return 0
    from repro.api import CampaignRequest

    request = CampaignRequest.from_json(argv[0])
    workload = request.build_workload()
    workload.prepare(request.build_platform())
    after, spent_after = _timed_reference()
    print("ready", before, after, spent + spent_after, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
