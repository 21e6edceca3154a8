#!/usr/bin/env python
"""Adaptive campaign: stop collecting once the estimate has converged.

The paper executes TVCA 3,000 times — a count chosen because it
"satisfied the convergence criteria defined in the MBPTA process".
This example applies that stopping rule *online*: the campaign watches
the per-path pWCET estimate as runs stream in and halts at the first
run where the MBPTA convergence criterion holds, with the requested
run count acting only as a cap.

It then re-runs the same campaign sharded across worker processes to
show the early-stopping decision is scheduling-independent: the
surviving records — and hence the artifact — are bit-identical.  The
script exits non-zero if they are not.

Run:  python examples/adaptive_campaign.py [max_runs]
"""

import sys

from repro.api import (
    CampaignArtifact,
    CampaignConfig,
    CampaignRunner,
    create_platform,
    create_workload,
)
from repro.core import ConvergencePolicy


def main() -> None:
    max_runs = int(sys.argv[1]) if len(sys.argv) > 1 else 1500

    workload = create_workload("tvca", estimator_dim=8, aero_window=8)
    platform = create_platform("rand", num_cores=1, cache_kb=4)
    config = CampaignConfig(runs=max_runs, base_seed=2017)
    # Small blocks + frequent checkpoints suit this reduced-scale TVCA;
    # the defaults (block 20, step 100) match paper-scale campaigns.
    policy = ConvergencePolicy(
        probability=1e-9, tolerance=0.02, step=25, block_size=5
    )

    print(f"adaptive campaign, cap {max_runs} runs ...")
    result = CampaignRunner(config).run(workload, platform, convergence=policy)

    summary = result.convergence
    verdict = "converged" if summary.converged else "hit the cap unconverged"
    print(f"stopped after {result.runs_used}/{result.runs_requested} runs ({verdict})")
    for path, report in summary.paths.items():
        print(f"\npath {path}: checkpointed pWCET@{report.probability:g}")
        for n, estimate in report.history:
            marker = " <- stable" if n == report.runs_needed else ""
            print(f"  n={n:5d}  estimate={estimate:12.1f}{marker}")

    # Same campaign, 4 shards: the stopping decision is a pure function
    # of the observation sequence in run-index order, so the artifact is
    # bit-identical to the serial one.
    sharded = CampaignRunner(config, shards=4).run(
        workload, platform, convergence=policy
    )
    serial_json = CampaignArtifact.from_result(result, config=config).to_json()
    sharded_json = CampaignArtifact.from_result(sharded, config=config).to_json()
    identical = sharded_json == serial_json
    print(f"\nsharded run stopped at {sharded.runs_used} runs; "
          f"artifact bit-identical to serial: {identical}")
    if not identical:
        sys.exit("sharded artifact differs from the serial one")


if __name__ == "__main__":
    main()
