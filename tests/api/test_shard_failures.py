"""Failure paths of the forked campaign driver.

A shard whose workload raises must fail the campaign with an error
naming the shard and carrying the original exception; a shard whose
process dies without reporting (signal, OOM, ``os._exit``) must be
detected from its exit code instead of leaving the parent waiting
forever.  Both hold for fixed-budget and adaptive campaigns, and no
worker process outlives the failed campaign.
"""

import contextlib
import multiprocessing as mp
import os
import signal

import pytest

from repro.api import (
    CampaignConfig,
    CampaignRunner,
    ConvergencePolicy,
    RunObservation,
)
from repro.platform.soc import leon3_rand

RUNS = 12
#: Strided over two shards, run 5 belongs to shard 1 (runs 1, 3, 5, ...).
FAILING_RUN = 5
CONFIG = CampaignConfig(runs=RUNS, base_seed=31)
#: Cannot converge within RUNS observations (first checkpoint at 25).
NEVER_CONVERGES = ConvergencePolicy(step=25, block_size=5)
#: Upper bound on a failing campaign's wall time; the dead-worker scan
#: needs about one queue timeout (1 s).
HANG_GUARD_S = 30

requires_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="sharding needs the fork start method",
)


class _FailingWorkload:
    """Cheap plan-less workload that fails on run ``FAILING_RUN``.

    ``exit_code=None`` raises inside ``execute``; otherwise the worker
    process exits on the spot with that code, never reporting back.
    """

    name = "failing"

    def __init__(self, exit_code=None):
        self.exit_code = exit_code
        self.failing_seed = CONFIG.platform_seed(FAILING_RUN)

    def prepare(self, platform):
        pass

    def execute(self, platform, run_seed, input_seed):
        if run_seed == self.failing_seed:
            if self.exit_code is not None:
                os._exit(self.exit_code)
            raise ValueError(f"injected failure at run {FAILING_RUN}")
        return RunObservation(cycles=float(run_seed % 1000), path="p")


@contextlib.contextmanager
def _hang_guard(seconds):
    """Fail the test (rather than hang the suite) past ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"campaign still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _sharded_campaign(workload, convergence):
    runner = CampaignRunner(CONFIG, shards=2)
    with _hang_guard(HANG_GUARD_S):
        return runner.run(
            workload, leon3_rand(num_cores=1), convergence=convergence
        )


@requires_fork
@pytest.mark.parametrize(
    "convergence", [None, NEVER_CONVERGES], ids=["fixed", "adaptive"]
)
class TestShardFailures:
    def test_raising_shard_fails_campaign_naming_it(self, convergence):
        with pytest.raises(RuntimeError) as failure:
            _sharded_campaign(_FailingWorkload(), convergence)
        message = str(failure.value)
        assert "shard 1" in message
        assert f"injected failure at run {FAILING_RUN}" in message
        assert mp.active_children() == []

    def test_dead_worker_fails_campaign_without_hanging(self, convergence):
        with pytest.raises(RuntimeError) as failure:
            _sharded_campaign(_FailingWorkload(exit_code=3), convergence)
        assert "shard 1: worker died with exit code 3" in str(failure.value)
        assert mp.active_children() == []
