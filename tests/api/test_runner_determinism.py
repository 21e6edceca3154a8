"""Seed-derivation determinism: sharded campaigns == serial campaigns.

The redesign's core invariant — per-run seeds derive only from
``(base_seed, run_index)`` and every run fully resets the platform — so
serial, 2-shard and 4-shard campaigns must produce identical
``PathSamples`` (same paths, same values, same order) and identical
run records.
"""

import pytest

from repro.api import (
    CampaignConfig,
    CampaignRunner,
    ProgramWorkload,
    TvcaWorkload,
)
from repro.harness import RunRecord
from repro.platform.batch import numpy_available
from repro.platform.soc import leon3_rand
from repro.workloads.kernels import matmul_kernel
from repro.workloads.tvca.app import TvcaConfig

SMALL_TVCA = TvcaConfig(
    estimator_dim=8, aero_elements=64, aero_window=8, hyperperiods=1
)
RUNS = 12
BASE_SEED = 20170327


def _paths_dict(samples):
    return {key: sample.values for key, sample in samples.paths.items()}


def _run(shards: int):
    runner = CampaignRunner(
        CampaignConfig(runs=RUNS, base_seed=BASE_SEED), shards=shards
    )
    return runner.run(TvcaWorkload(SMALL_TVCA), leon3_rand(num_cores=1))


class TestShardDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return _run(shards=1)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_equals_serial(self, serial, shards):
        sharded = _run(shards=shards)
        assert _paths_dict(sharded.samples) == _paths_dict(serial.samples)
        assert sharded.merged.values == serial.merged.values
        assert sharded.run_details == serial.run_details

    def test_records_sorted_and_typed(self, serial):
        assert all(isinstance(r, RunRecord) for r in serial.run_details)
        assert [r.index for r in serial.run_details] == list(range(RUNS))
        cfg = CampaignConfig(runs=RUNS, base_seed=BASE_SEED)
        for record in serial.run_details:
            assert record.platform_seed == cfg.platform_seed(record.index)
            assert record.input_seed == cfg.input_seed(record.index)


class TestShardedProgramCampaign:
    def test_program_workload_shard_invariant(self):
        workload = ProgramWorkload(matmul_kernel(dim=4))
        results = [
            CampaignRunner(
                CampaignConfig(runs=9, base_seed=3), shards=shards
            ).run(workload, leon3_rand(num_cores=1))
            for shards in (1, 2, 4)
        ]
        assert results[0].merged.values == results[1].merged.values
        assert results[1].merged.values == results[2].merged.values

    @pytest.mark.parametrize(
        "backend",
        [
            "scalar",
            pytest.param(
                "batch",
                marks=pytest.mark.skipif(
                    not numpy_available(), reason="batch backend requires numpy"
                ),
            ),
        ],
    )
    def test_progress_routed_in_sharded_mode(self, backend):
        seen = []
        CampaignRunner(
            CampaignConfig(runs=8, base_seed=1), shards=2, backend=backend
        ).run(
            ProgramWorkload(matmul_kernel(dim=3)),
            leon3_rand(num_cores=1),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(i, 8) for i in range(1, 9)]

    def test_more_shards_than_runs(self):
        result = CampaignRunner(
            CampaignConfig(runs=3, base_seed=2), shards=8
        ).run(ProgramWorkload(matmul_kernel(dim=3)), leon3_rand(num_cores=1))
        assert result.num_runs == 3

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            CampaignRunner(CampaignConfig(runs=4), shards=0)
