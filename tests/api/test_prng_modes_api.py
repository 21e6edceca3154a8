"""Exact-mode byte stability across the removal of the ``prng_mode`` knob.

The platform draws from its hardware multi-LFSR generator only.  Old
clients and stored job snapshots may still carry ``"prng_mode":
"exact"``; such payloads must hash and execute exactly like payloads
without the key, and neither the platform fingerprint nor the artifact
may carry the key, so existing artifact caches and byte-for-byte diffs
stay valid.
"""

import json

from repro.api import CampaignRequest, execute_request
from repro.api.artifacts import platform_fingerprint

SMALL = dict(
    workload="matmul",
    platform="rand",
    runs=12,
    base_seed=7,
    workload_kwargs={"dim": 3},
    platform_kwargs={"num_cores": 1, "cache_kb": 4},
)


def legacy_exact_request():
    payload = dict(CampaignRequest(**SMALL).to_dict(), prng_mode="exact")
    return CampaignRequest.from_dict(payload)


class TestDigests:
    def test_exact_mode_digest_is_byte_stable(self):
        # The legacy explicit default and the key's absence hash
        # identically: no pre-existing exact-mode artifact cache entry
        # is invalidated.
        exact = CampaignRequest(**SMALL)
        assert exact.execution_digest() == legacy_exact_request().execution_digest()
        assert "prng_mode" not in platform_fingerprint(exact.build_platform())


class TestExecution:
    def test_exact_artifact_stays_byte_stable(self):
        # Exact-mode artifacts must not grow keys: existing stores diff
        # artifacts byte-for-byte.
        execution = execute_request(CampaignRequest(**SMALL))
        text = execution.artifact().to_json()
        payload = json.loads(text)
        assert "prng_mode" not in payload["config"]
        assert "prng_mode" not in payload["platform"]
        assert execute_request(legacy_exact_request()).artifact().to_json() == text
