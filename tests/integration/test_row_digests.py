"""The campaign and fuzz row digests: oracles and sweeps must not drift.

Each digest hashes every row a default sweep produces, minus the
detail keys that hold wall-clock seconds.  A change that moves one
verdict, detail value or coverage point anywhere in the 92 campaign rows
or the 200 fuzz checks moves its digest:

* campaign: ``[family, seed, params, spec_hash, oracle, agree, error is
  None, detail]`` per row of ``run_campaign(build_default_campaign(
  instances=48), shards=1, cache_dir=None)``, hashed as
  ``sha256(json.dumps(rows, sort_keys=True))[:16]``;
* fuzz: ``json.dumps([label, oracle, agree, error is None, detail,
  sorted(coverage)], sort_keys=True)`` per check of ``run_fuzz(seed=0,
  budget=200, cache_dir=None)``, hashed as
  ``sha256(json.dumps(sorted(lines)))[:16]``.

Both sweeps run inline in a few seconds.
"""

import hashlib
import json

import pytest

from repro.campaign import build_default_campaign, run_campaign
from repro.campaign.oracles import ORACLES
from repro.fuzz import run_fuzz

pytestmark = pytest.mark.skipif(
    "external" in ORACLES,
    reason="REPRO_EXTERNAL_SOLVER arms the external oracle, which adds "
           "rows and coverage points")


def _timeless(detail: dict) -> dict:
    return {key: value for key, value in detail.items()
            if "seconds" not in key}


def test_campaign_rows_are_unchanged():
    report = run_campaign(build_default_campaign(instances=48), shards=1,
                          cache_dir=None)
    rows = [[row.family, row.seed, row.params, row.spec_hash, row.oracle,
             row.agree, row.error is None, _timeless(row.detail)]
            for row in report.results]
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]
    assert (digest, len(rows)) == ("01b3158b67359544", 92)


def test_fuzz_rows_are_unchanged():
    report = run_fuzz(seed=0, budget=200, cache_dir=None)
    rows = sorted(
        json.dumps([check.label, check.oracle, check.agree,
                    check.error is None, _timeless(check.detail),
                    sorted(check.coverage)], sort_keys=True)
        for check in report.checks)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert (digest, len(rows), report.generations, report.coverage_points,
            report.corpus_size) == ("4676c95599c04e98", 200, 15, 141, 28)
