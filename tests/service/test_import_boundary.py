"""The hub and satellite paths load no fuzz, campaign or workload code.

The problem tree lives in :mod:`repro.api.codec`, so decoding a tree
submission, fingerprinting a problem, a cached ``solve_many`` and a
satellite's claim decode need nothing above the façade.  (A ``spec``
submission loads :mod:`repro.campaign.specs`, which builds it.)
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

FOREIGN = ("repro.fuzz", "repro.campaign", "repro.vnm", "repro.workloads")

SCRIPT = r"""
import json
import sys

import repro.service.app
from repro.api import FormulaProblem, problem_fingerprint, solve_many
from repro.api.codec import problem_to_json
from repro.kodkod import Bounds, Universe, relation
import repro.service.satellite
from repro.service.schema import decode_submission
from repro.service.workers import solve_job

universe = Universe(["a", "b"])
r = relation("r", 1)
bounds = Bounds(universe)
bounds.bound(r, universe.empty(1), universe.all_tuples(1))
problem = FormulaProblem(r.some(), bounds)
submission = decode_submission({"problem": problem_to_json(problem)})
assert problem_fingerprint(problem) == submission.fingerprint
(result,) = solve_many([problem], cache_dir=sys.argv[1])
assert result.verdict.value == "sat"
claimed = solve_job(submission.payload())
assert claimed["verdict"] == "sat", claimed
print(json.dumps(sorted(sys.modules)))
"""


def test_tree_jobs_load_nothing_above_the_facade(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "cache")],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "repro.service.app" in loaded
    assert [name for name in loaded
            if name.startswith(tuple(f"{p}." for p in FOREIGN))
            or name in FOREIGN] == []
