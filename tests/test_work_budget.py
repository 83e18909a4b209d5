"""Work budgets: the Python-function calls each benchmark workload makes,
and the parent-presence lookups, C-level work that no call count sees.

Each workload of `perfbench/workloads.py` runs at seed 1, at its benchmark
size, in a fresh process with the string-hash seed pinned. Calls are
counted under cProfile from `Profile.getstats()`, one entry per code object;
`pstats` keys every dataclass-generated `__init__` alike and keeps one of
them, so its totals fall short. A count may not rise above its ceiling. A
change that lowers a count lowers its ceiling with it, so the gate only
tightens; a change that must raise one re-pins it and says why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the CPython release the ceilings were measured on. The counts include
# every standard-library frame a run enters (dataclass-generated methods,
# enum), whose Python code another release, a patch release included, may
# change, so the ceilings hold only on this one.
MEASURED_ON = (3, 11, 7)
CEILINGS = {
    "sync-f6": 438_084,
    "async-f6": 625_637,
    "equivocate-guarded": 261_205,
    "crash-recover": 725_715,
}

COUNT = """
import cProfile, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
workloads.import_pentabft()
from pentabft.runner import Runner
runner = Runner(workloads.config(sys.argv[2]), 1)
profile = cProfile.Profile()
profile.enable()
runner.run()
profile.disable()
print(json.dumps(sum(e.callcount for e in profile.getstats() if not isinstance(e.code, str))))
"""


# `Block.parent_lookup` calls, each one C-level presence test of a parent
# set. The count follows from the protocol alone, so it holds on any
# interpreter release. On `sync-f6` every block of a round cites the same
# parents, so each of the 31 replicas tests one parent set per round.
LOOKUP_CEILINGS = {"sync-f6": 1_550}

LOOKUPS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
workloads.import_pentabft()
from pentabft.dagcore import Dag
from pentabft.runner import Runner
lookups = 0
insert = Dag.insert

def counting_insert(dag, block):
    lookup = block.parent_lookup
    if lookup is None:
        return insert(dag, block)

    def spy(mapping):
        global lookups
        lookups += 1
        return lookup(mapping)

    object.__setattr__(block, "parent_lookup", spy)
    try:
        return insert(dag, block)
    finally:
        object.__setattr__(block, "parent_lookup", lookup)

Dag.insert = counting_insert
Runner(workloads.config(sys.argv[2]), 1).run()
print(json.dumps(lookups))
"""


def count(script: str, workload: str) -> int:
    """What `script` prints last, run on `workload` in a fresh process."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"), workload],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:3] != MEASURED_ON,
    reason="call ceilings were measured on CPython %d.%d.%d, not on %s %d.%d.%d"
    % (*MEASURED_ON, sys.implementation.name, *sys.version_info[:3]),
)
@pytest.mark.parametrize("workload", sorted(CEILINGS))
def test_python_calls_stay_under_the_ceiling(workload):
    calls = count(COUNT, workload)
    assert calls <= CEILINGS[workload], (workload, calls)


@pytest.mark.parametrize("workload", sorted(LOOKUP_CEILINGS))
def test_presence_lookups_stay_under_the_ceiling(workload):
    lookups = count(LOOKUPS, workload)
    assert lookups <= LOOKUP_CEILINGS[workload], (workload, lookups)
