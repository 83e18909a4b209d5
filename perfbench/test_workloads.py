"""Checks that each workload still has the shape it was chosen for, at small
sizes, and that tracing leaves the run untouched.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import pytest

import sample
import workloads

SMALL_ROUNDS = {"sync-f6": 10, "async-f6": 10, "equivocate-guarded": 24, "crash-recover": 60}


@pytest.fixture(scope="module")
def traced():
    return {
        name: sample.run_sample(name, seed=1, trace=True, rounds=rounds)
        for name, rounds in SMALL_ROUNDS.items()
    }


def test_every_check_passes(traced):
    for name, out in traced.items():
        assert out["failures"] == [], name


def test_sync_traffic_only_under_equivocation(traced):
    for name in ("sync-f6", "async-f6"):
        layers = traced[name]["layers"]
        assert layers["simnet.msgs.sync_req"] == layers["simnet.msgs.sync_resp"] == 0, name
    layers = traced["equivocate-guarded"]["layers"]
    assert layers["simnet.msgs.sync_req"] > 0
    assert layers["simnet.sync_blocks_shipped"] > 0


def test_sync_and_async_deliver_the_same_message_count(traced):
    sync = traced["sync-f6"]["layers"]["simnet.deliveries"]
    assert sync == traced["async-f6"]["layers"]["simnet.deliveries"]
    assert sync == traced["sync-f6"]["layers"]["simnet.msgs.block"]


def test_crash_recover_ends_with_two_epochs():
    from pentabft.runner import run

    record = run(workloads.config("crash-recover", SMALL_ROUNDS["crash-recover"]), 1).record
    assert len(record.epochs) == 2


def test_traced_record_equals_untraced(traced):
    for name, rounds in SMALL_ROUNDS.items():
        assert sample.run_sample(name, seed=1, rounds=rounds)["digest"] == traced[name]["digest"]


def test_tracing_restores_entry_points():
    workloads.import_pentabft()
    from pentabft import committer, simnet, validator

    before = (simnet.Simulator.send, validator.validate_block, committer.linearize_one)
    sample.run_sample("sync-f6", seed=1, trace=True, rounds=3)
    assert (simnet.Simulator.send, validator.validate_block, committer.linearize_one) == before


def test_virtual_metrics_of_the_synchronous_fast_path(traced):
    virtual = traced["sync-f6"]["virtual"]
    assert virtual["commit_md.p50"] == virtual["commit_md.p99"] == 2
    assert virtual["commit_vt_us.p50"] == 2000  # propose round entry + two deltas
    assert virtual["outage_vt_us"] == 1000  # one commit wave per delta
    assert virtual["direct_share"] == 1.0


def test_crash_recover_outage_spans_the_restart(traced):
    assert traced["crash-recover"]["virtual"]["outage_vt_us"] > 5 * 1000
