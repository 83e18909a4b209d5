"""Acceptance gate: every headline claim at its pinned bound.

Each test runs one criterion at the parameters fixed in the suite and prints
its pass/fail line; run with -s to watch the lines stream.
"""

import pytest

from pentabft import acceptance


def check(result):
    print(result.line())
    assert result.passed, result.line()


def test_c1_fault_free_commit_path():
    check(acceptance.criterion_fault_free_commit_path())


def test_c2_async_latency_delta():
    # pytest runs tests in definition order, so the shared latency cache is
    # warm with the synchronous runs from the previous criterion
    check(acceptance.criterion_async_latency_delta())


def test_c3_safety_under_byzantine_matrix():
    check(acceptance.criterion_safety_matrix())


def test_c4_liveness_window():
    check(acceptance.criterion_liveness_window())


def test_c5_quorum_math():
    check(acceptance.criterion_quorum_math())


def test_c6_guard_liveness_recovery():
    check(acceptance.criterion_guard_liveness())


def test_c7_guard_safety_recovery():
    check(acceptance.criterion_guard_safety())


def test_c8_no_false_alarms():
    check(acceptance.criterion_no_false_alarms())


def test_c9_async_combinatorics():
    check(acceptance.criterion_async_combinatorics())


def test_c10_stake_split():
    check(acceptance.criterion_stake_split())


# -- the shared failure paths -----------------------------------------------------


def test_a_failure_list_criterion_passes_with_none_and_shows_the_first():
    passed = acceptance._check("CX", "check", "{failures} of {jobs}", "zero", lambda job: [], [1])
    assert passed.passed and passed.measured == "0 of 1" and passed.detail == ""
    failed = acceptance._check(
        "CX", "check", "{failures} of {jobs}", "zero", lambda job: ["first", "second"], [1]
    )
    assert not failed.passed and failed.measured == "2 of 1" and failed.detail == "first"


@pytest.mark.parametrize(
    "criterion",
    [acceptance.criterion_guard_liveness, acceptance.criterion_guard_safety],
    ids=["C6", "C7"],
)
def test_guard_criteria_fail_when_verify_scenario_fails(monkeypatch, criterion):
    # forked pool workers inherit the patch
    monkeypatch.setattr(acceptance, "verify_scenario", lambda cfg, record: ["injected"])
    result = criterion()
    assert not result.passed
    assert result.detail == "seed=1: injected"


@pytest.mark.parametrize(
    "criterion, violations, detail",
    [
        # the shared recovery check fails once per guard (5) and seed (3) ...
        (acceptance.criterion_guard_liveness, 15, "seed=1 g0: blameset fails re-verification"),
        # ... and C7's replayed overlap blameset once more each
        (acceptance.criterion_guard_safety, 30, "seed=1 g0: overlap proof invalid"),
    ],
    ids=["C6", "C7"],
)
def test_guard_criteria_fail_when_a_blameset_does_not_reverify(
    monkeypatch, criterion, violations, detail
):
    monkeypatch.setattr(acceptance, "is_valid_blameset", lambda bs, committee, guards: False)
    result = criterion()
    assert not result.passed
    assert result.measured == f"{violations} violations over 3 seeds"
    assert result.detail == detail
