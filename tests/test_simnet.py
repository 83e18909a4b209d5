"""Simulator engine: determinism, delivery bounds, timers, epochs, fault budgets."""

import random
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from pentabft.messages import ArmTimer, Broadcast, Send, SyncRequest, SyncResponse
from pentabft.runner import RunRecord, check_delivery_bounds
from pentabft import scenarios
from pentabft.scenarios import ScenarioConfig
from pentabft.simnet import (
    EVENT_BLOCK_LINES,
    Asynchronous,
    BudgetExceeded,
    ConfigError,
    Node,
    PartialSynchrony,
    Simulator,
    Synchronous,
)

from oracles import event_lines


class Recorder(Node):
    """Minimal node that logs inputs and can emit scripted actions."""

    def __init__(self, node_id, script=None):
        self.node_id = node_id
        self.log = []
        self.flushes = []
        self.script = script or {}

    def flush(self, now):
        self.flushes.append(now)
        return []

    def deliver(self, payload, sender, now):
        self.log.append(("deliver", now, sender, payload))
        return list(self.script.get(("deliver", payload), []))

    def on_timer(self, timer_id, now):
        self.log.append(("timer", now, timer_id))
        return list(self.script.get(("timer", timer_id), []))


def sent_and_received(node):
    """(send time, receive time) of each message `node` got; every payload
    is named `m<send time>`."""
    return [(int(payload[1:]), now) for kind, now, _, payload in node.log if kind == "deliver"]


@dataclass(frozen=True)
class Overshooting:
    """A faulty network model: every delay is twice the bound it states."""

    delta: int

    def delay(self, rng, now):
        return 2 * self.delta

    def delivery_bound(self, send_time):
        return send_time + self.delta


def make_sim(network=None, seed=1, record_events=True, **kwargs):
    sim = Simulator(network or Synchronous(1000), seed, record_events=record_events, **kwargs)
    nodes = [Recorder(f"n{i}") for i in range(3)]
    sim.start_epoch(nodes, 0)
    return sim, nodes


class TestDelivery:
    def test_synchronous_is_exact(self):
        sim, nodes = make_sim()
        sim.broadcast("n0", "hello", 0)
        sim.run()
        for n in nodes[1:]:
            assert n.log == [("deliver", 1000, "n0", "hello")]
        assert nodes[0].log == []

    def test_partial_synchrony_bounds(self):
        net = PartialSynchrony(gst=50_000, delta=1000)
        sim, nodes = make_sim(net)
        for t in range(0, 60_000, 1500):
            sim.send("n0", "n1", f"m{t}", t)
        sim.run()
        received = sent_and_received(nodes[1])
        assert len(received) == 40
        for send_time, recv in received:
            assert recv <= max(send_time, net.gst) + net.delta
            if send_time >= net.gst:
                assert recv == send_time + net.delta
        assert sim.late_deliveries == []

    def test_asynchronous_cap(self):
        net = Asynchronous(base=1000, cap=8000, benign=False)
        sim, nodes = make_sim(net)
        for t in range(0, 30_000, 700):
            sim.send("n0", "n2", f"m{t}", t)
        sim.run()
        delays = [recv - s for s, recv in sent_and_received(nodes[2])]
        assert len(delays) == 43
        assert all(1 <= d <= 8000 for d in delays)
        assert len(set(delays)) > 3  # genuinely perturbed
        assert sim.late_deliveries == []

    def test_delivery_past_the_bound_is_reported(self):
        sim, nodes = make_sim(Overshooting(1000))
        sim.send("n0", "n1", "m0", 0)
        sim.send("n0", "n2", "m500", 500)
        sim.run()
        assert sim.late_deliveries == [(0, "n0", "n1", 2000), (500, "n0", "n2", 2500)]
        assert check_delivery_bounds(SimpleNamespace(sim=sim)) == [
            "delivery n0->n1 at 2000 exceeds bound 1000",
            "delivery n0->n2 at 2500 exceeds bound 1500",
        ]
        # the check rides on event recording
        sim, nodes = make_sim(Overshooting(1000), record_events=False)
        sim.send("n0", "n1", "m0", 0)
        sim.run()
        assert nodes[1].log == [("deliver", 2000, "n0", "m0")]
        assert sim.late_deliveries == []

    def test_equal_time_ties_resolve_by_sequence(self):
        sim, nodes = make_sim()
        sim.send("n0", "n1", "first", 0)
        sim.send("n0", "n1", "second", 0)
        sim.run()
        assert [entry[3] for entry in nodes[1].log] == ["first", "second"]


class TestDelayDraws:
    """The first draws of each network model at one seed, pinned as taken
    from CPython's `randint`, which the models' own draw loop replaced."""

    @pytest.mark.parametrize(
        "net, first_draws",
        [
            (PartialSynchrony(gst=50_000, delta=1000),
             [19873, 19250, 17458, 12375, 5032, 11279, 8934, 12330, 17918, 3172]),
            (Asynchronous(base=1000, cap=8000, benign=True),
             [902, 828, 794, 785, 757, 677, 806, 563, 660, 943]),
            # the seventh is a spike above base
            (Asynchronous(base=1000, cap=8000, benign=False),
             [689, 614, 226, 347, 454, 998, 2761, 325, 645, 671]),
            # a narrow band, [1, 3]: the draws reach both ends
            (Asynchronous(base=3, cap=3, benign=True),
             [3, 3, 3, 3, 2, 3, 1, 2, 1, 2, 3, 3]),
        ],
        ids=["partial-before-gst", "async-benign", "async-adversarial", "async-benign-narrow"],
    )
    def test_first_draws_are_pinned(self, net, first_draws):
        rng = random.Random("net/1")
        assert [net.delay(rng, 0) for _ in first_draws] == first_draws

    def test_partial_synchrony_clips_at_gst(self):
        net = PartialSynchrony(gst=50_000, delta=1000)
        rng = random.Random("net/1")
        # the first draw is 19873 as above: clipped to land at gst + delta
        assert net.delay(rng, 40_000) == 11_000
        assert net.delay(rng, 50_000) == 1000

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PartialSynchrony(gst=1000, delta=1000, pre_gst_spread=0),
            lambda: Asynchronous(base=0, cap=8000, benign=True),
            lambda: Asynchronous(base=1000, cap=500, benign=False),
        ],
        ids=["partial-zero-spread", "async-benign-zero-base", "async-cap-below-base"],
    )
    def test_an_empty_delay_range_is_refused_at_construction(self, make):
        with pytest.raises(ConfigError, match="empty delay range"):
            make()


class TestTimers:
    def test_fires_exactly_once_at_deadline(self):
        sim, nodes = make_sim()
        sim.set_timer("n1", "t", 2500, 0)
        sim.run()
        assert nodes[1].log == [("timer", 2500, "t")]

    def test_rearming_replaces(self):
        sim, nodes = make_sim()
        sim.set_timer("n1", "t", 2500, 0)
        sim.set_timer("n1", "t", 4000, 0)
        sim.run()
        assert nodes[1].log == [("timer", 4000, "t")]

    def test_a_fired_timer_leaves_the_table_and_a_stale_arm_stays_dead(self):
        class Rearming(Recorder):
            def on_timer(self, timer_id, now):
                super().on_timer(timer_id, now)
                return [ArmTimer("t", 5000)] if now == 1000 else []

        sim = Simulator(Synchronous(1000), 1)
        node = Rearming("n0")
        sim.start_epoch([node], 0)
        sim.set_timer("n0", "t", 4000, 0)
        sim.set_timer("n0", "t", 1000, 0)  # re-armed earlier: the 4000 arm is stale
        sim.run()
        # the stale arm stays dead at 4000, though the key it was armed under
        # left the table at 1000 and was armed again there
        assert node.log == [("timer", 1000, "t"), ("timer", 6000, "t")]
        assert sim._timer_seq == {}

    def test_chained_guard_timers_land_at_six_delta(self):
        sim, nodes = make_sim()
        delta = 1000
        sim.set_timer("n0", "live", 4 * delta, 0)
        sim.set_timer("n0", "grace", 6 * delta, 0)
        sim.run()
        assert nodes[0].log == [("timer", 4000, "live"), ("timer", 6000, "grace")]


class TestActions:
    def test_broadcast_and_send_actions(self):
        sim, nodes = make_sim()
        nodes[0].script[("timer", "go")] = [Broadcast("b"), Send("n2", "s")]
        sim.set_timer("n0", "go", 100, 0)
        sim.run()
        assert ("deliver", 1100, "n0", "b") in nodes[1].log
        assert ("deliver", 1100, "n0", "b") in nodes[2].log
        assert ("deliver", 1100, "n0", "s") in nodes[2].log

    def test_arm_via_actions(self):
        sim, nodes = make_sim()
        nodes[0].script[("timer", "go")] = [ArmTimer("later", 500)]
        sim.set_timer("n0", "go", 100, 0)
        sim.run()
        assert ("timer", 600, "later") in nodes[0].log


class TestDeterminism:
    def test_same_seed_same_log(self):
        logs = []
        for _ in range(2):
            net = Asynchronous(base=900, cap=6000, benign=False)
            sim, nodes = make_sim(net, seed=42)
            for t in range(0, 9000, 400):
                sim.broadcast("n0", f"m{t}", t)
            sim.run()
            logs.append([tuple(n.log) for n in nodes])
        assert logs[0] == logs[1]

    def test_different_seeds_diverge(self):
        logs = []
        for seed in (1, 2):
            net = Asynchronous(base=900, cap=6000, benign=False)
            sim, nodes = make_sim(net, seed=seed)
            for t in range(0, 9000, 400):
                sim.broadcast("n0", f"m{t}", t)
            sim.run()
            logs.append([tuple(n.log) for n in nodes])
        assert logs[0] != logs[1]


class TestEventLog:
    def test_events_recorded_when_enabled(self):
        sim, nodes = make_sim(record_events=True)
        sim.broadcast("n0", "x", 0)
        sim.set_timer("n1", "t", 100, 0)
        sim.run()
        kinds = {line.split("\t")[2] for line in event_lines(sim)}
        assert kinds == {"deliver", "timer"}
        assert all("\t" in line for line in event_lines(sim))

    def test_malformed_payloads_are_described_not_raised(self):
        # a Byzantine peer's malformed sync messages reach the recipient, which
        # drops them itself; describing them for the log must not abort the run
        sim, nodes = make_sim(record_events=True)
        request, response = SyncRequest(None, (0,)), SyncResponse(None)
        sim.send("n0", "n1", request, 0)
        sim.send("n0", "n1", response, 0)
        sim.run()
        assert [entry[3] for entry in nodes[1].log] == [request, response]
        details = [line.split("\t")[4] for line in event_lines(sim)]
        assert details == ["n0 sync-req ?", "n0 sync-resp ?"]

    def test_horizon_cuts_off(self):
        sim, nodes = make_sim(horizon=500)
        sim.set_timer("n0", "late", 1000, 0)
        sim.set_timer("n0", "early", 200, 0)
        sim.run()
        assert nodes[0].log == [("timer", 200, "early")]


    def test_lines_join_into_blocks_in_written_order(self):
        sim, nodes = make_sim()
        written = []
        count = 2 * EVENT_BLOCK_LINES + 1
        for t in range(count):
            # the calls take seqs 1..count, so the inject at t takes count + 1 + t
            detail = f"event {t}"
            written.append(f"{t}\t{count + 1 + t}\tinject\tn0\t{detail}")
            sim.schedule_call(t, lambda now, detail=detail: sim.inject("n0", detail, now))
        sim.run()
        # one block at each instant that filled the tail, the rest when run() returned
        assert [block.count("\n") + 1 for block in sim.event_blocks] == [
            EVENT_BLOCK_LINES, EVENT_BLOCK_LINES, 1,
        ]
        assert sim.event_tail == []
        assert sim.event_count == count
        assert event_lines(sim) == written
        record = RunRecord("s", 1, event_blocks=sim.event_blocks, event_count=count)
        assert record.to_text().endswith(
            f"\nevents {count}\n" + "".join(line + "\n" for line in written)
        )


class TestEpochs:
    def test_start_epoch_retires_the_old_node_set(self):
        sim, old = make_sim()
        sim.broadcast("n0", "stale", 0)
        sim.set_timer("n1", "t", 1500, 0)
        calls = []

        def restart(now):
            calls.append(now)
            sim.start_epoch(new, now)

        new = [Recorder(f"n{i}") for i in range(3)]
        sim.schedule_call(500, restart)
        sim.schedule_call(2000, calls.append)
        sim.run()
        assert calls == [500, 2000]  # scheduled calls survive the restart
        assert all(n.log == [] and n.flushes == [0] for n in old)
        # one first flush each; the old epoch's message and timer never arrive
        assert all(n.log == [] and n.flushes == [500] for n in new)
        assert not any(line.split("\t")[2] in ("deliver", "timer") for line in event_lines(sim))

    def test_first_flushes_run_in_node_order(self):
        order = []

        class Flusher(Recorder):
            def flush(self, now):
                order.append(self.node_id)
                return [Send("n0", self.node_id)] if self.node_id != "n0" else []

        sim = Simulator(Synchronous(1000), 1)
        sim.start_epoch([Flusher(f"n{i}") for i in (2, 0, 1)], 0)
        assert order == ["n0", "n1", "n2"]
        sim.run()
        assert [entry[3] for entry in sim.nodes["n0"].log if entry[0] == "deliver"] == ["n1", "n2"]


class TestCalendarQueue:
    def test_same_instant_events_pop_in_push_order(self):
        sim, nodes = make_sim()
        sim.send("n0", "n1", "first", 0)
        sim.set_timer("n1", "t", 1000, 0)
        sim.send("n2", "n1", "second", 0)
        sim.set_timer("n2", "u", 1000, 0)
        sim.run()
        assert nodes[1].log == [
            ("deliver", 1000, "n0", "first"),
            ("timer", 1000, "t"),
            ("deliver", 1000, "n2", "second"),
        ]
        fields = [line.split("\t") for line in event_lines(sim)]
        assert [(node, kind) for _, _, kind, node, _ in fields] == [
            ("n1", "deliver"), ("n1", "timer"), ("n1", "deliver"), ("n2", "timer"),
        ]
        seqs = [int(seq) for _, seq, _, _, _ in fields]
        assert seqs == sorted(seqs)

    def test_an_instant_flushes_each_touched_node_once_in_node_order(self):
        sim, nodes = make_sim()
        order = []
        for node in nodes:
            node.flush = lambda now, node=node: order.append((node.node_id, now)) or []
        sim.send("n1", "n2", "a", 0)
        sim.send("n1", "n0", "b", 0)
        sim.send("n1", "n2", "c", 0)
        sim.run()
        assert order == [("n0", 1000), ("n2", 1000)]

    def test_a_single_event_instant_flushes_its_node_once(self):
        sim, nodes = make_sim()
        sim.send("n0", "n1", "only", 0)
        sim.run()
        assert nodes[1].log == [("deliver", 1000, "n0", "only")]
        assert [n.flushes for n in nodes] == [[0], [0, 1000], [0]]

    def test_a_zero_timer_armed_in_a_single_event_instant_fires_before_the_flush(self):
        sim, nodes = make_sim()
        order = []
        node = nodes[1]
        node.script[("deliver", "go")] = [ArmTimer("now", 0)]
        node.flush = lambda now: order.append(("flush", now)) or []
        node.on_timer = lambda timer_id, now: order.append((timer_id, now)) or []
        sim.send("n0", "n1", "go", 0)
        sim.run()
        assert order == [("now", 1000), ("flush", 1000)]

    def test_restart_mid_instant_drops_the_rest_of_the_instant(self):
        sim, old = make_sim()
        calls = []

        def restart(now):
            calls.append(("restart", now))
            sim.start_epoch(new, now)

        new = [Recorder(f"n{i}") for i in range(3)]
        sim.send("n0", "n1", "before", 0)  # pops ahead of the restart
        sim.schedule_call(1000, restart)
        sim.send("n0", "n1", "after", 0)  # same instant, behind the restart
        sim.set_timer("n2", "t", 1000, 0)
        sim.schedule_call(1000, lambda now: calls.append(("same", now)))
        sim.schedule_call(3000, lambda now: calls.append(("later", now)))
        sim.run()
        assert calls == [("restart", 1000), ("same", 1000), ("later", 3000)]
        assert old[1].log == [("deliver", 1000, "n0", "before")]
        assert all(n.log == [] for n in new)
        assert [line.split("\t")[4] for line in event_lines(sim)] == ["n0 str"]
        assert sim.now == 3000

    def test_run_stops_at_the_horizon_and_keeps_later_events(self):
        sim, nodes = make_sim(horizon=1500)
        sim.send("n0", "n1", "early", 0)
        sim.send("n0", "n1", "late", 1000)
        sim.set_timer("n2", "t", 1800, 0)
        sim.run()
        assert nodes[1].log == [("deliver", 1000, "n0", "early")]
        assert nodes[2].log == [] and sim.now == 1000
        sim.horizon = 2500
        sim.run()
        assert nodes[1].log[1:] == [("deliver", 2000, "n0", "late")]
        assert nodes[2].log == [("timer", 1800, "t")]
        assert sim.now == 2000


class TestFaultBudget:
    def test_budget_enforced(self):
        cfg = ScenarioConfig("budget", crash=((4, 5), (5, 5)))
        with pytest.raises(BudgetExceeded):
            cfg.validate()
        ScenarioConfig("budget", crash=((4, 5), (5, 5)), beyond_f=True, guards=5).validate()

    def test_unknown_ids_rejected(self):
        cfg = ScenarioConfig("budget", crash=((9, 5),), beyond_f=True)
        with pytest.raises(BudgetExceeded):
            cfg.validate()

    def test_the_guard_layer_tolerates_fewer_than_three_fifths(self):
        guarded = dict(guards=5, beyond_f=True)
        ScenarioConfig("budget", crash=((3, 5), (4, 5), (5, 5)), **guarded).validate()
        cfg = ScenarioConfig("budget", crash=tuple((v, 5) for v in range(2, 6)), **guarded)
        with pytest.raises(BudgetExceeded, match="reach 3n/5"):
            cfg.validate()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("equivocate=0;0", "equivocate names validator 0 twice"),
            ("crash=0@3;0@5", "crash names validator 0 twice"),
            ("crash=0@3\nequivocate=0", "validator 0 is in both crash and equivocate"),
            ("withhold=1>0\nequivocate=1", "validator 1 is in both equivocate and withhold"),
            ("leaders_per_round=1\nsplitview_round=9\nguards=5\nbeyond_f=1\ncrash=4@3",
             "validator 4 is in both crash and splitview_round"),
            ("guards=2\nbyz_guards=0:silent;0:bogus-proposal", "byz_guards gives guard 0 two policies"),
            ("withhold=1>9", "withhold target 9 of validator 1 is not in the committee"),
            ("tx_per_block=-1", "tx_per_block -1 is negative"),
            ("tx_size=-1", "tx_size -1 is negative"),
            ("guards=-1", "guards -1 is negative"),
            ("extra_vtime=-100000", "extra_vtime -100000 is negative"),
            ("crash=0@0", "crash round 0 of validator 0 is below 1"),
            ("crash=0@-1", "crash round -1 of validator 0 is below 1"),
            ("rounds=0", "rounds 0 is below 2"),
            ("rounds=-3", "rounds -3 is below 2"),
            ("rounds=1", "rounds 1 is below 2"),
        ],
    )
    def test_one_strategy_per_node_and_counts_that_mean_something(self, text, message):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_text(text)
        assert str(err.value) == message

    def test_catalog_and_matrix_configs_validate(self):
        for name in scenarios.CATALOG:
            scenarios.by_name(name)
        for adversary in ("crash", "equivocate", "withhold"):
            for network in scenarios.NETWORKS:
                scenarios.adversary_matrix(adversary, network, gst_mid=True)
                scenarios.adversary_matrix(adversary, network, gst_mid=False)
