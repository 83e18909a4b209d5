"""Per-layer spans and counters for the traced benchmark run.

`Tracer.install()` wraps the public entry points of each pentabft module from
outside the package; `restore()` puts the originals back. Each wrapper adds
one call to its span and the span's self time: its duration minus the part
covered by wrapped calls made inside it. Counters sit at the same entry
points. The wrappers change no argument and no result, so a traced run's
record equals an untraced one's.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [self seconds, calls]
        self.counts: dict[str, int] = defaultdict(int)
        self.pending_peak = 0
        self._child_s = [0.0]  # per open span: time covered by its children
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn, before=None, after=None):
        span = self.spans.setdefault(name, [0.0, 0])
        child_s = self._child_s
        perf = time.perf_counter

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = perf()
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result, token)
                return result
            finally:
                elapsed = perf() - start
                span[0] += elapsed - child_s.pop()
                span[1] += 1
                child_s[-1] += elapsed

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._span(name, original, before, after))

    def count(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._counted(name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- hooks -------------------------------------------------------------------

    def _ingest_hooks(self, layer: str, track_pending: bool):
        counts = self.counts

        def before(args):
            node, block = args[0], args[1]
            return node.dag.contains_digest(block.digest) or node.pending.has(block.digest)

        def after(args, result, duplicate):
            if duplicate:
                counts[f"{layer}.ingest_dup"] += 1
            if track_pending:
                self.pending_peak = max(self.pending_peak, len(args[0].pending))

        return before, after

    def _count_send(self, args):
        msg = getattr(args[3], "payload", args[3])  # unwrap the epoch envelope
        kind = type(msg).__name__
        self.counts[f"msg.{kind}"] += 1
        if kind == "SyncResponse":
            self.counts["sync_blocks_shipped"] += len(msg.blocks)

    def install(self) -> None:
        from pentabft import committer, dagcore, guard, runner, simnet, validator

        c = self.counts
        self.patch(simnet.Simulator, "run", "simnet.run")
        self.patch(simnet.Simulator, "send", "simnet.send", before=self._count_send)
        # counted, not timed: arming a timer stays in its caller's self time
        self.count(simnet.Simulator, "set_timer", "timers_armed")

        def fired(args, result, token):
            c["timers_fired"] += 1

        for adapter in (runner.ValidatorAdapter, runner.GuardAdapter):
            self.patch(adapter, "deliver", "runner.adapter")
            self.patch(adapter, "flush", "runner.adapter")
            self.patch(adapter, "on_timer", "runner.adapter", after=fired)
        self.patch(runner.Runner, "_outbound_check", "runner.outbound_check")
        self.patch(runner.Runner, "run", "runner.record")
        self.patch(runner, "verify_scenario", "runner.verify")
        self.patch(runner, "check_delivery_bounds", "runner.verify")

        before, after = self._ingest_hooks("validator", track_pending=True)
        self.patch(validator.CoreValidator, "ingest_block", "validator.ingest", before, after)
        self.patch(validator.CoreValidator, "flush", "validator.flush")
        self.patch(validator.CoreValidator, "on_sync_request", "validator.sync_serve")

        before, after = self._ingest_hooks("guard", track_pending=False)
        self.patch(guard.Guard, "ingest_block", "guard.ingest", before, after)
        self.patch(guard.Guard, "flush", "guard.flush")
        self.patch(guard.Guard, "on_sync_request", "guard.sync_serve")
        self.patch(guard.Guard, "on_timer", "guard.timer")
        self.patch(guard.Guard, "on_recover_msg", "guard.recovery")

        def resolved(args, result, token):
            if result is not None:
                c["guard.resolve_useful"] += 1

        self.patch(guard.Guard, "resolve_equivocation", "guard.resolve", after=resolved)

        def decisions(args, result, before_len):
            c["committer.decisions"] += len(args[0].decision_events) - before_len

        self.patch(
            committer.Committer, "extend", "committer.extend",
            before=lambda args: len(args[0].decision_events), after=decisions,
        )
        self.patch(committer.Committer, "try_direct_decide", "committer.direct")
        self.patch(committer.Committer, "try_indirect_decide", "committer.indirect")

        def linearized(args, result, token):
            c["committer.linearized_blocks"] += len(result)

        self.patch(committer, "linearize_one", "committer.linearize", after=linearized)

        def missing(args, result, token):
            if result.missing:
                c["dagcore.insert_missing"] += 1

        self.patch(dagcore.Dag, "insert", "dagcore.insert", after=missing)
        self.patch(dagcore.Dag, "voted_block", "dagcore.vote")
        # callers bind validate_block by name at import time
        for module in (dagcore, validator, guard):
            self.patch(module, "validate_block", "dagcore.validate")

    # -- per-layer metrics -------------------------------------------------------

    def layer_metrics(self, result) -> dict[str, float]:
        """Every per-layer metric of the benchmark, after the run in `result`."""
        c = self.counts

        def self_s(name):
            return self.spans.get(name, (0.0, 0))[0]

        def calls(name):
            return self.spans.get(name, (0.0, 0))[1]

        def share(part, whole):
            return part / whole if whole else 0.0

        stored = sum(
            len(node.dag)
            for epoch in result.epochs
            for node in (*epoch.validators.values(), *epoch.guards.values())
        )
        return {
            "simnet.self_s": self_s("simnet.run"),
            "simnet.send_s": self_s("simnet.send"),
            "simnet.deliveries": result.sim.delivery_count,
            "simnet.msgs.block": c["msg.BlockMsg"],
            "simnet.msgs.sync_req": c["msg.SyncRequest"],
            "simnet.msgs.sync_resp": c["msg.SyncResponse"],
            "simnet.msgs.guard": c["msg.LBlameMsg"] + c["msg.CoreUpdateMsg"]
            + c["msg.AgreementRelay"],
            "simnet.sync_blocks_shipped": c["sync_blocks_shipped"],
            "simnet.timers_armed": c["timers_armed"],
            "simnet.timer_useful_share": share(c["timers_fired"], c["timers_armed"]),
            "runner.adapter_s": self_s("runner.adapter"),
            "runner.outbound_check_s": self_s("runner.outbound_check"),
            "runner.record_s": self_s("runner.record"),
            "runner.verify_s": self_s("runner.verify"),
            "validator.ingest_s": self_s("validator.ingest"),
            "validator.ingest_calls": calls("validator.ingest"),
            "validator.ingest_dup_share": share(c["validator.ingest_dup"], calls("validator.ingest")),
            "validator.flush_s": self_s("validator.flush"),
            "validator.flush_calls": calls("validator.flush"),
            "validator.sync_serve_s": self_s("validator.sync_serve"),
            "validator.sync_requests": calls("validator.sync_serve"),
            "validator.pending_peak": self.pending_peak,
            "guard.ingest_s": self_s("guard.ingest"),
            "guard.ingest_calls": calls("guard.ingest"),
            "guard.ingest_dup_share": share(c["guard.ingest_dup"], calls("guard.ingest")),
            "guard.flush_s": self_s("guard.flush"),
            "guard.resolve_s": self_s("guard.resolve"),
            "guard.resolve_calls": calls("guard.resolve"),
            "guard.resolve_useful_share": share(c["guard.resolve_useful"], calls("guard.resolve")),
            "guard.sync_serve_s": self_s("guard.sync_serve"),
            "guard.timer_s": self_s("guard.timer"),
            "guard.recovery_s": self_s("guard.recovery"),
            "committer.extend_s": self_s("committer.extend"),
            "committer.extend_calls": calls("committer.extend"),
            "committer.decisions_per_extend": share(c["committer.decisions"], calls("committer.extend")),
            "committer.direct_s": self_s("committer.direct"),
            "committer.direct_calls": calls("committer.direct"),
            "committer.indirect_s": self_s("committer.indirect"),
            "committer.indirect_calls": calls("committer.indirect"),
            "committer.linearize_s": self_s("committer.linearize"),
            "committer.linearized_blocks": c["committer.linearized_blocks"],
            "dagcore.insert_s": self_s("dagcore.insert"),
            "dagcore.insert_calls": calls("dagcore.insert"),
            "dagcore.insert_missing_share": share(c["dagcore.insert_missing"], calls("dagcore.insert")),
            "dagcore.validate_s": self_s("dagcore.validate"),
            "dagcore.validate_calls": calls("dagcore.validate"),
            "dagcore.vote_s": self_s("dagcore.vote"),
            "dagcore.vote_calls": calls("dagcore.vote"),
            "dagcore.stored_blocks": stored,
        }

