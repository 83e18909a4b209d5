"""Scenario configuration and the named experiment catalog.

Configs are plain data: committee sizing, protocol/network modes, the fault
plan in descriptive form, and run limits. They serialize to a key=value text
format so experiments can be kept in files and diffed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .simnet import ConfigError

SYNC = "sync"
PARTIAL = "partial"
ASYNC_BENIGN = "async-benign"
ASYNC_ADVERSARIAL = "async-adversarial"

NETWORKS = (SYNC, PARTIAL, ASYNC_BENIGN, ASYNC_ADVERSARIAL)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    n: int = 6
    f: int = 1
    protocol_mode: str = "partial-sync"  # "partial-sync" | "async"
    network: str = SYNC
    delta: int = 1000
    gst: int = 0
    async_base: int = 1000
    async_cap: int = 8000
    leaders_per_round: int = 2
    rounds: int = 50
    tx_per_block: int = 1
    tx_size: int = 512
    guards: int = 0
    crash: tuple[tuple[int, int], ...] = ()  # (validator, round)
    equivocate: tuple[int, ...] = ()
    withhold: tuple[tuple[int, tuple[int, ...]], ...] = ()
    splitview_round: int = 0  # 0 disables the scripted attack
    byz_guards: tuple[tuple[int, str], ...] = ()  # (guard, "bogus-proposal"|"silent")
    beyond_f: bool = False  # guard scenarios may exceed the core budget
    record_events: bool = False
    record_delivery: bool = True
    extra_vtime: int = 0  # run this much virtual time past quiescence targets

    def validate(self) -> None:
        if self.n != 5 * self.f + 1:
            raise ConfigError(f"committee size {self.n} != 5f+1 for f={self.f}")
        if self.network not in NETWORKS:
            raise ConfigError(f"unknown network model {self.network!r}")
        if self.protocol_mode not in ("partial-sync", "async"):
            raise ConfigError(f"unknown protocol mode {self.protocol_mode!r}")
        if self.protocol_mode == "async" and self.network in (SYNC, PARTIAL):
            raise ConfigError("async protocol mode expects an asynchronous network")
        if self.guards and self.network != SYNC:
            raise ConfigError("guards assume synchrony; attach them to sync scenarios")
        if self.guards and self.protocol_mode != "partial-sync":
            raise ConfigError("guards monitor the partial-sync protocol only")
        if not (1 <= self.leaders_per_round <= self.n):
            raise ConfigError("leaders per round out of range")
        if self.splitview_round:
            if self.leaders_per_round != 1:
                raise ConfigError("the view-split attack is scripted for one leader slot per round")
            if self.splitview_round % self.n != 3 % self.n or self.n != 6:
                raise ConfigError("the view-split script expects n=6 and round = 3 mod 6")
        for gid, policy in self.byz_guards:
            if policy not in ("bogus-proposal", "silent"):
                raise ConfigError(f"unknown guard policy {policy!r}")
            if not (0 <= gid < self.guards):
                raise ConfigError("byzantine guard id out of range")

    def horizon_vtime(self) -> int:
        per_round = {
            SYNC: 3 * self.delta,
            PARTIAL: 3 * self.delta,
            ASYNC_BENIGN: 3 * self.async_base,
            ASYNC_ADVERSARIAL: 2 * self.async_cap,
        }[self.network]
        guard_slack = (14 + self.guards) * self.delta if self.guards else 0
        base = self.gst if self.network == PARTIAL else 0
        return base + (self.rounds + 12) * per_round + guard_slack + self.extra_vtime

    def to_text(self) -> str:
        lines = [f"name={self.name}"]
        for key in (
            "n", "f", "protocol_mode", "network", "delta", "gst", "async_base",
            "async_cap", "leaders_per_round", "rounds", "tx_per_block", "tx_size",
            "guards", "splitview_round", "beyond_f", "record_events",
            "record_delivery", "extra_vtime",
        ):
            lines.append(f"{key}={getattr(self, key)}")
        lines.append("crash=" + ";".join(f"{v}@{r}" for v, r in self.crash))
        lines.append("equivocate=" + ";".join(str(v) for v in self.equivocate))
        lines.append(
            "withhold="
            + ";".join(f"{v}>{','.join(str(t) for t in ts)}" for v, ts in self.withhold)
        )
        lines.append("byz_guards=" + ";".join(f"{g}:{p}" for g, p in self.byz_guards))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ScenarioConfig":
        kv: dict[str, str] = {}
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()

        def boolean(s: str) -> bool:
            return s.lower() in ("1", "true", "yes")

        crash = tuple(
            (int(p.split("@")[0]), int(p.split("@")[1]))
            for p in kv.get("crash", "").split(";")
            if p
        )
        equivocate = tuple(int(p) for p in kv.get("equivocate", "").split(";") if p)
        withhold = tuple(
            (int(p.split(">")[0]), tuple(int(t) for t in p.split(">")[1].split(",") if t))
            for p in kv.get("withhold", "").split(";")
            if p
        )
        byz_guards = tuple(
            (int(p.split(":")[0]), p.split(":")[1])
            for p in kv.get("byz_guards", "").split(";")
            if p
        )
        cfg = ScenarioConfig(
            name=kv.get("name", "custom"),
            n=int(kv.get("n", 6)),
            f=int(kv.get("f", 1)),
            protocol_mode=kv.get("protocol_mode", "partial-sync"),
            network=kv.get("network", SYNC),
            delta=int(kv.get("delta", 1000)),
            gst=int(kv.get("gst", 0)),
            async_base=int(kv.get("async_base", 1000)),
            async_cap=int(kv.get("async_cap", 8000)),
            leaders_per_round=int(kv.get("leaders_per_round", 2)),
            rounds=int(kv.get("rounds", 50)),
            tx_per_block=int(kv.get("tx_per_block", 1)),
            tx_size=int(kv.get("tx_size", 512)),
            guards=int(kv.get("guards", 0)),
            crash=crash,
            equivocate=equivocate,
            withhold=withhold,
            splitview_round=int(kv.get("splitview_round", 0)),
            byz_guards=byz_guards,
            beyond_f=boolean(kv.get("beyond_f", "0")),
            record_events=boolean(kv.get("record_events", "0")),
            record_delivery=boolean(kv.get("record_delivery", "1")),
            extra_vtime=int(kv.get("extra_vtime", 0)),
        )
        cfg.validate()
        return cfg


def fault_free(f: int = 1, rounds: int = 50, **overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name=f"fault-free-f{f}", n=5 * f + 1, f=f, rounds=rounds,
        record_delivery=(f == 1),
    )
    return replace(cfg, **overrides)


def crash_leader(rounds: int = 40, **overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(name="crash-leader", crash=((2, 10),), rounds=rounds)
    return replace(cfg, **overrides)


def crash_f(f: int = 1, rounds: int = 40, **overrides) -> ScenarioConfig:
    n = 5 * f + 1
    crash = tuple((n - 1 - i, 10) for i in range(f))
    cfg = ScenarioConfig(name="crash-f", n=n, f=f, crash=crash, rounds=rounds)
    return replace(cfg, **overrides)


def crash_f_plus_1(rounds: int = 30, **overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name="crash-f-plus-1",
        crash=((4, 8), (5, 8)),
        guards=5,
        beyond_f=True,
        rounds=rounds,
        record_events=True,
        extra_vtime=40_000,
    )
    return replace(cfg, **overrides)


def equivocate_f(rounds: int = 40, **overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(name="equivocate-f", equivocate=(1,), rounds=rounds)
    return replace(cfg, **overrides)


def splitview_3f(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name="splitview-3f",
        leaders_per_round=1,
        splitview_round=9,
        guards=5,
        beyond_f=True,
        rounds=16,
        record_events=True,
        extra_vtime=40_000,
    )
    return replace(cfg, **overrides)


def async_fault_free(f: int = 1, rounds: int = 60, **overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name=f"async-fault-free-f{f}",
        n=5 * f + 1,
        f=f,
        protocol_mode="async",
        network=ASYNC_BENIGN,
        rounds=rounds,
        record_delivery=(f == 1),
    )
    return replace(cfg, **overrides)


def async_adversarial(rounds: int = 40, **overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        name="async-adversarial",
        protocol_mode="async",
        network=ASYNC_ADVERSARIAL,
        rounds=rounds,
    )
    return replace(cfg, **overrides)


def byz_guard_recover(**overrides) -> ScenarioConfig:
    cfg = crash_f_plus_1()
    cfg = replace(cfg, name="byz-guard-recover", byz_guards=((0, "bogus-proposal"),))
    return replace(cfg, **overrides)


CATALOG = {
    "fault-free-f1": lambda: fault_free(1),
    "fault-free-f2": lambda: fault_free(2),
    "fault-free-f6": lambda: fault_free(6),
    "crash-leader": crash_leader,
    "crash-f": crash_f,
    "crash-f-plus-1": crash_f_plus_1,
    "equivocate-f": equivocate_f,
    "splitview-3f": splitview_3f,
    "async-fault-free": async_fault_free,
    "async-adversarial": async_adversarial,
    "byz-guard-recover": byz_guard_recover,
}


def by_name(name: str) -> ScenarioConfig:
    try:
        cfg = CATALOG[name]()
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}") from None
    cfg.validate()
    return cfg


def adversary_matrix(adversary: str, network: str, gst_mid: bool, rounds: int = 30) -> ScenarioConfig:
    """Safety-matrix scenario: one adversary class under one network model."""
    base = ScenarioConfig(
        name=f"matrix-{adversary}-{network}{'-mid' if gst_mid else ''}",
        rounds=rounds,
        record_delivery=True,
    )
    if adversary == "crash":
        base = replace(base, crash=((5, 8),))
    elif adversary == "equivocate":
        base = replace(base, equivocate=(1,))
    elif adversary == "withhold":
        base = replace(base, withhold=((1, (0, 2)),))
    else:
        raise ConfigError(f"unknown adversary {adversary!r}")
    if network == PARTIAL:
        gst = rounds * 1000 if gst_mid else 0
        base = replace(base, network=PARTIAL, gst=gst)
    elif network in (ASYNC_BENIGN, ASYNC_ADVERSARIAL):
        base = replace(base, network=network, protocol_mode="async")
    base.validate()
    return base
