"""Scenario configuration and the named experiment catalog.

Configs are plain data: committee sizing, protocol/network modes, the
adversary (who is faulty and how), and run limits. They are read from a
key=value text format so experiments can be kept in files and diffed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .simnet import BudgetExceeded, ConfigError

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
        if self.f < 0:
            raise ConfigError(f"fault budget f={self.f} is negative")
        if self.n != 5 * self.f + 1:
            raise ConfigError(f"committee size {self.n} != 5f+1 for f={self.f}")
        if self.network not in NETWORKS:
            raise ConfigError(f"unknown network model {self.network!r}")
        if self.protocol_mode not in ("partial-sync", "async"):
            raise ConfigError(f"unknown protocol mode {self.protocol_mode!r}")
        if self.protocol_mode == "async" and self.network in (SYNC, PARTIAL):
            raise ConfigError("async protocol mode expects an asynchronous network")
        # every network model draws from, or waits, a non-empty range of delays
        if self.delta < 1:
            raise ConfigError(f"delta {self.delta} is below 1 us")
        if self.gst < 0:
            raise ConfigError(f"gst {self.gst} is negative")
        if self.async_base < 1:
            raise ConfigError(f"async_base {self.async_base} is below 1 us")
        if self.async_cap < self.async_base:
            raise ConfigError(f"async_cap {self.async_cap} is below async_base {self.async_base}")
        if self.guards and self.network != SYNC:
            raise ConfigError("guards assume synchrony; attach them to sync scenarios")
        if self.guards and self.protocol_mode != "partial-sync":
            raise ConfigError("guards monitor the partial-sync protocol only")
        if not (1 <= self.leaders_per_round <= self.n):
            raise ConfigError("leaders per round out of range")
        # the first slot's decision round is round 2
        if self.rounds < 2:
            raise ConfigError(f"rounds {self.rounds} is below 2")
        for name in ("tx_per_block", "tx_size", "guards", "extra_vtime"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} {getattr(self, name)} is negative")
        if self.splitview_round:
            if self.leaders_per_round != 1:
                raise ConfigError("the view-split attack is scripted for one leader slot per round")
            if self.splitview_round % self.n != 3 % self.n or self.n != 6:
                raise ConfigError("the view-split script expects n=6 and round = 3 mod 6")
        given: set[int] = set()  # guards given a policy
        for gid, policy in self.byz_guards:
            if policy not in ("bogus-proposal", "silent"):
                raise ConfigError(f"unknown guard policy {policy!r}")
            if not (0 <= gid < self.guards):
                raise ConfigError("byzantine guard id out of range")
            if gid in given:
                raise ConfigError(f"byz_guards gives guard {gid} two policies")
            given.add(gid)
        faulty = self.faulty_validators()
        unknown = faulty - set(range(self.n))
        if unknown:
            raise BudgetExceeded(f"faulty ids {sorted(unknown)} not in committee")
        self._check_strategies()
        if not self.beyond_f and len(faulty) > self.f:
            raise BudgetExceeded(f"{len(faulty)} corrupt validators exceed the budget f={self.f}")
        if self.beyond_f:
            # the guard layer tolerates f < 3n/5 corrupt core validators, and the
            # committee left after their exclusion must still hold each round's leaders
            if 5 * len(faulty) >= 3 * self.n:
                raise BudgetExceeded(
                    f"beyond_f: {len(faulty)} corrupt validators of {self.n} reach 3n/5"
                )
            if self.n - len(faulty) < self.leaders_per_round:
                raise BudgetExceeded(
                    f"beyond_f: excluding {len(faulty)} corrupt validators leaves "
                    f"{self.n - len(faulty)}, fewer than leaders_per_round={self.leaders_per_round}"
                )
            if not self.guards:
                raise ConfigError("beyond_f needs guards: only guards recover from more than f faults")

    def _check_strategies(self) -> None:
        """One fault strategy per validator, crash rounds from 1, and
        withhold targets inside the committee."""
        strategy: dict[int, str] = {}
        trio = self.splitview_corrupt() if self.splitview_round else ()
        for name, ids in (
            ("crash", [v for v, _ in self.crash]),
            ("equivocate", self.equivocate),
            ("withhold", [v for v, _ in self.withhold]),
            ("splitview_round", trio),
        ):
            for v in ids:
                if strategy.get(v) == name:
                    raise ConfigError(f"{name} names validator {v} twice")
                if v in strategy:
                    raise ConfigError(f"validator {v} is in both {strategy[v]} and {name}")
                strategy[v] = name
        for v, r in self.crash:
            if r < 1:
                raise ConfigError(f"crash round {r} of validator {v} is below 1")
        for v, targets in self.withhold:
            for t in targets:
                if not (0 <= t < self.n):
                    raise ConfigError(f"withhold target {t} of validator {v} is not in the committee")

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

    def faulty_validators(self) -> frozenset[int]:
        """Every corrupt validator of the first epoch; a restarted epoch has none."""
        faulty = {v for v, _ in self.crash} | set(self.equivocate)
        faulty |= {v for v, _ in self.withhold}
        if self.splitview_round:
            faulty |= set(self.splitview_corrupt())
        return frozenset(faulty)

    def splitview_corrupt(self) -> tuple[int, ...]:
        """The view-split attack's corrupt trio: the attacked round's leader
        and the next two validators."""
        r = self.splitview_round
        return (r % self.n, (r + 1) % self.n, (r + 2) % self.n)

    @staticmethod
    def from_text(text: str) -> "ScenarioConfig":
        """Read a scenario file: `key=value` lines naming config fields, with
        `#` comments; a field left out keeps its default (`name`: custom)."""
        defaults = {f.name: f.default for f in fields(ScenarioConfig)}
        kv = {"name": "custom"}
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in defaults:
                raise ConfigError(f"unknown scenario key {key!r}")
            try:
                kv[key] = _parse_value(key, defaults[key], value)
            except (KeyError, ValueError):
                raise ConfigError(f"malformed value {value!r} for {key}") from None
        cfg = ScenarioConfig(**kv)
        cfg.validate()
        return cfg


# separator and tail parser of each `;`-separated tuple field of pairs
_PAIRS = {
    "crash": ("@", int),  # validator@round
    "withhold": (">", lambda ts: tuple(int(t) for t in ts.split(",") if t)),  # v>t,t
    "byz_guards": (":", str),  # guard:policy
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_value(key: str, default, value: str):
    if key == "equivocate":
        return tuple(int(item) for item in value.split(";") if item)
    if key in _PAIRS:
        sep, tail = _PAIRS[key]
        items = [item.partition(sep) for item in value.split(";") if item]
        if not all(found for _, found, _ in items):
            raise ValueError(value)
        return tuple((int(head), tail(rest)) for head, _, rest in items)
    if isinstance(default, bool):
        return _BOOLEANS[value.lower()]
    return int(value) if isinstance(default, int) else value


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
