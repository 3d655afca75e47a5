"""Failure handling for the sharded engine: retries and fault injection.

Long runs die for boring reasons — an OOM-killed pool worker, a
transient filesystem hiccup, a flaky container.  This module owns the
engine's answer to all of them:

- :class:`RecoverySettings` — the ``recovery`` block of
  :class:`~repro.simulation.config.SimulationConfig`: how many times a
  failed shard is retried and the capped exponential backoff between
  attempts (``delay(attempt) = min(base * 2**attempt, cap)``);
- :class:`ShardExecutionError` — raised by the engine when a shard
  task exhausts its retries; when a checkpoint store is attached the
  message points at ``--resume``, because every completed day is
  already checkpointed (:mod:`repro.simulation.checkpoint`);
- :class:`FaultPlan` — a deterministic fault-injection hook, parsed
  from ``SimulationConfig.fault_spec`` or the ``REPRO_FAULTS``
  environment variable, that makes every recovery path testable in CI
  without real crashes.

Fault-plan grammar
------------------
A spec is ``;``-separated directives of ``action:key=value,...``:

``kill[:shard=S][,day=D]``
    Raise :class:`InjectedFault` on every attempt at the matching
    (shard, day) — the shard fails permanently, retries exhaust, and
    the run aborts with :class:`ShardExecutionError`.  The crash half
    of the crash-and-resume tests.
``flaky:times=N[,shard=S][,day=D]``
    Raise on the first ``N`` attempts only; attempt ``N`` succeeds.
    Exercises the retry/backoff path end to end.
``exit[:shard=S][,day=D]``
    ``os._exit`` the *pool worker* process (a hard crash the executor
    reports as a broken pool), triggering the engine's degrade-to-
    in-process path.  Ignored outside a pool worker, which is exactly
    what lets the degraded rerun succeed.
``poison[:shard=S][,day=D]``
    Corrupt the checkpoint file right after it is written, so a later
    resume must detect and reject it.

Omitted ``shard``/``day`` keys match every shard/day.  Faults never
influence a successful run's numbers — they only decide whether an
attempt fails — so the checkpoint config digest deliberately ignores
``fault_spec`` (see :func:`repro.simulation.checkpoint.config_digest`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "RecoverySettings",
    "ShardExecutionError",
    "corrupt_file",
]

#: Environment override for the fault plan (takes precedence over
#: ``SimulationConfig.fault_spec`` when set and non-empty).
FAULTS_ENV = "REPRO_FAULTS"

_ACTIONS = ("kill", "flaky", "exit", "poison")


class InjectedFault(Exception):
    """A deliberate failure raised by an active :class:`FaultPlan`."""


class ShardExecutionError(Exception):
    """A shard kept failing after every configured retry.

    Carries the shard index, the attempt count and whether a checkpoint
    store was attached; the original failure is chained as
    ``__cause__``.  With a store, completed days survive in it and the
    run can be completed with ``--resume``; without one nothing was
    saved, and the message says so instead.
    """

    def __init__(
        self, shard: int, attempts: int, *, checkpointed: bool
    ) -> None:
        if checkpointed:
            advice = (
                "completed days are checkpointed — finish the run with "
                "'python -m repro simulate --resume <run-dir>'"
            )
        else:
            advice = (
                "no checkpoint store was attached, so no day was saved "
                "— rerun it from the start"
            )
        super().__init__(
            f"shard {shard} failed after {attempts} attempt(s); {advice}"
        )
        self.shard = shard
        self.attempts = attempts
        self.checkpointed = checkpointed


@dataclass(frozen=True)
class RecoverySettings:
    """The ``recovery`` block of a simulation configuration.

    ``max_retries`` is the number of *re*-attempts after the first
    failure (0 = fail fast); attempts are separated by a capped
    exponential backoff.  Purely operational: results are independent
    of every field, so the checkpoint config digest ignores the block.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 4.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        return min(self.backoff_base_s * (2.0 ** attempt), self.backoff_cap_s)


@dataclass(frozen=True)
class FaultRule:
    """One parsed directive of a fault spec."""

    action: str
    shard: int | None = None
    day: int | None = None
    times: int = 1

    def matches(self, shard: int, day: int) -> bool:
        return (self.shard is None or self.shard == shard) and (
            self.day is None or self.day == day
        )


class FaultPlan:
    """A deterministic set of injected failures for one run."""

    def __init__(self, rules: tuple[FaultRule, ...]) -> None:
        self.rules = rules

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string (see the module docstring's grammar)."""
        rules: list[FaultRule] = []
        for directive in spec.split(";"):
            directive = directive.strip()
            if not directive:
                continue
            action, _, arg_text = directive.partition(":")
            action = action.strip()
            if action not in _ACTIONS:
                raise ValueError(
                    f"unknown fault action {action!r} in {directive!r} "
                    f"(expected one of {', '.join(_ACTIONS)})"
                )
            keys: dict[str, int] = {}
            for item in filter(None, arg_text.split(",")):
                key, sep, value = item.partition("=")
                key = key.strip()
                if not sep or key not in ("shard", "day", "times"):
                    raise ValueError(
                        f"bad fault argument {item!r} in {directive!r} "
                        "(expected shard=/day=/times=)"
                    )
                try:
                    keys[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"fault argument {item!r} is not an integer"
                    ) from None
            if "times" in keys and action != "flaky":
                raise ValueError("times= is only valid for flaky faults")
            rules.append(
                FaultRule(
                    action=action,
                    shard=keys.get("shard"),
                    day=keys.get("day"),
                    times=keys.get("times", 1),
                )
            )
        return cls(tuple(rules))

    @classmethod
    def active(cls, config) -> "FaultPlan | None":
        """The plan in force for ``config``: env override, else config.

        Returns ``None`` (the common case) when neither source names a
        fault, so the engine pays one attribute lookup per shard.
        """
        spec = os.environ.get(FAULTS_ENV) or getattr(
            config, "fault_spec", None
        )
        return cls.parse(spec) if spec else None

    def check(
        self, shard: int, day: int, attempt: int, *, in_pool: bool = False
    ) -> None:
        """Fire any fault matching (shard, day) at this attempt.

        ``kill`` raises on every attempt, ``flaky`` on the first
        ``times`` attempts, ``exit`` hard-kills the process when it is
        a pool worker (and is otherwise inert — the degraded in-process
        rerun must succeed).
        """
        for rule in self.rules:
            if not rule.matches(shard, day):
                continue
            if rule.action == "exit" and in_pool:  # pragma: no cover
                os._exit(23)
            if rule.action == "kill" or (
                rule.action == "flaky" and attempt < rule.times
            ):
                # Counted by the engine where the failure lands.
                raise InjectedFault(
                    f"injected {rule.action} fault: shard {shard}, "
                    f"day {day}, attempt {attempt}"
                )

    def should_poison(self, shard: int, day: int) -> bool:
        """True when a ``poison`` directive matches (shard, day)."""
        return any(
            rule.action == "poison" and rule.matches(shard, day)
            for rule in self.rules
        )


def corrupt_file(path) -> None:
    """Flip bytes in the middle of ``path`` (the ``poison`` fault)."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if not data:
        return
    middle = len(data) // 2
    for offset in range(middle, min(middle + 16, len(data))):
        data[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(data)
