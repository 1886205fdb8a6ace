"""Health verdicts for the serve daemon: ok / degraded / failing, with reasons.

The daemon's counters say what happened; nothing said whether the daemon
is *well*.  :class:`HealthMonitor` evaluates live queue/pool/claim state
into one machine-readable verdict, in the spirit of assertion-based
monitors that derive health from counters rather than log archaeology:

- **stuck-shard watchdog**: a claimed shard with unresolved jobs and no
  landed (or failed) result for more than ``stuck_after`` seconds is
  *stuck* -- an event is logged, a counter increments, and (opt-in,
  ``requeue_stuck=True``) the holding worker is killed so the existing
  crash path requeues the shard under the normal attempt accounting;
- **worker liveness**: dead-but-not-yet-respawned workers degrade; a
  pool with zero live workers and queued work is failing;
- **incident memory**: crashes, requeues, and dead letters observed in
  the last ``incident_window`` seconds degrade -- the monitor remembers
  what just happened even after the pool recovered, so a scraper polling
  every few seconds cannot miss a crash that healed in milliseconds;
- **dead-letter / requeue rates**: lifetime ratios against completions
  past their thresholds degrade (a poison-pill-heavy workload is not
  healthy even when the queue keeps moving).

The verdict is the worst individual check: any failing check fails the
daemon, else any degraded check degrades it, else it is ok.  Every
reason is a dict with ``check`` / ``severity`` / ``detail`` so
dashboards and scripts can dispatch on it without parsing prose.

Evaluation only *reads* scheduling state (plus the opt-in watchdog kick,
which reuses the crash-recovery path); results remain bit-identical with
the monitor on, off, or kicking.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY

__all__ = [
    "HEALTH_DEGRADED",
    "HEALTH_FAILING",
    "HEALTH_OK",
    "HealthMonitor",
    "HealthReport",
]

HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_FAILING = "failing"

# Lifetime ``dead/(dead+completed)`` and ``requeues/(requeues+completed)``
# ratios beyond which the workload itself is flagged, evaluated only once
# ``MIN_SAMPLES`` jobs have resolved: one early crash must not poison the
# lifetime rate of a daemon that then runs clean for hours (the incident
# check already covers the recent past).
DEAD_LETTER_THRESHOLD = 0.05
REQUEUE_THRESHOLD = 0.25
MIN_SAMPLES = 10

_SEVERITY_RANK = {HEALTH_OK: 0, HEALTH_DEGRADED: 1, HEALTH_FAILING: 2}
_STATUS_VALUE = {HEALTH_OK: 0.0, HEALTH_DEGRADED: 1.0, HEALTH_FAILING: 2.0}

_CHECKS_TOTAL = REGISTRY.counter(
    "redqaoa_health_checks_total", "health evaluations performed"
)
_STUCK_TOTAL = REGISTRY.counter(
    "redqaoa_health_stuck_shards_total", "claims flagged stuck by the watchdog"
)
_WATCHDOG_KICKS = REGISTRY.counter(
    "redqaoa_health_watchdog_kicks_total",
    "workers killed by the stuck-shard watchdog to force a requeue",
)
_STATUS = REGISTRY.gauge(
    "redqaoa_health_status", "last health verdict (0 ok, 1 degraded, 2 failing)"
)


@dataclass
class HealthReport:
    """One evaluation: the verdict, per-check statuses, and the reasons."""

    status: str
    checks: dict[str, str]
    reasons: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == HEALTH_OK

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "checks": dict(self.checks),
            "reasons": [dict(reason) for reason in self.reasons],
        }


class HealthMonitor:
    """Evaluate queue + pool + claim state into a :class:`HealthReport`.

    Parameters
    ----------
    queue:
        The daemon's :class:`~repro.serve.queue.ShardedJobQueue`.
    pool:
        The worker pool (``worker_states()`` / optional ``kick()``).
    claims:
        The daemon-owned ``{claim_id: ShardClaim}`` map of outstanding
        claims (the same dict the pump resolves into).
    stuck_after:
        Watchdog deadline in seconds: a claim with unresolved jobs and no
        progress for this long is stuck.
    incident_window:
        How long a crash/requeue/dead-letter keeps the verdict degraded
        after the fact.
    requeue_stuck:
        Kill the worker holding a stuck claim so the crash path requeues
        it (bounded by the queue's normal attempt accounting).  Off by
        default: detection is always safe, intervention is a policy.

    The lifetime-rate checks use the module's ``DEAD_LETTER_THRESHOLD``,
    ``REQUEUE_THRESHOLD`` and ``MIN_SAMPLES``.

    The caller is responsible for holding whatever lock guards ``queue``
    and ``claims`` during :meth:`check` -- the daemon evaluates under its
    own lock, exactly like ``status``.
    """

    def __init__(
        self,
        queue,
        pool,
        claims: dict,
        stuck_after: float = 300.0,
        incident_window: float = 60.0,
        requeue_stuck: bool = False,
        log=None,
    ) -> None:
        if stuck_after <= 0:
            raise ValueError(f"stuck_after must be > 0, got {stuck_after}")
        if incident_window <= 0:
            raise ValueError(f"incident_window must be > 0, got {incident_window}")
        self.queue = queue
        self.pool = pool
        self.claims = claims
        self.stuck_after = float(stuck_after)
        self.incident_window = float(incident_window)
        self.requeue_stuck = bool(requeue_stuck)
        self.log = log
        self._last_counts = {"crashes": 0, "requeues": 0, "dead": 0}
        self._incidents: deque = deque(maxlen=256)  # (monotonic, kind, amount)
        self._flagged_stuck: set[int] = set()  # claim ids already eventized

    # -- evaluation ----------------------------------------------------------

    def check(self) -> HealthReport:
        """One evaluation; cheap enough to run every pump tick."""
        _CHECKS_TOTAL.inc()
        now = time.monotonic()
        now_ns = time.perf_counter_ns()
        self._observe_incidents(now)

        checks: dict[str, str] = {}
        reasons: list[dict] = []

        def flag(check: str, severity: str, detail: str, **extra) -> None:
            checks[check] = _worse(checks.get(check, HEALTH_OK), severity)
            reasons.append(
                {"check": check, "severity": severity, "detail": detail, **extra}
            )

        # -- worker liveness -------------------------------------------------
        states = self.pool.worker_states()
        alive = sum(1 for state in states if state["alive"])
        checks["workers"] = HEALTH_OK
        if alive == 0 and (self.queue.depth or self.queue.num_running):
            flag(
                "workers",
                HEALTH_FAILING,
                f"no live workers with {self.queue.depth} queued and "
                f"{self.queue.num_running} running jobs",
                alive=0,
                configured=len(states),
            )
        elif alive < len(states):
            dead_pids = [s["pid"] for s in states if not s["alive"]]
            flag(
                "workers",
                HEALTH_DEGRADED,
                f"{len(states) - alive} of {len(states)} workers dead "
                "(respawn pending)",
                alive=alive,
                configured=len(states),
                dead_pids=dead_pids,
            )

        # -- stuck-shard watchdog --------------------------------------------
        checks.setdefault("stuck_shards", HEALTH_OK)
        live_claim_ids = set()
        for claim in list(self.claims.values()):
            live_claim_ids.add(claim.id)
            if not claim.unresolved():
                continue
            last_progress = max(claim.claimed_ns, claim.progress_ns)
            age = (now_ns - last_progress) / 1e9
            if age < self.stuck_after:
                continue
            severity = (
                HEALTH_FAILING if age >= 3.0 * self.stuck_after else HEALTH_DEGRADED
            )
            flag(
                "stuck_shards",
                severity,
                f"claim {claim.id} (shard {claim.shard!r}) has "
                f"{len(claim.unresolved())} unresolved jobs and no result "
                f"for {age:.1f}s (deadline {self.stuck_after:.1f}s)",
                claim=claim.id,
                shard=claim.shard,
                stalled_seconds=round(age, 3),
            )
            if claim.id not in self._flagged_stuck:
                self._flagged_stuck.add(claim.id)
                _STUCK_TOTAL.inc()
                if self.log is not None:
                    self.log.warning(
                        "stuck_shard",
                        claim=claim.id,
                        shard=claim.shard,
                        stalled_seconds=round(age, 3),
                        unresolved=len(claim.unresolved()),
                    )
                if self.requeue_stuck and self.pool.kick(claim.id):
                    _WATCHDOG_KICKS.inc()
                    if self.log is not None:
                        self.log.warning(
                            "watchdog_kick", claim=claim.id, shard=claim.shard
                        )
        self._flagged_stuck &= live_claim_ids  # resolved claims can re-trip later

        # -- recent incidents ------------------------------------------------
        checks.setdefault("incidents", HEALTH_OK)
        horizon = now - self.incident_window
        recent: dict[str, int] = {}
        for stamp, kind, amount in self._incidents:
            if stamp >= horizon:
                recent[kind] = recent.get(kind, 0) + amount
        if recent:
            detail = ", ".join(
                f"{count} {kind}" for kind, count in sorted(recent.items())
            )
            flag(
                "incidents",
                HEALTH_DEGRADED,
                f"recent incidents ({self.incident_window:.0f}s window): {detail}",
                **recent,
            )

        # -- lifetime failure rates ------------------------------------------
        completed = len(self.queue.completed)
        checks.setdefault("dead_letters", HEALTH_OK)
        dead = len(self.queue.dead)
        if dead and dead + completed >= MIN_SAMPLES:
            rate = dead / (dead + completed)
            if rate >= DEAD_LETTER_THRESHOLD:
                flag(
                    "dead_letters",
                    HEALTH_DEGRADED,
                    f"{dead} dead letters = {rate:.1%} of resolved jobs "
                    f"(threshold {DEAD_LETTER_THRESHOLD:.0%})",
                    dead=dead,
                    rate=round(rate, 4),
                )
        checks.setdefault("requeue_rate", HEALTH_OK)
        requeues = self.queue.requeues
        if requeues and requeues + completed >= MIN_SAMPLES:
            rate = requeues / (requeues + completed)
            if rate >= REQUEUE_THRESHOLD:
                flag(
                    "requeue_rate",
                    HEALTH_DEGRADED,
                    f"{requeues} requeues = {rate:.1%} of executions "
                    f"(threshold {REQUEUE_THRESHOLD:.0%})",
                    requeues=requeues,
                    rate=round(rate, 4),
                )

        status = HEALTH_OK
        for value in checks.values():
            status = _worse(status, value)
        _STATUS.set(_STATUS_VALUE[status])
        return HealthReport(status=status, checks=checks, reasons=reasons)

    # -- incident memory -----------------------------------------------------

    def _observe_incidents(self, now: float) -> None:
        """Diff the queue's incident counters; remember when they moved."""
        current = {
            "crashes": self.queue.crashes,
            "requeues": self.queue.requeues,
            "dead": self.queue.parked,
        }
        for kind, value in current.items():
            delta = value - self._last_counts[kind]
            if delta > 0:
                self._incidents.append((now, kind, delta))
        self._last_counts = current


def _worse(a: str, b: str) -> str:
    return a if _SEVERITY_RANK[a] >= _SEVERITY_RANK[b] else b
