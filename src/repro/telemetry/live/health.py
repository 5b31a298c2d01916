"""Declarative DP health monitoring over the live metrics registry.

A :class:`HealthMonitor` evaluates a set of :class:`AlertRule` objects
against sliding windows of registry gauges (and deltas of registry
counters) each time :meth:`HealthMonitor.evaluate` runs — per step for a
watched trainer recorder, per service cycle for a
:class:`~repro.service.BudgetServer`.

Built-in DP-native rules (all constructible from plain dicts, so rule
sets can live in JSON files — see ``docs/observability.md``):

* ``epsilon_burn_rate`` — linear projection of the ε-spend gauge window
  exceeds the budget within ``horizon_steps``;
* ``clip_saturation`` — windowed mean of ``clipped_fraction`` above a
  threshold (the Gaussian mechanism's sensitivity bound is doing all the
  work; the learning signal is being truncated);
* ``noise_floor`` — windowed mean of ``noise_to_signal`` above a
  ceiling (noise dominates signal, utility collapse);
* ``angular_regression`` — GeoDP's windowed mean ``angular_deviation``
  above a DP-SGD baseline (the geometric advantage has inverted);
* ``retry_spike`` / ``fallback_storm`` — counter increase between
  consecutive evaluations above a limit (runtime stragglers, backend
  degradation).

Rising edges are *annotated into the release ledger* via
``record_annotation(kind="alert")``: alert records ride the existing
hash chain, making them tamper-evident, replayable, and automatically
persisted/restored wherever the ledger is (report extraction and the
restart-surviving acceptance path both read them back from there).
"""

from __future__ import annotations

import statistics

__all__ = [
    "AlertRule",
    "HealthMonitor",
    "alert_meta",
    "rule_from_dict",
    "default_training_rules",
]


class AlertRule:
    """One declarative health predicate over the registry.

    ``kind`` selects the evaluation strategy; thresholds and metric
    names are plain data, so rules round-trip through ``to_dict`` /
    :func:`rule_from_dict`.
    """

    WINDOW_KINDS = ("clip_saturation", "noise_floor", "angular_regression", "window_mean")
    COUNTER_KINDS = ("retry_spike", "fallback_storm", "counter_rate")
    KINDS = ("epsilon_burn_rate",) + WINDOW_KINDS + COUNTER_KINDS

    #: Default gauge/counter per built-in kind.
    DEFAULT_METRICS = {
        "clip_saturation": "clipped_fraction",
        "noise_floor": "noise_to_signal",
        "angular_regression": "angular_deviation",
        "epsilon_burn_rate": "service_tenant_epsilon_spent",
        "retry_spike": "runtime_retries",
        "fallback_storm": "backend_fallbacks",
    }

    def __init__(
        self,
        kind: str,
        *,
        name: str | None = None,
        metric: str | None = None,
        labels: dict[str, str] | None = None,
        threshold: float | None = None,
        budget: float | None = None,
        horizon_steps: int = 100,
        window: int = 16,
        min_samples: int = 4,
        severity: str = "warning",
        description: str = "",
    ):
        if kind not in self.KINDS:
            raise ValueError(f"unknown alert rule kind {kind!r} (known: {self.KINDS})")
        self.kind = kind
        self.metric = metric or self.DEFAULT_METRICS.get(kind)
        if self.metric is None:
            raise ValueError(f"rule kind {kind!r} requires an explicit metric=")
        self.labels = dict(labels or {})
        self.name = name or (
            self.kind
            + ("[" + ",".join(f"{k}={v}" for k, v in sorted(self.labels.items())) + "]"
               if self.labels else "")
        )
        self.threshold = None if threshold is None else float(threshold)
        self.budget = None if budget is None else float(budget)
        self.horizon_steps = int(horizon_steps)
        self.window = int(window)
        self.min_samples = max(1, int(min_samples))
        self.severity = severity
        self.description = description
        if kind == "epsilon_burn_rate" and self.budget is None:
            raise ValueError("epsilon_burn_rate requires budget=")
        if kind in self.WINDOW_KINDS and self.threshold is None:
            raise ValueError(f"{kind} requires threshold=")
        if kind in self.COUNTER_KINDS and self.threshold is None:
            raise ValueError(f"{kind} requires threshold= (max increase per cycle)")

    # --------------------------------------------------------------- config
    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "name": self.name,
            "metric": self.metric,
            "severity": self.severity,
            "window": self.window,
            "min_samples": self.min_samples,
            "horizon_steps": self.horizon_steps,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.budget is not None:
            out["budget"] = self.budget
        if self.description:
            out["description"] = self.description
        return out

    # ----------------------------------------------------------- evaluation
    def evaluate(self, registry, last_counters: dict) -> dict:
        """One evaluation → a JSON-safe verdict.

        ``last_counters`` is the monitor's per-rule memory of counter
        values at the previous evaluation (for the delta rules).
        """
        if self.kind in self.COUNTER_KINDS:
            return self._evaluate_counter(registry, last_counters)
        samples = registry.gauge(self.metric, self.labels).samples()
        samples = samples[-self.window:]
        verdict = {
            "rule": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "labels": dict(self.labels),
            "severity": self.severity,
            "firing": False,
            "value": None,
            "threshold": self.threshold,
            "step": samples[-1][0] if samples else None,
        }
        if len(samples) < self.min_samples:
            return verdict
        if self.kind == "epsilon_burn_rate":
            return self._evaluate_burn_rate(samples, verdict)
        mean = statistics.fmean(v for _, v in samples)
        verdict["value"] = mean
        verdict["firing"] = mean > self.threshold
        return verdict

    def _evaluate_burn_rate(self, samples, verdict: dict) -> dict:
        (s0, v0), (s1, v1) = samples[0], samples[-1]
        verdict["threshold"] = self.budget
        verdict["value"] = v1
        if s1 <= s0:
            return verdict
        rate = (v1 - v0) / (s1 - s0)
        projected = v1 + rate * self.horizon_steps
        verdict["burn_rate"] = rate
        verdict["projected"] = projected
        verdict["horizon_steps"] = self.horizon_steps
        verdict["firing"] = rate > 0 and projected > self.budget
        return verdict

    def _evaluate_counter(self, registry, last_counters: dict) -> dict:
        current = registry.counter(self.metric, self.labels).value
        previous = last_counters.get(self.name)
        last_counters[self.name] = current
        delta = 0.0 if previous is None else current - previous
        return {
            "rule": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "labels": dict(self.labels),
            "severity": self.severity,
            "firing": previous is not None and delta > self.threshold,
            "value": delta,
            "threshold": self.threshold,
            "step": None,
        }


def rule_from_dict(spec: dict) -> AlertRule:
    """Build a rule from its declarative dict form (JSON rule files)."""
    spec = dict(spec)
    kind = spec.pop("kind")
    return AlertRule(kind, **spec)


def default_training_rules(
    *,
    clip_threshold: float = 0.95,
    noise_ceiling: float = 8.0,
    angular_baseline: float | None = None,
    retry_limit: float = 4,
    fallback_limit: float = 0,
    window: int = 16,
) -> list[AlertRule]:
    """The standard rule set for a single training run.

    ``angular_baseline`` defaults to ``pi/2`` (noise at right angles to
    the signal — the DP-SGD expectation in high dimension); pass the
    measured DP-SGD mean to alert on GeoDP regressing past its baseline.
    """
    import math

    if angular_baseline is None:
        angular_baseline = math.pi / 2
    return [
        AlertRule("clip_saturation", threshold=clip_threshold, window=window),
        AlertRule("noise_floor", threshold=noise_ceiling, window=window),
        AlertRule("angular_regression", threshold=angular_baseline, window=window),
        AlertRule("retry_spike", threshold=retry_limit),
        AlertRule("fallback_storm", threshold=fallback_limit),
    ]


class HealthMonitor:
    """Evaluates alert rules against a registry; annotates rising edges.

    The monitor keeps edge state per rule so an alert fires once per
    transition (quiet → firing), not once per evaluation.  On a rising
    edge it:

    * increments the ``alerts_fired`` counter (labelled by rule),
    * calls ``annotator(verdict)`` when provided, else annotates
      ``ledger`` directly via ``record_annotation(kind="alert")``.

    ``alert_firing{rule=...}`` gauges track the *current* state (1/0) on
    every evaluation, so a scrape always shows what is firing now.
    """

    def __init__(
        self,
        registry,
        rules=(),
        *,
        ledger=None,
        accountant=None,
        annotator=None,
    ):
        self.registry = registry
        self.rules: list[AlertRule] = list(rules)
        self.ledger = ledger
        self.accountant = accountant
        self.annotator = annotator
        self._was_firing: dict[str, bool] = {}
        self._last_counters: dict[str, float] = {}
        self._active: dict[str, dict] = {}
        self.fired: list[dict] = []

    def add_rule(self, rule: AlertRule) -> None:
        self.rules.append(rule)

    def set_rules(self, rules) -> None:
        self.rules = list(rules)
        for name in list(self._was_firing):
            if not any(r.name == name for r in self.rules):
                del self._was_firing[name]
                self._active.pop(name, None)

    # ----------------------------------------------------------- evaluation
    def evaluate(self, *, step: int | None = None) -> list[dict]:
        """Run every rule once; returns the newly-fired verdicts."""
        self.registry.run_collectors()
        fired_now: list[dict] = []
        for rule in self.rules:
            verdict = rule.evaluate(self.registry, self._last_counters)
            if step is not None:
                verdict["evaluated_at_step"] = int(step)
            firing = bool(verdict["firing"])
            self.registry.set_gauge(
                "alert_firing",
                1.0 if firing else 0.0,
                step=step,
                labels={"rule": rule.name},
            )
            was = self._was_firing.get(rule.name, False)
            self._was_firing[rule.name] = firing
            if firing:
                self._active[rule.name] = verdict
                if not was:
                    self.registry.inc("alerts_fired", labels={"rule": rule.name})
                    self.fired.append(verdict)
                    fired_now.append(verdict)
                    self._annotate(verdict)
            else:
                self._active.pop(rule.name, None)
        return fired_now

    def _annotate(self, verdict: dict) -> None:
        if self.annotator is not None:
            self.annotator(verdict)
        elif self.ledger is not None:
            self.ledger.record_annotation(
                kind="alert",
                accountant=self.accountant,
                meta=alert_meta(verdict),
            )

    # -------------------------------------------------------------- reading
    def firing(self) -> list[dict]:
        """Currently-active verdicts, sorted by rule name."""
        return [self._active[name] for name in sorted(self._active)]

    def state(self) -> dict:
        """JSON-safe monitor state for ``/alerts.json`` and snapshots."""
        return {
            "active": self.firing(),
            "fired_total": len(self.fired),
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def watch(self, recorder) -> None:
        """Evaluate after every closed step of ``recorder``.

        Binds the registry to the recorder if not already bound, so a
        single call wires a Trainer run for live monitoring; the binding
        publishes what the recorder records from now on.
        """
        if getattr(recorder, "_registry", None) is not self.registry:
            recorder.bind_registry(self.registry)
        recorder.add_end_step_hook(lambda iteration: self.evaluate(step=iteration))


def alert_meta(verdict: dict) -> dict:
    """The ledger-annotation payload for one fired verdict."""
    meta = {"alert": verdict["rule"], "kind": verdict["kind"]}
    for key in (
        "metric", "labels", "severity", "value", "threshold",
        "burn_rate", "projected", "horizon_steps", "step", "evaluated_at_step",
    ):
        if verdict.get(key) is not None:
            meta[key] = verdict[key]
    return meta
