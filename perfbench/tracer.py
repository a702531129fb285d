"""Layer tracing from outside the library.

``Tracer.install()`` replaces the public functions of each seqinvest
layer, and the public methods of its classes, with wrappers that record
a span per call; ``uninstall()`` puts the originals back.  A replaced
function is swapped in every ``seqinvest`` namespace that holds it (the
package and every module that imported it by name, e.g. ``bisect`` in
``profiles``, ``equilibrium``, ``optima`` and ``cli``), otherwise calls
through those names would escape their span.

A layer's self time is the time inside its spans minus the time of the
spans nested in them.  Counts are kept at the same boundaries: rate
primitives are counted by rebuilding each rate with counting ``_p`` /
``_p_prime`` / ``_prize`` callables (``dataclasses.replace`` -- rates are
immutable, so this gives a new rate object), and the functions handed to
the scalar solvers are wrapped to count their evaluations.  Spans live in
memory only; ``metrics()`` folds them into the per-layer numbers.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("rates", "solvers", "profiles", "rules", "equilibrium", "optima", "simulate", "cli")

# Spans whose inclusive time is reported on its own (outermost call only).
_CATEGORY = {
    "rules.StationaryColumnRule.__init__": "construct",
    "rules.JackpotRule.__init__": "construct",
    "rules.Mixture.__init__": "construct",
    "rules.Perturbed.__init__": "construct",
    "rules.continuation_reward": "eval",
    "rules.expected_payoff": "eval",
    "rules.implied_value": "eval",
    "equilibrium.investment_for_return": "inversion",
    "simulate.terminal_histogram": "histogram",
    "simulate.summarize": "summarize",
    "cli.main": "main",
}
_COUNTED = {
    "rules.StationaryColumnRule.__init__": "rules.constructions",
    "rules.JackpotRule.__init__": "rules.constructions",
    "rules.Mixture.__init__": "rules.constructions",
    "rules.Perturbed.__init__": "rules.constructions",
    "rules.StationaryColumnRule.column": "rules.column_calls",
    "rules.JackpotRule.column": "rules.column_calls",
    "rules.Mixture.column": "rules.column_calls",
    "rules.Perturbed.column": "rules.column_calls",
    "rules.continuation_reward": "rules.eval_calls",
    "rules.expected_payoff": "rules.eval_calls",
    "rules.implied_value": "rules.eval_calls",
    "equilibrium.investment_for_return": "equilibrium.inversions",
    "equilibrium.verify_equilibrium": "equilibrium.verify_calls",
}
_SOLVERS = ("bisect", "expand_bracket", "golden_max")
# Only ever called from inside its own layer, so a span would add overhead
# and no attribution: ``Column.value`` is reached through the rule methods.
_UNTRACED_CLASSES = ("Column",)
_RATE_FACTORIES = ("sqrt_ratio", "scaled_sqrt_ratio", "custom_rate", "rate_from_config")

# Every per-layer metric, with its unit, in reporting order.
METRICS = {
    "rates.p_evals": "count",
    "rates.pprime_evals": "count",
    "rates.prize_evals": "count",
    "rates.self_ms": "ms",
    "solvers.calls": "count",
    "solvers.f_evals": "count",
    "solvers.f_evals_per_call": "ratio",
    "solvers.bracket_errors": "count",
    "solvers.self_ms": "ms",
    "profiles.calls": "count",
    "profiles.self_ms": "ms",
    "rules.constructions": "count",
    "rules.construct_ms": "ms",
    "rules.column_calls": "count",
    "rules.eval_calls": "count",
    "rules.eval_ms": "ms",
    "equilibrium.inversions": "count",
    "equilibrium.inversion_ms": "ms",
    "equilibrium.verify_calls": "count",
    "equilibrium.sweeps": "count",
    "equilibrium.self_ms": "ms",
    "optima.calls": "count",
    "optima.self_ms": "ms",
    "simulate.histogram_ms": "ms",
    "simulate.aggregate_ms": "ms",
    "simulate.steps": "count",
    "simulate.discarded": "count",
    "simulate.draw_bytes_computed": "B",
}


def _count(fn, counts: Counter, key: str):
    def counted(x):
        counts[key] += 1
        return fn(x)

    counted.counted_by_tracer = True
    return counted


class Tracer:
    """Spans and counts for one traced cycle; ``reset()`` starts the next."""

    def __init__(self, seqinvest_module) -> None:
        self._si = seqinvest_module
        self._bracket_error = seqinvest_module.BracketError
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.category_ns: defaultdict = defaultdict(int)
        self._depth: Counter = Counter()
        self._stack: list[int] = []
        self._layers: list[str] = []
        self.episodes = 0

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these containers
        for store in (self.counts, self.self_ns, self.category_ns, self._depth, self._stack,
                      self._layers):
            store.clear()
        self.episodes = 0

    # -- counting rates ------------------------------------------------
    def counting(self, rate):
        """A copy of ``rate`` whose primitives count their evaluations."""
        if getattr(rate._p, "counted_by_tracer", False):
            return rate
        prize = rate._prize
        return dataclasses.replace(
            rate,
            _p=_count(rate._p, self.counts, "rates.p_evals"),
            _p_prime=_count(rate._p_prime, self.counts, "rates.pprime_evals"),
            _prize=None if prize is None else _count(prize, self.counts, "rates.prize_evals"),
        )

    # -- spans ---------------------------------------------------------
    def _span(self, key: str, fn, after=None):
        layer = key.split(".", 1)[0]
        category = _CATEGORY.get(key)
        counted = _COUNTED.get(key)
        stack, layers = self._stack, self._layers
        self_ns, category_ns, depth = self.self_ns, self.category_ns, self._depth
        counts = self.counts
        count_key = counted or layer + ".calls"
        plain = category is None and after is None
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            counts[count_key] += 1
            if plain and layers and layers[-1] == layer:
                # a call inside its own layer: its time is already that
                # layer's self time, so only count it
                return fn(*args, **kwargs)
            if category:
                depth[category] += 1
            stack.append(0)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result)
                return result
            finally:
                elapsed = clock() - start
                layers.pop()
                self_ns[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if category:
                    depth[category] -= 1
                    if depth[category] == 0:
                        category_ns[category] += elapsed

        traced.__wrapped__ = fn
        return traced

    def _solver_span(self, name: str, fn):
        counts = self.counts
        bracket_error = self._bracket_error

        def solve(f, *args, **kwargs):
            def g(x):
                counts["solvers.f_evals"] += 1
                return f(x)

            try:
                return fn(g, *args, **kwargs)
            except bracket_error:
                counts["solvers.bracket_errors"] += 1
                raise

        return self._span("solvers." + name, solve)

    def _shard_histogram_hook(self, fn):
        counts = self.counts

        def shard(sr, profile, episodes, rng, max_chain_length):
            hist, dropped = fn(sr, profile, episodes, rng, max_chain_length)
            steps = int(hist.size)
            done_before = np.concatenate(([0], np.cumsum(hist)[:-1]))
            counts["simulate.steps"] += steps
            counts["simulate.draws"] += int(episodes * steps - int(done_before.sum()))
            return hist, dropped

        return shard

    def _summarize_done(self, summary):
        self.counts["simulate.discarded"] += int(summary.discarded)
        self.episodes += int(summary.episodes) + int(summary.discarded)
        return summary

    def _dynamics_done(self, result):
        self.counts["equilibrium.sweeps"] += int(result.sweeps)
        return result

    # -- installing ------------------------------------------------------
    def _replacement(self, layer: str, name: str, obj):
        key = f"{layer}.{name}"
        if layer == "solvers" and name in _SOLVERS:
            return self._solver_span(name, obj)
        if layer == "rates" and name in _RATE_FACTORIES:
            return self._span(key, obj, after=self.counting)
        if key == "simulate.summarize":
            return self._span(key, obj, after=self._summarize_done)
        if key == "equilibrium.best_response_dynamics":
            return self._span(key, obj, after=self._dynamics_done)
        return self._span(key, obj)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for modname, mod in sorted(sys.modules.items())
            if modname == "seqinvest" or modname.startswith("seqinvest.")
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"seqinvest.{layer}")
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(layer, obj)
                elif callable(obj):
                    new = self._replacement(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, attr, new)
        simulate = sys.modules["seqinvest.simulate"]
        self._set(simulate, "_shard_histogram", self._shard_histogram_hook(simulate._shard_histogram))

    def _install_methods(self, layer: str, cls) -> None:
        if issubclass(cls, BaseException) or cls.__name__ in _UNTRACED_CLASSES:
            return
        # constructors count when they do work: rules validate balance,
        # profiles canonicalize, configs check their fields
        constructs = not inspect.isabstract(cls) and (
            issubclass(cls, self._si.RewardRule) or "__post_init__" in vars(cls)
        )
        for name, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            constructor = name == "__init__" and constructs
            if name.startswith("_") and not constructor:
                continue
            if getattr(member, "__isabstractmethod__", False):
                continue
            self._set(cls, name, self._span(f"{layer}.{cls.__name__}.{name}", member))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the spans recorded since ``reset()``."""
        c = self.counts
        ms = {layer: ns / 1e6 for layer, ns in self.self_ns.items()}
        cat = {name: ns / 1e6 for name, ns in self.category_ns.items()}
        solver_calls = c["solvers.calls"]
        return {
            "rates.p_evals": c["rates.p_evals"],
            "rates.pprime_evals": c["rates.pprime_evals"],
            "rates.prize_evals": c["rates.prize_evals"],
            "rates.self_ms": ms.get("rates", 0.0),
            "solvers.calls": solver_calls,
            "solvers.f_evals": c["solvers.f_evals"],
            "solvers.f_evals_per_call": c["solvers.f_evals"] / solver_calls if solver_calls else 0.0,
            "solvers.bracket_errors": c["solvers.bracket_errors"],
            "solvers.self_ms": ms.get("solvers", 0.0),
            "profiles.calls": c["profiles.calls"],
            "profiles.self_ms": ms.get("profiles", 0.0),
            "rules.constructions": c["rules.constructions"],
            "rules.construct_ms": cat.get("construct", 0.0),
            "rules.column_calls": c["rules.column_calls"],
            "rules.eval_calls": c["rules.eval_calls"],
            "rules.eval_ms": cat.get("eval", 0.0),
            "equilibrium.inversions": c["equilibrium.inversions"],
            "equilibrium.inversion_ms": cat.get("inversion", 0.0),
            "equilibrium.verify_calls": c["equilibrium.verify_calls"],
            "equilibrium.sweeps": c["equilibrium.sweeps"],
            "equilibrium.self_ms": ms.get("equilibrium", 0.0),
            "optima.calls": c["optima.calls"],
            "optima.self_ms": ms.get("optima", 0.0),
            "simulate.histogram_ms": cat.get("histogram", 0.0),
            "simulate.aggregate_ms": cat.get("summarize", 0.0) - cat.get("histogram", 0.0),
            "simulate.steps": c["simulate.steps"],
            "simulate.discarded": c["simulate.discarded"],
            "simulate.draw_bytes_computed": 8 * c["simulate.draws"],
        }

    def counters(self) -> dict[str, int]:
        """Every raw count, for the run-to-run identity check."""
        return dict(sorted(self.counts.items()))
