"""Outside-in tracing of the treesample layers.

The tracer replaces named functions and methods with timing wrappers through
their module or class attribute, and puts the originals back on exit. A
module-level function is replaced in every `treesample` module that holds it
(`cli` imports `smc`, `solve_exact` and friends by name), so calls made
through any of those names are seen.

Spans are aggregated per name as they close: call count, inclusive time,
self time (inclusive time minus the time of spans that ran inside it) and,
for batch calls, the rows processed. Keeping one record per span would cost
memory in proportion to the ~10^6 calls a pass makes.

A target that no longer exists, for instance after a refactor removes a
class, is listed in `absent` and otherwise ignored.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "treesample"


def _rows_of_batch(args, kwargs) -> int:
    prefixes = kwargs.get("prefixes", args[2] if len(args) > 2 else ())
    return len(prefixes)


# (metric name, module, attribute path, rows counter or None)
# Several targets may share one metric name; their spans are pooled.
TARGETS = (
    ("search.q_uct_select", "search", "q_uct_select", None),
    ("search.backup", "search", "backup", None),
    ("search.TreeNode.value", "search", "TreeNode.value", None),
    ("search.expand", "search", "expand", None),
    ("search.sample", "search", "SearchTree.sample", None),
    ("search.log_density", "search", "SearchTree.log_density", None),
    ("metrics.delta_kl_sampler", "metrics", "delta_kl_sampler", None),
    ("metrics.energy_entropy_deltas", "metrics", "energy_entropy_deltas", None),
    ("metrics.delta_kl_atoms", "metrics", "delta_kl_atoms", None),
    ("model.reward", "model", "FactorGraph.reward", None),
    ("model.log_unnormalized_density", "model", "FactorGraph.log_unnormalized_density", None),
    ("prior.evaluate", "prior", "HeuristicPrior.evaluate", lambda a, k: 1),
    ("prior.evaluate", "prior", "MLPValueFunction.evaluate", lambda a, k: 1),
    ("prior.evaluate_batch", "prior", "HeuristicPrior.evaluate_batch", _rows_of_batch),
    ("prior.evaluate_batch", "prior", "MLPValueFunction.evaluate_batch", _rows_of_batch),
    ("baselines.smc", "baselines", "smc", None),
    ("baselines.gibbs", "baselines", "gibbs", None),
    ("baselines.bp_sample", "baselines", "bp_sample", None),
    ("exact.solve_exact", "exact", "solve_exact", None),
    ("exact.solve_chain", "exact", "solve_chain", None),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0


class Tracer:
    """Context manager that times the TARGETS while it is active.

    It may be entered again after it exits; the statistics accumulate until
    reset().
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, *_ in targets}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated by each open span
        self._restore: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        for name, module_name, attr_path, rows_of in self.targets:
            try:
                self._install(name, module_name, attr_path, rows_of)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr_path}")
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original, owned = self._restore.pop()
            if owned:
                setattr(owner, attr, original)
            else:  # the attribute was inherited; remove the override
                delattr(owner, attr)

    def reset(self) -> None:
        for name in self.stats:
            self.stats[name] = SpanStats()

    def _install(self, name, module_name, attr_path, rows_of) -> None:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        *owner_path, attr = attr_path.split(".")
        if owner_path:  # a method: replace it on its class only
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            owned = attr in owner.__dict__
            original = owner.__dict__[attr] if owned else getattr(owner, attr)
            self._replace(owner, attr, self._wrap(name, original, rows_of), original, owned)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, rows_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                if mod.__dict__.get(attr) is original:
                    self._replace(mod, attr, wrapped, original, True)

    def _replace(self, owner, attr, wrapped, original, owned) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original, owned))

    def _wrap(self, name, fn, rows_of):
        stack = self._stack
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stats = tracer.stats[name]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - child
                if rows_of is not None:
                    stats.rows += rows_of(args, kwargs)

        return traced
