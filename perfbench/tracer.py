"""Outside-in per-layer timing of one ``herald`` run.

:class:`Tracer` wraps public callables of ``src/repro`` with timing spans
before ``repro.cli.main`` runs; nothing inside the program changes.  A
layer's self time is its span minus the wrapped spans nested inside it, so
the self times of all layers sum to at most the run's wall time.

Two rules keep the traced run on the same code paths as an untraced one:

* Only public callables are wrapped.  ``HeraldScheduler.schedule``,
  ``CostModel`` batch estimation and ``Schedule.validate`` pick their fast
  paths by comparing private methods of ``type(self)`` against the base
  class, so a subclass or a wrapped private method would silently measure
  the slow general path.  Methods are replaced as attributes of the class
  itself; no subclass is made.
* Module-level functions are replaced in the module that calls them (a
  ``from x import f`` binding is a separate name from ``x.f``).

A callable that no longer exists, or a result that no longer has the
attribute a work counter reads, is reported in ``missing`` and its metrics
are left out; the run itself goes on.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (layer, module, "Class.method") -- methods wrapped on the class itself.
METHODS = (
    ("maestro.prewarm", "repro.maestro.cost", "CostModel.prewarm"),
    ("scheduler.schedule", "repro.core.scheduler", "HeraldScheduler.schedule"),
    ("schedule.validate", "repro.core.schedule", "Schedule.validate"),
    ("dse.explore", "repro.core.dse", "HeraldDSE.explore"),
    ("dse.rank", "repro.core.dse", "DSEResult.summary_rows"),
    ("exec.backend_run", "repro.exec.backends", "SerialBackend.run"),
    ("exec.backend_run", "repro.exec.backends", "ProcessPoolBackend.run"),
    ("serve.simulate", "repro.serve.simulator", "ServingSimulator.simulate"),
    ("online.engine", "repro.serve.online", "OnlineEngine.run"),
)

#: (layer, defining module, function, modules whose global binding is
#: replaced -- the modules that call it).
FUNCTIONS = (
    ("serve.accounting", "repro.serve.simulator", "build_serving_report",
     ("repro.serve.simulator", "repro.serve.fleet")),
    ("traffic.generate", "repro.serve.traffic", "traffic_suite",
     ("repro.experiment.runner",)),
    # simulate_online imports these from repro.serve.online at call time.
    ("online.service_probe", "repro.serve.online", "measured_service_tables",
     ("repro.serve.online",)),
    ("online.result", "repro.serve.online", "build_online_result",
     ("repro.serve.online",)),
    ("experiment.spec", "repro.experiment.spec", "experiment_from_spec",
     ("repro.cli",)),
    ("experiment.report", "repro.experiment.report", "build_report",
     ("repro.experiment.runner",)),
    ("experiment.report", "repro.experiment.report", "write_report",
     ("repro.cli",)),
)


class Tracer:
    """Span stack plus per-layer self time, call counts and work counters."""

    def __init__(self) -> None:
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing = set()
        self._cost_models = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, layer, func):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        after = _AFTER.get(layer)
        counts = self.counts
        missing = self.missing

        @functools.wraps(func)
        def timed(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                stack.pop()
                self_s[layer] += span - nested[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += span
            if after is not None:
                try:
                    after(counts, result, args)
                except (AttributeError, KeyError, TypeError, IndexError):
                    missing.add(f"work counters of {layer}")
            return result

        return timed

    def install(self) -> None:
        """Install every wrapper; record the callables that are gone."""
        for layer, module_name, path in METHODS:
            class_name, method_name = path.split(".")
            cls = getattr(_module(module_name), class_name, None)
            method = cls.__dict__.get(method_name) if cls is not None else None
            if method is None:
                self.missing.add(f"{module_name}.{path}")
                continue
            setattr(cls, method_name, self._wrap(layer, method))
        for layer, module_name, name, callers in FUNCTIONS:
            func = getattr(_module(module_name), name, None)
            if func is None:
                self.missing.add(f"{module_name}.{name}")
                continue
            timed = self._wrap(layer, func)
            for caller in callers:
                module = _module(caller)
                if module is None or getattr(module, name, None) is not func:
                    self.missing.add(f"{caller}.{name}")
                    continue
                setattr(module, name, timed)
        self._track_cost_models()

    def _track_cost_models(self) -> None:
        """Remember every CostModel the run constructs (for cache_stats)."""
        cost = _module("repro.maestro.cost")
        cls = getattr(cost, "CostModel", None)
        if cls is None or not hasattr(cls, "cache_stats"):
            self.missing.add("repro.maestro.cost.CostModel.cache_stats")
            return
        original = cls.__init__
        models = self._cost_models

        @functools.wraps(original)
        def init(model, *args, **kwargs):
            original(model, *args, **kwargs)
            models.append(model)

        cls.__init__ = init

    # -- results --------------------------------------------------------
    def collect(self) -> dict:
        """The run's per-layer record as plain JSON data."""
        counts = dict(self.counts)
        if self._cost_models:
            stats = [model.cache_stats() for model in self._cost_models]
            counts["maestro.cold_evaluations"] = sum(s["misses"] for s in stats)
            counts["maestro.cache_hits"] = sum(s["hits"] for s in stats)
        mapping = _module("repro.dataflow.mapping")
        info = getattr(mapping, "mapping_cache_info", None)
        if info is None:
            self.missing.add("repro.dataflow.mapping.mapping_cache_info")
        else:
            counts["dataflow.mapping_misses"] = info().misses
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": counts, "missing": sorted(self.missing)}


def _module(name):
    """The named module, or None when a later version removed it."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


# -- work counters read off wrapped calls ---------------------------------
def _after_schedule(counts, schedule, args):
    counts["scheduler.layers_placed"] += len(schedule.entries)


def _after_explore(counts, space, args):
    counts["dse.points"] += len(space.points)


def _after_backend_run(counts, results, args):
    counts["exec.tasks"] += len(args[1])


def _after_engine(counts, outcome, args):
    counts["online.frames"] += len(outcome.frames)
    counts["online.redispatched"] += outcome.redispatched_frames
    counts["online.stolen"] += outcome.stolen_frames
    counts["online.lost"] += len(outcome.lost_frame_ids)


def _after_report(counts, report, args):
    # build_report(kind, name, config, metrics, details, timing); the
    # write_report wrapper shares the layer but returns None.
    if report is None or len(args) < 6:
        return
    details, timing = args[4], args[5]
    counts["exec.retried_attempts"] += int(timing.get("retried_attempts", 0))
    counts["exec.failed_tasks"] += len(details.get("failures", ()))


_AFTER = {
    "scheduler.schedule": _after_schedule,
    "dse.explore": _after_explore,
    "exec.backend_run": _after_backend_run,
    "online.engine": _after_engine,
    "experiment.report": _after_report,
}
