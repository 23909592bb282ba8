"""Spans around calls into steerkit's public functions, recorded from outside.

steerkit's modules bind each other's functions by name (``from .dynamics
import steady_state_lyapunov``), so wrapping ``steerkit.dynamics`` alone
would miss every call made from ``sweep``, ``figures`` or ``cli``.  The
tracer therefore replaces the function object wherever a steerkit module
(or the package namespace) holds it, and restores every site afterwards.

Each span stores its name, start, end, parent span and whether it raised,
in flat arrays; self time is a span's duration minus its direct children's.
"""
from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter, defaultdict

#: traced functions per module; ``sweep._evaluate`` is the one private entry,
#: traced only to count evaluations and how many gave a finite objective
TARGETS = {
    "dynamics": (
        "build_generators",
        "assess_stability",
        "steady_state_lyapunov",
        "evolve_moments",
        "to_correlation_matrix",
    ),
    "steering": (
        "steering_products_reduced",
        "steering_result",
        "logarithmic_negativity",
        "regime_predicates",
    ),
    "spectra": ("spectrum",),
    "squeezed": ("transformed_drift",),
    "sweep": ("grid_sweep", "minimize_steering", "_evaluate"),
    "figures": ("build_figure",),
    "cli": ("main",),
}


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.labels: dict[int, str] = {}  # span -> figure id, for build_figure
        self.work: Counter = Counter()
        self._stack = [-1]
        self._sites: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "steerkit" or n.startswith("steerkit.")]
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"steerkit.{module_name}"]
            for function in functions:
                original = getattr(module, function)
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for site in modules:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            self._sites.append((site, attr, original))
                            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._sites):
            setattr(site, attr, original)
        self._sites.clear()

    def _wrap(self, name: str, fn):
        kind = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        kinds, parents, starts, ends, raised = self.kind, self.parent, self.start, self.end, self.raised
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            span = len(starts)
            kinds.append(kind)
            parents.append(stack[-1])
            raised.append(0)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[span] = 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
            if note is not None:
                note(self, span, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- aggregation -------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """calls, s, self_s and errors per traced function, plus work counts."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        out: dict[str, float] = {}
        for name in self.names:
            for field in ("calls", "s", "self_s", "errors"):
                out[f"{name}.{field}"] = 0.0
        for i in range(n):
            name = self.names[self.kind[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += duration[i]
            out[f"{name}.self_s"] += duration[i] - child[i]
            out[f"{name}.errors"] += self.raised[i]
        return out

    def per_figure(self) -> tuple[dict[str, float], dict[str, Counter]]:
        """Seconds per build_figure id, and call and error counts inside each figure."""
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, Counter] = defaultdict(Counter)
        figure_of: list[str | None] = []
        for i in range(len(self.start)):
            label = self.labels.get(i)
            if label is not None:
                seconds[label] += self.end[i] - self.start[i]
            elif self.parent[i] >= 0:
                label = figure_of[self.parent[i]]
            figure_of.append(label)
            if label is not None:
                counts[label][self.names[self.kind[i]]] += 1
                counts[label][self.names[self.kind[i]] + ".errors"] += self.raised[i]
        return dict(seconds), dict(counts)


def _note_figure(tracer: Tracer, span: int, args, result) -> None:
    tracer.labels[span] = str(args[0])


def _note_spectrum(tracer: Tracer, span: int, args, result) -> None:
    tracer.work["spectra.spectrum.points"] += len(result)


def _note_evolve(tracer: Tracer, span: int, args, result) -> None:
    tracer.work["dynamics.evolve_moments.report_times"] += len(result)


def _note_minimize(tracer: Tracer, span: int, args, result) -> None:
    cells = math.prod(axis.steps for axis in args[0].axes)
    swept = args[1] if len(args) > 1 else None
    tracer.work["sweep.coarse_cells"] += cells * (swept.steps if swept is not None else 1)


def _note_evaluate(tracer: Tracer, span: int, args, result) -> None:
    tracer.work["sweep.evaluations"] += 1
    tracer.work["sweep.useful"] += not math.isnan(result[1])


_NOTES = {
    "figures.build_figure": _note_figure,
    "spectra.spectrum": _note_spectrum,
    "dynamics.evolve_moments": _note_evolve,
    "sweep.minimize_steering": _note_minimize,
    "sweep._evaluate": _note_evaluate,
}
