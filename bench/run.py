"""steerkit benchmark: one workload per run, closed loop, one client.

Usage, from the root of a steerkit checkout::

    python3 bench/run.py --workload frontier --seed 1 --seconds 15 --trace 0

The seed makes the workload's input set (one pass).  The benchmark runs
passes back to back until ``--seconds`` of timed work have passed (at least
one), checks every output against an independent oracle outside the timed
region, and prints one line per metric followed, as the last line, by a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Item
times are divided by the host's slow-down, sampled with a fixed reference
kernel, and set-up times by a reference interpreter's (see hostspeed.py).

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
each pass is followed by one with every public steerkit function wrapped in
a span, and the metrics are the per-layer ones (see README.md here).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import IMPORT_CODE, IMPORT_SECONDS, Sampler, kernel_seconds  # noqa: E402

#: fresh interpreters that run ``import steerkit`` plus a first solve, each
#: between two that run the reference import, started per run to time set-up
SETUP_REPEATS = 5
#: wall seconds between two samples of the host-speed kernel
SAMPLE_SECONDS = 0.05
SETUP_CODE = (
    "import time\n"
    "before = time.perf_counter()\n"
    "import steerkit\n"
    "steerkit.steady_state_lyapunov(steerkit.SystemParams(1.0, 1.0, 6.0, 10.0, 0.5))\n"
    "print(repr(time.perf_counter() - before))\n"
)
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: public functions whose calls, s, self_s and errors are reported
LAYERS = (
    "dynamics.build_generators",
    "dynamics.assess_stability",
    "dynamics.steady_state_lyapunov",
    "dynamics.evolve_moments",
    "dynamics.to_correlation_matrix",
    "steering.steering_products_reduced",
    "steering.steering_result",
    "steering.logarithmic_negativity",
    "steering.regime_predicates",
    "spectra.spectrum",
    "squeezed.transformed_drift",
    "sweep.grid_sweep",
    "sweep.minimize_steering",
    "figures.build_figure",
    "cli.main",
)
#: figures whose call counts repeat exactly and are reported per figure
COUNTED_FIGURES = ("3b", "6")
COUNTED_CALLS = (
    "dynamics.steady_state_lyapunov",
    "dynamics.assess_stability",
    "dynamics.build_generators",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, steerkit_threads: str | None) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "STEERKIT_THREADS": steerkit_threads,
    }


def measure_setup(root: Path) -> tuple[float, float]:
    """A fresh interpreter's import plus first steady solve, host-normalised.

    Set-up children that run ``SETUP_CODE`` alternate with reference
    children that run ``hostspeed.IMPORT_CODE``, starting and ending with a
    reference.  Each set-up time is divided by the mean of the two reference
    times around it, which cancels the host's slow-down: it moves raw
    set-up times by up to 40% between minutes.  Returns the median ratio
    times ``IMPORT_SECONDS``, and the median raw time.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(code: str) -> float:
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    references, raw = [child(IMPORT_CODE)], []
    for _ in range(SETUP_REPEATS):
        raw.append(child(SETUP_CODE))
        references.append(child(IMPORT_CODE))
    ratios = [t / (0.5 * (before + after)) for t, before, after in zip(raw, references, references[1:])]
    return IMPORT_SECONDS * statistics.median(ratios), statistics.median(raw)


def warm_up(sk) -> None:
    """Load lazily imported code paths before timing."""
    kernel_seconds()
    params = sk.SystemParams(1.0, 1.0, 6.0, 10.0, 0.5)
    sk.steering_result(sk.steady_state_lyapunov(params))
    sk.evolve_moments(params, sk.vacuum_thermal_state(), [0.1, 0.2])
    sk.spectrum(params, sk.default_omega_grid(params, 11))
    axis = sk.AxisSpec("g1", 1.0, 2.0, 3)
    sk.minimize_steering(sk.SweepSpec(base=params, axes=(axis,)))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten items beyond it.

    A pass of fewer than 20 items has no such percentile above the median,
    so its maximum is reported instead (percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class PerItem:
    """Each item's wall and CPU seconds, one sample per pass.

    Both are divided by the host slow-down around the item.
    """

    def __init__(self, count: int):
        self.wall = [[] for _ in range(count)]
        self.cpu = [[] for _ in range(count)]
        self.slowdowns: list[float] = []
        self.passes = 0
        self.seconds = 0.0

    def add(self, samples, factors) -> None:
        """Record one pass: (wall, cpu) per item and its slow-down factor."""
        for index, ((wall, cpu), factor) in enumerate(zip(samples, factors)):
            self.wall[index].append(wall / factor)
            self.cpu[index].append(cpu / factor)
            self.seconds += wall
        self.slowdowns.extend(factors)
        self.passes += 1

    def medians(self, which: str) -> list[float]:
        return [statistics.median(samples) for samples in getattr(self, which)]


def run_pass(sk, workload, items, record: PerItem, traced: bool):
    """Run every item once and record its wall and CPU seconds.

    The host-speed kernel samples every ``SAMPLE_SECONDS`` during an
    untraced pass; each item's time, less the sampling inside it, is divided
    by the host slow-down around it.  A traced pass samples only between
    items, at most every ``SAMPLE_SECONDS``, so that no span contains kernel
    time.
    """
    outputs, spans = [], []
    with Sampler(None if traced else SAMPLE_SECONDS) as sampler:
        for item in items:
            if traced and time.perf_counter() - sampler.times[-1] >= SAMPLE_SECONDS:
                sampler.sample()
            spent = sampler.spent
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = workload.run(sk, item)
            except Exception as exc:  # an unexpected error fails the item, not the run
                out = exc
            t1, c1 = time.perf_counter(), time.process_time()
            sampled = sampler.spent - spent
            spans.append((t0, t1, t1 - t0 - sampled, c1 - c0 - sampled))
            outputs.append(out)
    factors = [sampler.slowdown(t0, t1) for t0, t1, _, _ in spans]
    record.add([(wall, cpu) for _, _, wall, cpu in spans], factors)
    return outputs


def check_pass(workload, items, expected, outputs, failures: dict) -> tuple[int, float]:
    """Check every output of a pass; count failures by reason; return (failed, worst error).

    An output that makes the check itself raise (say, NaN moments reaching
    the oracle's eigenvalue solver) fails its item.
    """
    from workloads import Verdict

    failed, worst = 0, 0.0
    for item, ref, out in zip(items, expected, outputs):
        if isinstance(out, Exception):
            verdict = Verdict(True, math.inf, f"unexpected {type(out).__name__}: {out}")
        else:
            try:
                verdict = workload.check(item, out, ref)
            except Exception as exc:
                verdict = Verdict(True, math.inf, f"output breaks the check: {type(exc).__name__}")
        failed += verdict.failed
        if verdict.failed:
            failures[verdict.why] = failures.get(verdict.why, 0) + 1
        if math.isfinite(verdict.err):
            worst = max(worst, verdict.err)
    return failed, worst


def per_layer(tracer, passes: int, slowdown: float, workdir: Path) -> dict:
    """Per-layer metrics from ``passes`` traced passes, per pass.

    Span seconds are divided by the median host slow-down of those passes.
    """
    from workloads import FIGURES, output_bytes

    layers = tracer.layers()
    metrics = {}
    for name in LAYERS:
        for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"), ("errors", "count")):
            scale = passes * (slowdown if unit == "s" else 1.0)
            metrics[f"{name}.{field}"] = (layers[f"{name}.{field}"] / scale, unit)
    seconds, counts = tracer.per_figure()
    for figure_id in FIGURES:
        metrics[f"figures.build_figure.{figure_id}.s"] = (seconds.get(figure_id, 0.0) / passes / slowdown, "s")
    for figure_id in COUNTED_FIGURES:
        for name in COUNTED_CALLS:
            key = f"reproduce.fig{figure_id}.{name.split('.')[1]}.calls"
            metrics[key] = (counts.get(figure_id, {}).get(name, 0) / passes, "count")
        key = f"reproduce.fig{figure_id}.steady_state_lyapunov.errors"
        metrics[key] = (counts.get(figure_id, {}).get("dynamics.steady_state_lyapunov.errors", 0) / passes, "count")
    work = tracer.work
    evaluations = work["sweep.evaluations"]
    problems = layers["sweep.minimize_steering.calls"]
    metrics.update({
        "dynamics.evolve_moments.report_times": (work["dynamics.evolve_moments.report_times"] / passes, "count"),
        "spectra.spectrum.points": (work["spectra.spectrum.points"] / passes, "count"),
        "cli.bytes_written": (sum(output_bytes(d) for d in workdir.iterdir() if d.is_dir()), "bytes"),
        "sweep.coarse_cells": (work["sweep.coarse_cells"] / passes, "count"),
        "sweep.evals_per_problem": (evaluations / problems if problems else 0.0, "ratio"),
        "sweep.useful_ratio": (work["sweep.useful"] / evaluations if evaluations else 0.0, "ratio"),
        "dynamics.stability_calls_per_eval": (
            layers["dynamics.assess_stability.calls"] / evaluations if evaluations else 0.0, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "steerkit" / "__init__.py").is_file():
        print("error: run from the root of a steerkit checkout (src/steerkit not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    steerkit_threads = os.environ.pop("STEERKIT_THREADS", None)  # measure the default path

    import steerkit as sk
    import steerkit.cli  # noqa: F401  (reproduce calls sk.cli.main)

    if Path(sk.__file__).resolve().parent != (root / "src" / "steerkit").resolve():
        print(f"error: imported steerkit from {sk.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(root, steerkit_threads)
    setup, setup_raw = measure_setup(root) if args.trace == 0 else (None, None)
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=root))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        items = workload.items
        expected = [workload.expect(item) for item in items]
        warm_up(sk)

        failures: dict[str, int] = {}
        attempted = failed = 0
        worst = 0.0
        plain = PerItem(len(items))
        traced = PerItem(len(items))
        tracer = Tracer() if args.trace else None

        def tally(outputs):
            nonlocal attempted, failed, worst
            bad, err = check_pass(workload, items, expected, outputs, failures)
            attempted += len(items)
            failed += bad
            worst = max(worst, err)

        # with --trace 1 every untraced pass is followed by a traced one, so
        # the overhead compares passes run under the same host load
        while plain.passes == 0 or plain.seconds + traced.seconds < args.seconds:
            outputs = run_pass(sk, workload, items, plain, traced=False)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tally(outputs)
            del outputs
            if tracer is not None:
                tracer.install()
                try:
                    outputs = run_pass(sk, workload, items, traced, traced=True)
                finally:
                    tracer.uninstall()
                tally(outputs)
                del outputs

        latency = plain.medians("wall")
        percentile, tail_s = tail(latency)
        if tracer is not None:
            metrics = per_layer(tracer, traced.passes, statistics.median(traced.slowdowns), workdir)
            metrics.update({
                "check.max_rel_err": (worst, "ratio"),
                "check.fail_frac": (failed / attempted, "ratio"),
                "trace.overhead_s": (sum(traced.medians("wall")) - sum(latency), "s"),
            })
        else:
            metrics = {
                "setup_s": (setup, "s"),
                "wall_s": (sum(latency), "s"),
                "item_p50_ms": (1e3 * statistics.median(latency), "ms"),
                "item_tail_ms": (1e3 * tail_s, "ms"),
                "peak_rss_mb": (rss_mb, "MB"),
                "cpu_s": (sum(plain.medians("cpu")), "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload: {args.workload}  seed: {args.seed}  passes: {plain.passes}  "
          f"items per pass: {len(items)}  trace: {args.trace}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if not args.trace:
        print(f"item_tail_ms is the p{percentile:.4g} of {len(items)} items, each the median of {plain.passes} passes")
        print(f"setup_s before host normalisation: median {setup_raw!r} s of {SETUP_REPEATS} children")
    print(f"host slow-down: median {statistics.median(plain.slowdowns):.3f}, "
          f"range {min(plain.slowdowns):.3f}..{max(plain.slowdowns):.3f} over {len(plain.slowdowns)} item runs")
    print(f"fail_frac = {failed / attempted!r} ({failed} of {attempted} items)")
    for why, count in sorted(failures.items()):
        print(f"failed: {count} x {why}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
