"""Command line: INI scenarios in, deterministic CSV and reports out.

Each scenario command (``steady``, ``evolve``, ``spectra``, ``sweep``,
``check``) maps the parsed config to its summary lines and output text and
returns them; one runner loads ``--config``, checks the run block the
command needs, and writes both.  Exit codes: 0 success, 2 invalid config or
arguments or unwritable output, 3 unstable system, 4 numeric failure.  The
output goes to ``--out`` when given (human summary to stdout), otherwise to
stdout (summary to stderr); ``--quiet`` drops the summary either way.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .config import _RUN_BLOCKS, RwaConfig, load_config
from .dynamics import (
    _RATE_FIELDS,
    assess_rwa,
    assess_stability,
    evolve_moments,
    steady_state_lyapunov,
    vacuum_thermal_state,
)
from .errors import (
    ConfigError,
    DegenerateConditioningError,
    NumericalError,
    ParameterError,
    PhysicalityError,
    UndefinedTransformError,
    UnstableSystemError,
)
from .figures import _lookup, build_figure
from .spectra import (
    default_omega_grid,
    resonance_frequencies,
    spectral_oneway_threshold,
    spectrum,
    thermal_window,
)
from .squeezed import transformed_drift
from .steering import _HOLDS_BELOW, regime_predicates, steering_result
from .sweep import grid_sweep, minimize_steering

__all__ = ["main"]


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt(value) -> str:
    """Shortest round-trip text for one CSV cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return repr(float(value))


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 with LF line ends on every platform."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _csv(summary: list[str], header, rows: list):
    """A command's result: its ``summary`` lines, the CSV text and its size note."""
    return summary, _csv_text(header, rows), f"{len(rows)} rows"


# ---------------------------------------------------------------------------
# scenario commands: each maps a parsed ScenarioConfig to (summary, text, size)


def _steady(cfg):
    moments = steady_state_lyapunov(cfg.params)
    report = assess_stability(cfg.params)
    result = steering_result(moments)
    c = moments.c
    summary = [
        f"n1 = {moments.n1!r}",
        f"n2 = {moments.n2!r}",
        f"nm = {moments.nm!r}",
        f"c = {c.real!r} {c.imag:+}j",
        f"s12 = {result.s12!r}",
        f"s21 = {result.s21!r}",
        f"e_n = {result.e_n!r}",
        f"classification = {result.classification}",
        f"stability: analytic={'pass' if report.analytic_pass else 'fail'} "
        f"spectral={'pass' if report.spectral_pass else 'fail'} "
        f"max_re_eig={report.max_real_eigenvalue!r}",
    ]
    columns = [
        *((name, getattr(cfg.params, name)) for name in _RATE_FIELDS),
        ("n1", moments.n1),
        ("n2", moments.n2),
        ("nm", moments.nm),
        ("re_c", c.real),
        ("im_c", c.imag),
        ("s12", result.s12),
        ("s21", result.s21),
        ("e_n", result.e_n),
        ("class", result.classification),
    ]
    header, row = zip(*columns)
    return _csv(summary, header, [row])


def _evolve(cfg):
    n = cfg.run.n_points
    times = np.arange(1, n + 1) * (cfg.run.t_max / n)
    initial = vacuum_thermal_state(cfg.params.n_th)
    states = evolve_moments(cfg.params, initial, times)
    header = ["t", "s12", "s21", "e_n", "n1", "n2", "nm"]
    rows = []
    for t, state in zip(np.concatenate(([0.0], times)), [initial, *states]):
        result = steering_result(state)
        rows.append(
            (
                float(t),
                result.s12,
                result.s21,
                result.e_n,
                state.n1,
                state.n2,
                state.nm,
            )
        )
    summary = [
        f"evolved to t = {float(times[-1])!r} in {len(times)} reported steps",
        f"final s12 = {rows[-1][1]!r}, s21 = {rows[-1][2]!r}",
    ]
    return _csv(summary, header, rows)


def _spectra(cfg):
    block = cfg.run
    if block.omega_min is None:
        grid = default_omega_grid(cfg.params, block.n_points)
    else:
        grid = np.linspace(block.omega_min, block.omega_max, block.n_points)
    table = spectrum(cfg.params, grid)
    # after the spectrum, so a singular grid still reports as a numeric failure
    report = assess_stability(cfg.params)
    if not report.analytic_pass:
        raise UnstableSystemError(report)
    header = [f.name for f in fields(table)]
    rows = list(zip(*(getattr(table, name) for name in header)))
    summary = [
        f"omega grid: {float(grid[0])!r} .. {float(grid[-1])!r}, {grid.size} points",
        f"min s12 = {float(table.s12.min())!r} "
        f"at omega = {float(grid[int(table.s12.argmin())])!r}",
        f"min s21 = {float(table.s21.min())!r} "
        f"at omega = {float(grid[int(table.s21.argmin())])!r}",
    ]
    return _csv(summary, header, rows)


def _sweep(cfg):
    spec, swept = cfg.run.spec, cfg.run.swept  # a swept axis means minimize mode
    names = [axis.name for axis in spec.axes]
    if swept is None:
        rows_out = grid_sweep(spec)
        header = [*names, "stable", "s12", "s21", "e_n"]
        rows = [
            (*(row.values[name] for name in names), row.stable, row.s12, row.s21, row.e_n)
            for row in rows_out
        ]
        summary = [f"grid sweep over {', '.join(names)}: {len(rows)} points"]
    else:
        points = minimize_steering(spec, swept)
        header = [
            swept.name,
            *(f"{name}_opt" for name in names),
            spec.objective,
            "feasible",
        ]
        rows = [
            (
                point.swept_value,
                *(point.best[name] if point.feasible else math.nan for name in names),
                point.value,
                point.feasible,
            )
            for point in points
        ]
        summary = [
            f"minimized {spec.objective} over {', '.join(names)} at "
            f"{len(rows)} values of {swept.name}"
        ]
    return _csv(summary, header, rows)


def _verdict(preds, name: str) -> str:
    """Predicate ``name``'s verdict with its operands, or ``n/a`` and the reason."""
    flag = getattr(preds, name)
    if flag is None:
        return f"n/a ({preds.notes[name]})"
    lhs, rhs = preds.numbers[name]  # every evaluated predicate records its operands
    holds, fails = ("<", ">=") if name in _HOLDS_BELOW else (">", "<=")
    return f"{'pass' if flag else 'fail'} (lhs={lhs!r} {holds if flag else fails} rhs={rhs!r})"


def _section(name: str, lines) -> list[str]:
    """The ``lines()`` of one closed-form section, or its one ``name = n/a (reason)``
    line where the closed form is undefined."""
    try:
        return list(lines())
    except UndefinedTransformError as exc:
        return [f"{name} = n/a ({exc})"]


def _check(cfg):
    params = cfg.params
    report = assess_stability(params)
    lines = [
        f"stability.analytic = {'pass' if report.analytic_pass else 'fail'}",
        f"stability.spectral = {'pass' if report.spectral_pass else 'fail'}",
        f"stability.max_real_eigenvalue = {report.max_real_eigenvalue!r}",
    ]

    preds = regime_predicates(params)
    for field in fields(preds)[:5]:  # the five predicates, in declaration order
        lines.append(f"predicate.{field.name} = {_verdict(preds, field.name)}")
    lines.append(
        "omega = " + (f"{preds.omega!r}" if preds.omega is not None else "n/a (needs g2 > g1)")
    )

    def window():
        bounds = thermal_window(params)
        yield "thermal_window = " + (
            f"n_th in ({bounds[0]!r}, {bounds[1]!r})" if bounds else "empty"
        )

    def threshold():
        yield f"spectral_oneway_threshold.gamma_m_star = {spectral_oneway_threshold(params)!r}"

    def resonances():
        yield "resonances = " + " ".join(repr(float(w)) for w in resonance_frequencies(params))

    def frame():
        drift = transformed_drift(params)
        for name in ("omega", "c1_b_coupling", "c2_coupling_max"):
            yield f"squeezed_frame.{name} = {getattr(drift, name)!r}"

    lines += _section("thermal_window", window)
    lines += _section("spectral_oneway_threshold", threshold)
    lines += _section("resonances", resonances)
    lines += _section("squeezed_frame", frame)

    block = cfg.run if cfg.run_block == "rwa" else RwaConfig()
    if block.omega_m is not None:
        params = params.with_(omega_m=block.omega_m)
    rwa = assess_rwa(params, block.margin_factor)
    if not rwa.assessable:
        lines.append("rwa = not assessable (omega_m not set)")
    else:
        lines.append(f"rwa.overall = {'pass' if rwa.overall else 'fail'}")
        lines.append(f"rwa.ratio = {rwa.ratio!r}")
        for name, (value, ok) in rwa.checks.items():
            lines.append(
                f"rwa.{name} = {'pass' if ok else 'fail'} "
                f"(rate={value!r}, margin_factor={rwa.margin_factor!r})"
            )

    return [], "\n".join(lines) + "\n", f"{len(lines)} lines"


def _run(args) -> int:
    """Load ``--config``, run the command on it, and route its summary and output."""
    cfg = load_config(args.config)
    if args.command in _RUN_BLOCKS and cfg.run_block != args.command:
        article = "an" if args.command[0] in "aeiou" else "a"  # each block is named as its command
        raise ConfigError(f"the {args.command} command needs {article} [{args.command}] block")
    summary, text, size = args.scenario(cfg)
    if not args.quiet:
        stream = sys.stdout if args.out is not None else sys.stderr
        for line in summary:
            print(line, file=stream)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        if not args.quiet:
            print(f"wrote {args.out} ({size})")
    return 0


def _cmd_reproduce(args) -> int:
    # an unknown id or an unwritable --out fails before the figure is computed
    try:
        _lookup(args.figure_id)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    bundle = build_figure(args.figure_id)
    texts = [(name, _csv_text(header, rows)) for name, header, rows in bundle.files]
    texts.append((f"fig{bundle.figure_id}_manifest.txt", "\n".join(bundle.manifest) + "\n"))
    for name, text in texts:
        path = os.path.join(args.out, name)
        _write_text(path, text)
        if not args.quiet:
            print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="steady states, steering criteria and spectra of a "
        "two-cavity/one-mechanical-mode transducer",
    )
    parser.add_argument("--version", action="version", version=f"steerkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, scenario=None):
        """Register ``name``: a ``scenario`` command run on ``--config`` (needing the
        run block of its name, if there is one), or without one the ``reproduce`` command."""
        cmd = sub.add_parser(name, help=help_text)
        if scenario is None:
            cmd.add_argument("figure_id", help="reference figure id, e.g. 2a")
        else:
            cmd.add_argument("--config", required=True, help="scenario file (INI)")
        cmd.add_argument(
            "--out",
            required=scenario is None,
            help="output directory for the CSV and manifest (required)" if scenario is None
            else "output file; stdout when omitted",
        )
        cmd.add_argument("--quiet", action="store_true", help="suppress the summary")
        cmd.set_defaults(func=_cmd_reproduce if scenario is None else _run, scenario=scenario)

    add("steady", "steady moments, steering products, entanglement", _steady)
    add("evolve", "time evolution of the second moments", _evolve)
    add("spectra", "output-field spectra and spectral steering", _spectra)
    add("sweep", "grid sweeps or steering minimization", _sweep)
    add("check", "closed-form regime and sanity checks", _check)
    add("reproduce", "rebuild a reference figure as CSV + manifest")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnstableSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, PhysicalityError, DegenerateConditioningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:  # float overflow or division at extreme rates
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
