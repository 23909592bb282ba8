"""Command line: INI scenarios in, deterministic CSV and reports out.

Exit codes: 0 success, 2 invalid config or arguments or unwritable output,
3 unstable system, 4 numeric failure.  CSV goes to ``--out`` when given
(human summary to stdout), otherwise to stdout (summary to stderr);
``--quiet`` drops the summary either way.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .config import ScenarioConfig, load_config
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
from .steering import regime_predicates, steering_result
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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
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


def _emit(text: str, size: str, out_path: str | None, quiet: bool):
    """Write ``text`` to ``out_path`` (noting its ``size`` unless quiet) or to stdout."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_text(out_path, text)
        if not quiet:
            print(f"wrote {out_path} ({size})")


def _emit_csv(header, rows: list, out_path: str | None, quiet: bool):
    _emit(_csv_text(header, rows), f"{len(rows)} rows", out_path, quiet)


def _report(lines, out_path: str | None, quiet: bool):
    if quiet:
        return
    stream = sys.stdout if out_path is not None else sys.stderr
    for line in lines:
        print(line, file=stream)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_steady(args) -> int:
    cfg = load_config(args.config)
    moments = steady_state_lyapunov(cfg.params)
    report = assess_stability(cfg.params)
    result = steering_result(moments)
    c = moments.c
    _report(
        [
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
        ],
        args.out,
        args.quiet,
    )
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
    _emit_csv(header, [row], args.out, args.quiet)
    return 0


def _cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    if cfg.evolve is None:
        raise ConfigError("the evolve command needs an [evolve] block")
    n = cfg.evolve.n_points
    times = np.arange(1, n + 1) * (cfg.evolve.t_max / n)
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
    _report(
        [
            f"evolved to t = {float(times[-1])!r} in {len(times)} reported steps",
            f"final s12 = {rows[-1][1]!r}, s21 = {rows[-1][2]!r}",
        ],
        args.out,
        args.quiet,
    )
    _emit_csv(header, rows, args.out, args.quiet)
    return 0


def _cmd_spectra(args) -> int:
    cfg = load_config(args.config)
    if cfg.spectra is None:
        raise ConfigError("the spectra command needs a [spectra] block")
    block = cfg.spectra
    if block.omega_min is None:
        grid = default_omega_grid(cfg.params, block.n_points)
    else:
        grid = np.linspace(block.omega_min, block.omega_max, block.n_points)
    table = spectrum(cfg.params, grid)
    header = [f.name for f in fields(table)]
    rows = list(zip(*(getattr(table, name) for name in header)))
    _report(
        [
            f"omega grid: {float(grid[0])!r} .. {float(grid[-1])!r}, {grid.size} points",
            f"min s12 = {float(table.s12.min())!r} "
            f"at omega = {float(grid[int(table.s12.argmin())])!r}",
            f"min s21 = {float(table.s21.min())!r} "
            f"at omega = {float(grid[int(table.s21.argmin())])!r}",
        ],
        args.out,
        args.quiet,
    )
    _emit_csv(header, rows, args.out, args.quiet)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("the sweep command needs a [sweep] block")
    spec = cfg.sweep
    names = [axis.name for axis in spec.axes]
    if cfg.sweep_mode == "grid":
        rows_out = grid_sweep(spec)
        header = [*names, "stable", "s12", "s21", "e_n"]
        rows = [
            (*(row.values[name] for name in names), row.stable, row.s12, row.s21, row.e_n)
            for row in rows_out
        ]
        summary = [f"grid sweep over {', '.join(names)}: {len(rows)} points"]
    else:
        points = minimize_steering(spec, cfg.swept)
        header = [
            cfg.swept.name,
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
            f"{len(rows)} values of {cfg.swept.name}"
        ]
    _report(summary, args.out, args.quiet)
    _emit_csv(header, rows, args.out, args.quiet)
    return 0


def _verdict(flag: bool | None, note: str | None, numbers) -> str:
    if flag is None:
        return f"n/a ({note})"
    word = "pass" if flag else "fail"
    if numbers is not None:
        lhs, rhs = numbers
        op = ">" if flag else "<="
        return f"{word} (lhs={lhs!r} {op} rhs={rhs!r})"
    return word


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    params = cfg.params
    lines: list[str] = []

    report = assess_stability(params)
    lines.append(f"stability.analytic = {'pass' if report.analytic_pass else 'fail'}")
    lines.append(f"stability.spectral = {'pass' if report.spectral_pass else 'fail'}")
    lines.append(f"stability.max_real_eigenvalue = {report.max_real_eigenvalue!r}")

    preds = regime_predicates(params)
    for name in (
        "s12_oneway_weak",
        "s21_oneway_weak",
        "entangled_weak",
        "s21_cond_strong",
        "s12_cond_strong",
    ):
        lines.append(
            f"predicate.{name} = "
            + _verdict(
                getattr(preds, name), preds.notes.get(name), preds.numbers.get(name)
            )
        )
    lines.append(
        "omega = " + (f"{preds.omega!r}" if preds.omega is not None else "n/a (needs g2 > g1)")
    )

    try:
        window = thermal_window(params)
        lines.append(
            "thermal_window = "
            + (f"n_th in ({window[0]!r}, {window[1]!r})" if window else "empty")
        )
    except UndefinedTransformError as exc:
        lines.append(f"thermal_window = n/a ({exc})")
    try:
        lines.append(
            f"spectral_oneway_threshold.gamma_m_star = {spectral_oneway_threshold(params)!r}"
        )
    except UndefinedTransformError as exc:
        lines.append(f"spectral_oneway_threshold = n/a ({exc})")
    try:
        lines.append(
            "resonances = "
            + " ".join(repr(float(w)) for w in resonance_frequencies(params))
        )
    except UndefinedTransformError as exc:
        lines.append(f"resonances = n/a ({exc})")

    try:
        frame = transformed_drift(params)
        lines.append(f"squeezed_frame.omega = {frame.omega!r}")
        lines.append(f"squeezed_frame.c1_b_coupling = {frame.c1_b_coupling!r}")
        lines.append(f"squeezed_frame.c2_coupling_max = {frame.c2_coupling_max!r}")
    except UndefinedTransformError as exc:
        lines.append(f"squeezed_frame = n/a ({exc})")

    rwa_params = params
    margin = 10.0
    if cfg.rwa is not None:
        margin = cfg.rwa.margin_factor
        if cfg.rwa.omega_m is not None:
            rwa_params = params.with_(omega_m=cfg.rwa.omega_m)
    rwa = assess_rwa(rwa_params, margin)
    if not rwa.assessable:
        lines.append("rwa = not assessable (omega_m not set)")
    else:
        lines.append(f"rwa.overall = {'pass' if rwa.overall else 'fail'}")
        lines.append(f"rwa.ratio = {rwa.ratio!r}")
        for name, (value, ok) in rwa.checks.items():
            lines.append(
                f"rwa.{name} = {'pass' if ok else 'fail'} "
                f"(rate={value!r}, margin_factor={margin!r})"
            )

    _emit("\n".join(lines) + "\n", f"{len(lines)} lines", args.out, args.quiet)
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

    def add(name, func, help_text, *, config=True, figure=False, out_required=False):
        cmd = sub.add_parser(name, help=help_text)
        if figure:
            cmd.add_argument("figure_id", help="reference figure id, e.g. 2a")
        if config:
            cmd.add_argument("--config", required=True, help="scenario file (INI)")
        cmd.add_argument(
            "--out",
            required=out_required,
            help="output path (directory for reproduce); stdout when omitted",
        )
        cmd.add_argument("--quiet", action="store_true", help="suppress the summary")
        cmd.set_defaults(func=func)
        return cmd

    add("steady", _cmd_steady, "steady moments, steering products, entanglement")
    add("evolve", _cmd_evolve, "time evolution of the second moments")
    add("spectra", _cmd_spectra, "output-field spectra and spectral steering")
    add("sweep", _cmd_sweep, "grid sweeps or steering minimization")
    add("check", _cmd_check, "closed-form regime and sanity checks")
    add(
        "reproduce",
        _cmd_reproduce,
        "rebuild a reference figure as CSV + manifest",
        config=False,
        figure=True,
        out_required=True,
    )
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


if __name__ == "__main__":
    sys.exit(main())
