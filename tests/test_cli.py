"""End-to-end checks of the ``steerkit`` command-line interface.

Every test but one drives ``steerkit.cli.main`` in-process so exit codes and
the exact bytes on stdout/stderr are observable without spawning subprocesses;
that one runs ``python -m steerkit``.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from steerkit import (
    EmptySweepWarning,
    StepConvergenceError,
    SystemParams,
    assess_stability,
    evolve_moments,
    steady_state_lyapunov,
    steering_result,
    vacuum_thermal_state,
)
import steerkit.cli
import steerkit.dynamics
from steerkit.cli import main

FIG2A = """\
[config]
version = 1

[params]
kappa1 = 1.0
kappa2 = 0.4
g1 = 10.0
g2 = 20.0
gamma_m = 0.01
"""

STEADY_HEADER = (
    "kappa1,kappa2,g1,g2,gamma_m,n_th,n1,n2,nm,re_c,im_c,s12,s21,e_n,class"
)


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# steady


def test_steady_csv_round_trips_exactly(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A)
    assert main(["steady", "--config", cfg, "--quiet"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    header, rows = csv_rows(out.out)
    assert ",".join(header) == STEADY_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))

    params = SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0)
    moments = steady_state_lyapunov(params)
    result = steering_result(moments)
    # repr() round-trips doubles exactly, so the CSV cells must recover the
    # API values bit-for-bit (well beyond the 12 significant digits needed).
    assert float(row["n1"]) == moments.n1
    assert float(row["n2"]) == moments.n2
    assert float(row["nm"]) == moments.nm
    assert float(row["re_c"]) == moments.c.real
    assert float(row["im_c"]) == moments.c.imag
    assert float(row["s12"]) == result.s12
    assert float(row["s21"]) == result.s21
    assert float(row["e_n"]) == result.e_n
    assert row["class"] == result.classification == "one-way-2-steers-1"
    assert float(row["kappa2"]) == 0.4 and float(row["g2"]) == 20.0


def test_steady_report_goes_to_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A)
    assert main(["steady", "--config", cfg]) == 0
    out = capsys.readouterr()
    assert out.out.startswith(STEADY_HEADER)
    assert "classification = one-way-2-steers-1" in out.err
    assert "stability: analytic=pass spectral=pass" in out.err


def test_steady_computes_the_drift_spectrum_once(tmp_path, capsys, monkeypatch):
    # the solve decides by the closed-form margins; only the printed
    # stability line takes the spectrum, from assess_stability
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    cfg = write_config(tmp_path, FIG2A)
    assert main(["steady", "--config", cfg]) == 0
    assert "stability: analytic=pass spectral=pass" in capsys.readouterr().err
    assert calls == [(6, 6)]


def test_steady_out_file_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["steady", "--config", cfg, "--out", str(first)]) == 0
    out = capsys.readouterr()
    assert f"wrote {first}" in out.out
    assert main(["steady", "--config", cfg, "--out", str(second), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    assert b"\r" not in blob and blob.endswith(b"\n")


def test_steady_decoupled_cavity_reports_no_steering(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A.replace("g1 = 10.0", "g1 = 0.0"))
    assert main(["steady", "--config", cfg, "--quiet"]) == 0
    header, rows = csv_rows(capsys.readouterr().out)
    row = dict(zip(header, rows[0]))
    assert row["class"] == "no-steering"
    assert float(row["e_n"]) == 0.0


# ---------------------------------------------------------------------------
# evolve


def test_evolve_csv_structure_and_steady_limit(tmp_path, capsys):
    params = SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0)
    rate = abs(assess_stability(params).max_real_eigenvalue)
    t_max = 20.0 / rate
    cfg = write_config(
        tmp_path, FIG2A + f"\n[evolve]\nt_max = {t_max!r}\nn_points = 40\n"
    )
    assert main(["evolve", "--config", cfg, "--quiet"]) == 0
    header, rows = csv_rows(capsys.readouterr().out)
    assert header == ["t", "s12", "s21", "e_n", "n1", "n2", "nm"]
    assert len(rows) == 41  # the t = 0 initial state plus 40 reported times
    assert float(rows[0][0]) == 0.0
    # vacuum initial state: unit steering products, no entanglement
    assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 1.0
    assert float(rows[0][3]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(t_max, rel=1e-12)

    steady = steering_result(steady_state_lyapunov(params))
    assert float(rows[-1][1]) == pytest.approx(steady.s12, abs=1e-4)
    assert float(rows[-1][2]) == pytest.approx(steady.s21, abs=1e-4)


def test_evolve_that_cannot_converge_exits_4(tmp_path, capsys, monkeypatch):
    # no tolerance is met and one halving is allowed: the integrator gives up
    monkeypatch.setattr(steerkit.dynamics, "_MAX_HALVINGS", 1)
    monkeypatch.setattr(steerkit.dynamics, "_EVOLVE_TOL", 0.0)
    params = SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0)
    with pytest.raises(StepConvergenceError) as err:
        evolve_moments(params, vacuum_thermal_state(), [0.5, 1.0])
    assert err.value.halvings == 1
    assert math.isfinite(err.value.step) and math.isfinite(err.value.max_difference)
    cfg = write_config(tmp_path, FIG2A + "\n[evolve]\nt_max = 1.0\nn_points = 4\n")
    assert main(["evolve", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: moment integration did not converge after 1 step")


@pytest.mark.parametrize(
    "params, t_max, n_points",
    [(SystemParams(1.0, 0.4, 10.0, 20.0, 0.01, 0.0), 3.0, 60),
     (SystemParams(1.0, 2.4, 12.0, 20.0, 0.01, 0.7), 8.0, 250)],
)
def test_evolve_table_is_the_one_of_the_public_moment_states(tmp_path, capsys, params, t_max,
                                                             n_points):
    # the command reads the integrator's moment rows; its bytes are those of the table
    # of evolve_moments' states and steering_result
    text = "\n".join(f"{name} = {getattr(params, name)!r}" for name in steerkit.cli._RATE_FIELDS)
    cfg = write_config(
        tmp_path,
        f"[config]\nversion = 1\n\n[params]\n{text}\n\n"
        f"[evolve]\nt_max = {t_max!r}\nn_points = {n_points}\n",
    )
    assert main(["evolve", "--config", cfg, "--quiet"]) == 0
    times = np.arange(1, n_points + 1) * (t_max / n_points)
    initial = vacuum_thermal_state(params.n_th)
    rows = []
    for t, state in zip([0.0, *times.tolist()], [initial, *evolve_moments(params, initial, times)]):
        result = steering_result(state)
        rows.append((t, result.s12, result.s21, result.e_n, state.n1, state.n2, state.nm))
    header = ["t", "s12", "s21", "e_n", "n1", "n2", "nm"]
    assert capsys.readouterr().out == steerkit.cli._csv_text(header, rows)


@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_evolve_non_finite_t_max_exits_2(tmp_path, capsys, t_max):
    cfg = write_config(tmp_path, FIG2A + f"\n[evolve]\nt_max = {t_max}\n")
    assert main(["evolve", "--config", cfg, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: [evolve] t_max = '{t_max}' is not finite" in captured.err


# ---------------------------------------------------------------------------
# spectra


def test_spectra_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        FIG2A.replace("kappa2 = 0.4", "kappa2 = 1.0").replace("g1 = 10.0", "g1 = 6.0")
        + "\n[spectra]\nomega_min = -12\nomega_max = 12\nn_points = 25\n",
    )
    assert main(["spectra", "--config", cfg, "--quiet"]) == 0
    header, rows = csv_rows(capsys.readouterr().out)
    assert header == ["omega", "var_x1", "var_x2", "cross", "s12", "s21", "n1_out", "n2_out"]
    assert len(rows) == 25
    assert float(rows[0][0]) == -12.0 and float(rows[-1][0]) == 12.0
    assert float(rows[12][0]) == 0.0
    for row in rows:
        assert float(row[1]) > 0.0 and float(row[2]) > 0.0


def test_spectra_nan_omega_min_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, FIG2A + "\n[spectra]\nomega_min = nan\nomega_max = 12\n"
    )
    assert main(["spectra", "--config", cfg, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: [spectra] omega_min = 'nan' is not finite" in captured.err


def test_spectra_on_an_unstable_set_exits_3_before_any_output(tmp_path, capsys):
    # g1 > g2 at equal losses fails the closed-form condition m2 > 0
    cfg = write_config(
        tmp_path,
        FIG2A.replace("kappa2 = 0.4", "kappa2 = 1.0")
        .replace("g1 = 10.0", "g1 = 3.0")
        .replace("g2 = 20.0", "g2 = 2.0")
        + "\n[spectra]\n",
    )
    out_path = tmp_path / "spectra.csv"
    assert main(["spectra", "--config", cfg, "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out_path.exists()
    assert main(["steady", "--config", cfg]) == 3
    assert capsys.readouterr().err == captured.err
    assert "not strictly stable" in captured.err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        FIG2A
        + """
[sweep]
mode = grid
axes = gamma_m 0.01 0.02 2; n_th 0.0 1.0 2
""",
    )
    assert main(["sweep", "--config", cfg, "--quiet"]) == 0
    header, rows = csv_rows(capsys.readouterr().out)
    assert header == ["gamma_m", "n_th", "stable", "s12", "s21", "e_n"]
    assert len(rows) == 4
    assert [row[1] for row in rows] == ["0.0", "1.0", "0.0", "1.0"]  # last axis fastest
    assert all(row[2] == "true" for row in rows)


def test_sweep_minimize_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        FIG2A.replace("kappa2 = 0.4", "kappa2 = 1.0")
        + """
[sweep]
mode = minimize
objective = s21
swept = gamma_m 5.0 10.0 2
axes = g1 0.5 8.0 9; g2 1.0 10.0 10
""",
    )
    assert main(["sweep", "--config", cfg, "--quiet"]) == 0
    header, rows = csv_rows(capsys.readouterr().out)
    assert header == ["gamma_m", "g1_opt", "g2_opt", "s21", "feasible"]
    assert len(rows) == 2
    for row in rows:
        assert row[4] == "true"
        assert float(row[3]) < 1.0


@pytest.mark.parametrize(
    "swept, ties",
    [("g1 2.0 3.0 2", ""), ("kappa2 1.0 3.0 3", "ties = kappa2=kappa1\n")],
)
def test_sweep_swept_field_overwritten_by_an_axis_or_tie_exits_2(tmp_path, capsys, swept, ties):
    cfg = write_config(
        tmp_path,
        FIG2A + f"\n[sweep]\nmode = minimize\nobjective = s21\naxes = g1 1 8 8\nswept = {swept}\n{ties}",
    )
    assert main(["sweep", "--config", cfg, "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: [sweep]: swept field" in captured.err


# ---------------------------------------------------------------------------
# run blocks


@pytest.mark.parametrize("other_block", ["", "\n[rwa]\nmargin_factor = 10\n"], ids=["none", "rwa"])
@pytest.mark.parametrize(
    "command, block",
    [("evolve", "an [evolve]"), ("spectra", "a [spectra]"), ("sweep", "a [sweep]")],
    ids=["evolve", "spectra", "sweep"],
)
def test_command_requires_its_run_block(tmp_path, capsys, command, block, other_block):
    cfg = write_config(tmp_path, FIG2A + other_block)
    for extra in ([], ["--quiet"], ["--out", str(tmp_path / "out.csv")]):
        assert main([command, "--config", cfg, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the {command} command needs {block} block\n"
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------------------
# check

CHECK_EQUAL_KAPPA_RWA = (
    FIG2A.replace("kappa2 = 0.4", "kappa2 = 1.0")
    .replace("g1 = 10.0", "g1 = 6.0")
    .replace("g2 = 20.0", "g2 = 10.0")
    + "\n[rwa]\nomega_m = 500.0\nmargin_factor = 10\n"
)
PREDICATE_KEYS = [
    f"predicate.{name}"
    for name in (
        "s12_oneway_weak",
        "s21_oneway_weak",
        "entangled_weak",
        "s21_cond_strong",
        "s12_cond_strong",
    )
]
STABILITY_KEYS = ["stability.analytic", "stability.spectral", "stability.max_real_eigenvalue"]
CLOSED_FORMS = ["thermal_window", "spectral_oneway_threshold", "resonances", "squeezed_frame"]


@pytest.mark.parametrize(
    "text, keys, undefined",
    [
        (
            FIG2A,
            [
                *STABILITY_KEYS,
                *PREDICATE_KEYS,
                "omega",
                "thermal_window",
                "spectral_oneway_threshold",
                "resonances",
                "squeezed_frame",
                "rwa",
            ],
            # kappa1 != kappa2: the equal-damping closed forms are undefined
            CLOSED_FORMS,
        ),
        (
            CHECK_EQUAL_KAPPA_RWA,
            [
                *STABILITY_KEYS,
                *PREDICATE_KEYS,
                "omega",
                "thermal_window",
                "spectral_oneway_threshold.gamma_m_star",
                "resonances",
                "squeezed_frame.omega",
                "squeezed_frame.c1_b_coupling",
                "squeezed_frame.c2_coupling_max",
                "rwa.overall",
                "rwa.ratio",
                "rwa.g1",
                "rwa.g2",
                "rwa.kappa1",
                "rwa.kappa2",
                "rwa.gamma_m*n_th",
            ],
            [],
        ),
    ],
    ids=["unequal-losses", "equal-losses-rwa"],
)
def test_check_lines_come_in_a_fixed_order(tmp_path, capsys, text, keys, undefined):
    cfg = write_config(tmp_path, text)
    assert main(["check", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    pairs = [line.split(" = ", 1) for line in captured.out.splitlines()]
    assert [key for key, _ in pairs] == keys
    assert [
        key for key, value in pairs if key in CLOSED_FORMS and value.startswith("n/a (")
    ] == undefined


def test_check_reports_key_value_lines(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A)
    assert main(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    assert lines["stability.analytic"] == "pass"
    assert lines["stability.spectral"] == "pass"
    assert lines["predicate.s12_oneway_weak"].startswith("pass (lhs=36.0 > rhs=")
    assert lines["predicate.entangled_weak"].startswith("pass (lhs=160.0 > rhs=100.0")
    assert lines["predicate.s21_cond_strong"].startswith("n/a (")
    assert lines["omega"] == repr(300.0 ** 0.5)
    assert lines["rwa"] == "not assessable (omega_m not set)"
    # kappa1 != kappa2: the equal-damping closed forms are undefined
    assert lines["thermal_window"].startswith("n/a (")
    assert lines["resonances"].startswith("n/a (")
    assert lines["squeezed_frame"].startswith("n/a (")


@pytest.mark.parametrize(
    "gamma_m, verdict",
    [
        ("5.2", "pass (lhs=5.2 < rhs=5.41657386773941"),
        ("6.0", "fail (lhs=6.0 >= rhs=5.41657386773941"),
    ],
)
def test_check_prints_the_relation_each_predicate_tests(tmp_path, capsys, gamma_m, verdict):
    # s12_cond_strong holds when gamma_m / kappa lies below its bound
    text = FIG2A.replace("kappa2 = 0.4", "kappa2 = 1.0").replace("g1 = 10.0", "g1 = 6.0")
    text = text.replace("g2 = 20.0", "g2 = 10.0").replace("gamma_m = 0.01", f"gamma_m = {gamma_m}")
    assert main(["check", "--config", write_config(tmp_path, text)]) == 0
    lines = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["predicate.s12_cond_strong"].startswith(verdict)
    assert lines["predicate.entangled_weak"].startswith("pass (lhs=100.0 > rhs=36.0")


def test_check_names_the_units_of_operands_its_rates_cannot_hold(tmp_path, capsys):
    # at rates of 1e-200 the cubes and quartics of the weak-damping tests underflow,
    # so their operands are printed in the power-of-two units of the verdict
    text = "[config]\nversion = 1\n\n[params]\n" + "".join(
        f"{key} = {value}e-200\n"
        for key, value in zip(("kappa1", "kappa2", "g1", "g2", "gamma_m"), (1, 2, 1, 3, 1))
    )
    assert main(["check", "--config", write_config(tmp_path, text)]) == 0
    lines = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["predicate.entangled_weak"] == (
        "pass (lhs=0.12613740548667346 > rhs=0.007007633638148525, "
        "operands in units of 2**-1986)"
    )
    assert lines["predicate.s12_oneway_weak"].endswith(", operands in units of 2**-2648)")
    assert lines["omega"] == "2.82842712474619e-200"


def test_check_reports_why_the_strong_damping_predicates_do_not_apply(tmp_path, capsys):
    text = (
        FIG2A.replace("kappa2 = 0.4", "kappa2 = 1.0")
        .replace("g1 = 10.0", "g1 = 1.0")
        .replace("g2 = 20.0", "g2 = 1.5")
    )
    assert main(["check", "--config", write_config(tmp_path, text)]) == 0
    lines = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["predicate.s21_cond_strong"] == "n/a (needs Omega > 2 kappa)"
    assert lines["predicate.s12_cond_strong"] == "n/a (needs Omega^2 > 8 kappa^2)"


def test_check_rejects_an_empty_sweep_axes_list(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A + "\n[sweep]\nmode = grid\naxes = ;\n")
    assert main(["check", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [sweep] axes is empty\n"


def test_check_equal_kappa_with_rwa_block(tmp_path, capsys):
    cfg = write_config(tmp_path, CHECK_EQUAL_KAPPA_RWA)
    assert main(["check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    assert lines["spectral_oneway_threshold.gamma_m_star"] == repr(100.0)
    assert lines["squeezed_frame.omega"] == repr(8.0)
    assert lines["rwa.overall"] == "pass"
    assert "resonances" in lines and len(lines["resonances"].split()) == 3
    assert lines["thermal_window"].startswith("n_th in (")


def test_check_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A)
    out_path = tmp_path / "check.txt"
    assert main(["check", "--config", cfg, "--out", str(out_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert "stability.analytic = pass" in out_path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_writes_bundle(tmp_path, capsys):
    out_dir = tmp_path / "fig4a"
    assert main(["reproduce", "4a", "--out", str(out_dir)]) == 0
    messages = capsys.readouterr().out
    files = sorted(p.name for p in out_dir.iterdir())
    assert "fig4a_manifest.txt" in files
    assert any(name.endswith(".csv") for name in files)
    for name in files:
        assert f"wrote {out_dir / name}" in messages
    manifest = (out_dir / "fig4a_manifest.txt").read_text(encoding="utf-8")
    assert manifest.startswith("figure: 4a")
    assert "writer: steerkit" in manifest


def test_python_dash_m_steerkit_runs_the_command_line(tmp_path, capsys):
    # the package runs as a module from wherever it is imported, a checkout's src/ included
    env = {**os.environ, "PYTHONPATH": str(Path(steerkit.cli.__file__).parents[1])}
    command = [sys.executable, "-m", "steerkit", "reproduce", "3b", "--out", str(tmp_path / "m")]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert main(["reproduce", "3b", "--out", str(tmp_path / "in_process")]) == 0
    assert done.stdout == capsys.readouterr().out.replace("in_process", "m")
    for path in (tmp_path / "in_process").iterdir():
        assert (tmp_path / "m" / path.name).read_bytes() == path.read_bytes()


def test_reproduce_unknown_figure(tmp_path, capsys):
    assert main(["reproduce", "9z", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "2a" in err  # lists the valid ids
    assert not (tmp_path / "x").exists()


def test_reproduce_onto_an_existing_file_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(figure_id):
        raise AssertionError("the figure was built before --out was checked")

    monkeypatch.setattr(steerkit.cli, "build_figure", refuse)
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    assert main(["reproduce", "4a", "--out", str(blocker)]) == 2
    assert f"error: cannot write {blocker}" in capsys.readouterr().err


def test_steady_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A)
    out_path = tmp_path / "absent" / "x.csv"
    assert main(["steady", "--config", cfg, "--out", str(out_path)]) == 2
    assert f"error: cannot write {out_path}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes and argument errors


def test_exit_2_missing_config(tmp_path, capsys):
    assert main(["steady", "--config", str(tmp_path / "absent.ini")]) == 2
    assert "error: cannot read config" in capsys.readouterr().err


def test_exit_2_bad_version(tmp_path, capsys):
    cfg = write_config(tmp_path, FIG2A.replace("version = 1", "version = 2"))
    assert main(["steady", "--config", cfg]) == 2
    assert "version" in capsys.readouterr().err


def test_exit_3_unstable(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        FIG2A.replace("kappa2 = 0.4", "kappa2 = 1.0")
        .replace("g1 = 10.0", "g1 = 20.0")
        .replace("g2 = 20.0", "g2 = 10.0"),
    )
    assert main(["steady", "--config", cfg]) == 3
    assert "not strictly stable" in capsys.readouterr().err


def test_exit_4_singular_spectrum(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        FIG2A.replace("kappa2 = 0.4", "kappa2 = 1.0")
        .replace("g1 = 10.0", "g1 = 5.0")
        .replace("g2 = 20.0", "g2 = 5.0")
        .replace("gamma_m = 0.01", "gamma_m = 0.0")
        + "\n[spectra]\nomega_min = -1\nomega_max = 1\nn_points = 3\n",
    )
    assert main(["spectra", "--config", cfg]) == 4
    assert "singular" in capsys.readouterr().err


def test_exit_4_overflowing_spectrum(tmp_path, capsys):
    # |d|**2 grows as omega**6 and overflows beyond about |omega| = 1e51
    cfg = write_config(
        tmp_path, FIG2A + "\n[spectra]\nomega_min = -1e120\nomega_max = 1e120\nn_points = 3\n"
    )
    out_path = tmp_path / "spectra.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectra", "--config", cfg, "--out", str(out_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and not out_path.exists()
    assert "overflow" in captured.err


def _exit_4_error(tmp_path, capsys, command, rates, block="") -> str:
    """The one ``error:`` line of ``command`` at ``rates`` (the five rates, maybe ``n_th``;
    with the config ``block``, if any), which must exit 4 with no output and no warning."""
    keys = ("kappa1", "kappa2", "g1", "g2", "gamma_m", "n_th")
    params = "".join(f"{key} = {value}\n" for key, value in zip(keys, rates))
    cfg = write_config(tmp_path, "[config]\nversion = 1\n\n[params]\n" + params + block)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg]) == 4
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    return errors[0]


@pytest.mark.parametrize(
    "rates, s12_strong, window, threshold",
    [
        (
            ("1e-200", "1e-200", "1", "2", "1e-200"),
            "n/a (outside validity window (needs gamma_m >= 5 kappa))",
            "n/a (the thermal window overflows)",
            "4e+200",
        ),
        (
            ("1e-200", "1e-200", "1", "2", "1"),
            "pass (lhs=1e+200 < rhs=inf)",
            "n_th in (1e+200, 4e+200)",
            "4e+200",
        ),
        (
            ("1", "1", "1e200", "2e200", "1"),
            "n/a (outside validity window (needs gamma_m >= 5 kappa))",
            "n/a (the thermal window overflows)",
            None,
        ),
    ],
    ids=["tiny-dampings", "tiny-losses", "huge-couplings"],
)
def test_check_at_extreme_rates_reports_every_section(
    tmp_path, capsys, rates, s12_strong, window, threshold
):
    # (omega / (2 kappa))**2 and kappa**2, squared by product, overflow to inf (1 / inf is
    # 0) or underflow to 0 (an excess over it is inf) in the strong-damping predicates, and
    # a closed form out of range is n/a: check exits 0, with no warning
    keys = ("kappa1", "kappa2", "g1", "g2", "gamma_m")
    params = "".join(f"{key} = {value}\n" for key, value in zip(keys, rates))
    cfg = write_config(tmp_path, "[config]\nversion = 1\n\n[params]\n" + params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = dict(line.split(" = ", 1) for line in captured.out.splitlines())
    assert lines["stability.analytic"] == "pass"
    assert lines["predicate.s21_cond_strong"].startswith("pass (")
    assert lines["predicate.s12_cond_strong"] == s12_strong
    assert lines["thermal_window"] == window
    if threshold is None:
        overflow = "n/a (the spectral one-way threshold overflows)"
        assert lines["spectral_oneway_threshold"] == overflow
    else:
        assert lines["spectral_oneway_threshold.gamma_m_star"] == threshold
    assert lines["squeezed_frame.omega"] == lines["omega"] == repr(math.sqrt(3.0) * float(rates[2]))


@pytest.mark.parametrize(
    "command, rates, error",
    [
        # halving drives the step subnormal, where a report spacing's step count is
        # infinite: refinement ends typed
        ("evolve", ("1", "1", "1e300", "2e300", "1"), "moment integration did not converge "),
        # the step matrices' powers overflow: refinement ends typed, with no matmul notes
        ("evolve", ("1", "1", "1e150", "2e150", "1"), "moment integration did not converge "),
    ],
    ids=["evolve-step-count", "evolve-matmul"],
)
def test_exit_4_float_overflow_at_extreme_rates(tmp_path, capsys, command, rates, error):
    block = "\n[evolve]\nt_max = 1.0\nn_points = 2\n" if command == "evolve" else ""
    assert _exit_4_error(tmp_path, capsys, command, rates, block).startswith("error: " + error)


def test_exit_4_spectra_at_a_huge_bath_occupation(tmp_path, capsys):
    # n_th = 1e300 overflows S12 and S21 at the grid's ends, omega = +-86.6
    rates = ("1", "0.4", "10", "20", "0.01", "1e300")
    error = _exit_4_error(tmp_path, capsys, "spectra", rates, "\n[spectra]\n")
    assert error == "error: spectral variances overflow: n_th is too large"


def test_check_at_huge_losses_reports_every_section(tmp_path, capsys):
    # kappa**2 overflows: the resonance shift is -inf, which leaves the one at 0; the
    # couplings' squares underflow in units of the largest rate, not in their own
    params = "kappa1 = 1e300\nkappa2 = 1e300\ng1 = 1\ng2 = 2\ngamma_m = 1\n"
    cfg = write_config(tmp_path, "[config]\nversion = 1\n\n[params]\n" + params)
    assert main(["check", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "resonances = 0.0\n" in captured.out
    omega = repr(math.sqrt(3.0))
    assert f"\nomega = {omega}\n" in captured.out
    assert f"\nsqueezed_frame.omega = {omega}\n" in captured.out


def test_exit_4_residual_gate_at_overflowing_margins(tmp_path, capsys):
    # g2**2 overflows in the rates' own units, not in the power-of-two units
    # the stability verdict is taken in: the row passes it, and its solve
    # then misses the residual gate
    error = _exit_4_error(tmp_path, capsys, "steady", ("1", "1", "1e160", "2e160", "0.5"))
    assert error.startswith("error: Lyapunov residual ") and "exceeds bound" in error


def test_sweep_at_overflowing_margins_reports_stable_rows(tmp_path, capsys):
    # g2**2 overflows in the rates' own units; each row is judged in
    # power-of-two units, and its solve then misses the residual gate
    params = "kappa1 = 1\nkappa2 = 1\ng1 = 1e160\ng2 = 2e160\ngamma_m = 0.5\n"
    sweep = "\n[sweep]\nmode = grid\naxes = gamma_m 0.5 1.0 2\n"
    cfg = write_config(tmp_path, "[config]\nversion = 1\n\n[params]\n" + params + sweep)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sweep", "--config", cfg, "--quiet"]) == 0
    categories = [warning.category for warning in caught]
    assert EmptySweepWarning in categories and RuntimeWarning not in categories
    captured = capsys.readouterr()
    assert captured.err == ""
    header, rows = csv_rows(captured.out)
    assert header == ["gamma_m", "stable", "s12", "s21", "e_n"]
    assert rows == [[gm, "true", "nan", "nan", "nan"] for gm in ("0.5", "1.0")]


def test_argparse_rejects_unknown_format(tmp_path):
    cfg = write_config(tmp_path, FIG2A)
    with pytest.raises(SystemExit) as excinfo:
        main(["steady", "--config", cfg, "--format", "json"])
    assert excinfo.value.code == 2


def test_argparse_requires_command():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["steady", "evolve", "spectra", "sweep", "check", "reproduce"])
def test_out_help_fits_the_command(command, capsys, monkeypatch):
    text = (
        "output directory for the CSV and manifest (required)"
        if command == "reproduce"
        else "output file; stdout when omitted"
    )
    monkeypatch.setenv("COLUMNS", "200")  # keep argparse from wrapping the line
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(None, 2)[2] for ln in lines if ln.strip().startswith("--out")] == [text]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == "steerkit 0.1.0"
