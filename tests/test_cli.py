"""End-to-end checks of the ``steerkit`` command-line interface.

Every test drives ``steerkit.cli.main`` in-process so exit codes and the
exact bytes on stdout/stderr are observable without spawning subprocesses.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from steerkit import (
    SystemParams,
    assess_stability,
    steady_state_lyapunov,
    steering_result,
)
import steerkit.cli
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


@pytest.mark.parametrize(
    "command, rates",
    [
        # g2**2 overflows in the closed-form stability margins
        ("steady", ("1", "1", "1e160", "2e160", "0.5")),
        # (omega / (2 kappa))**2 overflows in the strong-damping predicate
        ("check", ("1e-200", "1e-200", "1", "2", "1e-200")),
    ],
    ids=["steady-margins", "check-predicates"],
)
def test_exit_4_float_overflow_at_extreme_rates(tmp_path, capsys, command, rates):
    keys = ("kappa1", "kappa2", "g1", "g2", "gamma_m")
    params = "".join(f"{key} = {value}\n" for key, value in zip(keys, rates))
    cfg = write_config(tmp_path, "[config]\nversion = 1\n\n[params]\n" + params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's own overflow notes
        assert main([command, "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: OverflowError: ")


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
