"""The benchmark's four workloads: seeded inputs, timed calls and checks.

Each workload turns a seed into a fixed-size input set (one pass).  The
timed ``run`` hands steerkit only the generated parameters and grids; the
reference values (``expect``) and the comparison (``check``) come from
:mod:`oracle` and run outside the timed region.  Input properties that set
the cost of an item (grid steps, report-grid length, the share of
unstable requests) are stratified, so every seed gives a pass of about the
same cost, while the continuous parameters are drawn from the seed.
"""
from __future__ import annotations

import csv
import gzip
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from oracle import Rates
from steerkit.errors import NumericalError, UnstableSystemError

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "reproduce_seed.json.gz"
FIGURES = ("2a", "2b", "2c", "2d", "3a", "3b", "4a", "4b", "5a", "5b", "6")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one item's check: ``failed`` and the largest scaled error."""

    failed: bool
    err: float = 0.0
    why: str = ""


def _fail(why: str, err: float = math.inf) -> Verdict:
    return Verdict(True, err, why)


def _scaled(a, b, scale) -> float:
    """max |a - b| / scale, and inf where either side is not finite."""
    a, b = np.asarray(a), np.asarray(b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return math.inf
    return float(np.abs(a - b).max() / scale)


def _finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a)).all() for a in arrays)


def _steering_error(phi, values) -> float:
    """Largest miss of (S12, S21, E_N) computed from ``phi``, over its tolerance.

    The oracle recomputes the values from the same moments.  Rounding in
    either computation grows with max|Phi|, and in S and E_N by the factors
    below, so the tolerance is 1e-9 of max|Phi| scaled by those factors.
    """
    if not _finite(values):
        return math.inf
    scale = max(1.0, float(np.abs(phi).max()))
    ref = oracle.steering(phi)
    sizes = (1.0 + math.sqrt(ref[0]), 1.0 + math.sqrt(ref[1]), math.exp(ref[2]))
    return max(abs(v - r) / (1e-9 * scale * k) for v, r, k in zip(values, ref, sizes))


#: the boolean fields of ``steerkit.RegimePredicates``
PREDICATES = ("s12_oneway_weak", "s21_oneway_weak", "entangled_weak", "s21_cond_strong", "s12_cond_strong")


def _within_rounding(lhs: float, rhs: float) -> bool:
    """True where ``lhs > rhs`` could go either way under rounding."""
    return abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def _regime_miss(rates: Rates, out: dict) -> str:
    """Why a query's regime predicates or thermal window miss their closed forms, or ''."""
    ref = oracle.regime(rates)
    predicates = out["predicates"]
    for name in PREDICATES:
        sides, got = ref[name], getattr(predicates, name)
        if (sides is None) != (got is None):
            return f"regime predicate {name} applies where its closed form does not, or not where it does"
        if sides is not None and not _within_rounding(*sides) and got != (sides[0] > sides[1]):
            return f"regime predicate {name} disagrees with its closed form"
    if (ref["omega"] is None) != (predicates.omega is None) or (
        ref["omega"] is not None and not abs(predicates.omega - ref["omega"]) <= 1e-9 * rates.g2
    ):
        return "regime predicates' omega disagrees with sqrt(g2^2 - g1^2)"
    if "window" in out:
        window = out["window"]
        omega_sq, kappa_gamma, low, high = ref["window"]
        if not _within_rounding(omega_sq, kappa_gamma) and (window is None) == (omega_sq > kappa_gamma):
            return "thermal window is open where its closed form is empty, or empty where it is open"
        if window is not None and not _scaled(window, (low, high), max(1.0, high)) <= 1e-9:
            return "thermal window bounds disagree with their closed form"
    return ""


def _loguniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _strata(rng, n: int) -> np.ndarray:
    """n uniform draws on [0, 1), one in each of n equal strata, shuffled.

    Drawing every parameter this way (a Latin hypercube) gives each seed's
    pass the same spread of cheap and costly items.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def _spread(u, lo, hi, log=False):
    """Map unit draws ``u`` onto [lo, hi], linearly or log-uniformly."""
    if log:
        return [float(lo * (hi / lo) ** x) for x in u]
    return [float(lo + (hi - lo) * x) for x in u]


# ---------------------------------------------------------------------------
# frontier


class Frontier:
    """Two-axis (g1, g2) minimize_steering problems, one per item."""

    name = "frontier"
    COUNT = 54
    STEPS = (11, 21, 41)
    #: |program value - oracle| allowed, as a share of max(1, |value|)
    TOL = 1e-6
    #: largest max|Phi| allowed next to the oracle's best grid cell
    MAX_OCCUPATION = 1e3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        n = self.COUNT
        pairs = [(a, b) for a in self.STEPS for b in self.STEPS] * (n // 9)
        objectives = ["s12", "s21", "en"] * (n // 3)
        rng.shuffle(objectives)
        # a third of the problems have equal losses (as in fig 6), a quarter a warm bath
        kappa2 = [1.0] * (n // 3) + _spread(_strata(rng, n - n // 3), 10**-0.5, 10**0.5, log=True)
        n_th = [0.0] * (n - n // 4) + _spread(_strata(rng, n // 4), 0.1, 10.0, log=True)
        gamma_m = _spread(_strata(rng, n), 0.1, 20.0, log=True)
        hi = _spread(_strata(rng, n), 5.0, 15.0)
        rng.shuffle(kappa2)
        rng.shuffle(n_th)
        self.items, self.best_cells = [], []
        for k, (steps, objective) in enumerate(zip(pairs, objectives)):
            draw = (kappa2[k], n_th[k], gamma_m[k], hi[k])
            for attempt in itertools.count(1):
                rates, axes = self._problem(*draw, steps)
                best_cell = self._best_cell(rates, axes, objective)
                if best_cell is not None:
                    break
                # a fresh draw from the same ranges, keeping the problem's
                # grid steps, objective and equal-loss and warm-bath flags
                redraw = np.random.default_rng([seed, 1, k, attempt])
                draw = (
                    1.0 if draw[0] == 1.0 else _loguniform(redraw, 10**-0.5, 10**0.5),
                    0.0 if draw[1] == 0.0 else _loguniform(redraw, 0.1, 10.0),
                    _loguniform(redraw, 0.1, 20.0),
                    float(redraw.uniform(5.0, 15.0)),
                )
            self.items.append((rates, axes, objective))
            self.best_cells.append(best_cell)

    @staticmethod
    def _problem(kappa2, n_th, gamma_m, hi, steps):
        rates = Rates(1.0, kappa2, 1.0, 1.0, gamma_m, n_th)
        # for large couplings the system is stable below g1 = slope * g2,
        # so a g2 range of hi / slope puts about half of each box on the
        # stable side, as in fig 6; unstable cells cost a fifth as much
        slope = min(math.sqrt(1.0 / kappa2), math.sqrt((kappa2 + gamma_m) / (1.0 + gamma_m)))
        axes = ((hi / 41, hi, steps[0]), (hi / slope / 41, hi / slope, steps[1]))
        return rates, axes

    def _best_cell(self, rates: Rates, axes, objective: str) -> float | None:
        """The oracle's best value on the coarse grid, or None to redraw.

        The compass search refines the best grid cell.  When that cell
        borders an unstable cell, the search walks onto the stability edge,
        where the occupations diverge and the program's S and E_N lose
        digits (see README.md, "Known defects").  Such problems, and those
        whose best cell's neighbourhood has occupations above
        ``MAX_OCCUPATION``, are redrawn.
        """
        shape = (axes[0][2], axes[1][2])
        cells = [rates._replace(g1=float(g1), g2=float(g2))
                 for g1 in np.linspace(*axes[0]) for g2 in np.linspace(*axes[1])]
        drifts = np.stack([oracle.generators(cell)[0] for cell in cells])
        stable = np.linalg.eigvals(drifts).real.max(axis=-1) < 0.0
        values = np.full(len(cells), math.inf)
        sizes = np.full(len(cells), math.inf)
        if stable.any():
            phis = np.stack([oracle.steady(cell) for cell, ok in zip(cells, stable) if ok])
            values[stable] = self._value(phis, objective)
            sizes[stable] = np.abs(phis).max(axis=(1, 2))
        values, sizes = values.reshape(shape), sizes.reshape(shape)
        if not np.isfinite(values).any():
            return math.inf  # no steady cell: the program must say so
        i, j = np.unravel_index(np.argmin(values), values.shape)
        around = (slice(max(i - 1, 0), i + 2), slice(max(j - 1, 0), j + 2))
        if not sizes[around].max() <= self.MAX_OCCUPATION:
            return None
        return float(values[i, j])

    @staticmethod
    def _value(phi, objective: str):
        """The objective (to be minimised) of moments ``phi``, or of a stack of them."""
        s12, s21, e_n = oracle.steering(phi)
        return {"s12": s12, "s21": s21, "en": -e_n}[objective]

    def run(self, sk, item):
        rates, axes, objective = item
        spec = sk.SweepSpec(
            base=sk.SystemParams(*rates),
            axes=tuple(sk.AxisSpec(n, lo, hi, s) for n, (lo, hi, s) in zip(("g1", "g2"), axes)),
            objective=objective,
        )
        point = sk.minimize_steering(spec)[0]
        return point.feasible, point.best, point.value

    @classmethod
    def _objective(cls, rates: Rates, objective: str) -> float:
        """Oracle objective (to be minimised); inf where there is no steady state."""
        if oracle.max_real_eigenvalue(rates) >= 0.0:
            return math.inf
        return cls._value(oracle.steady(rates), objective)

    def expect(self, item):
        """The oracle's best value on the same coarse grid (found when drawing)."""
        return self.best_cells[self.items.index(item)]

    def check(self, item, out, best_cell) -> Verdict:
        rates, _, objective = item
        feasible, best, value = out
        if not feasible:
            if math.isfinite(best_cell):
                return _fail("no feasible point, but the oracle has a steady grid cell")
            return Verdict(False)
        if not _finite(value, best["g1"], best["g2"]):
            return _fail("NaN optimum")
        sign = -1.0 if objective == "en" else 1.0
        at_opt = self._objective(rates._replace(g1=best["g1"], g2=best["g2"]), objective)
        if not math.isfinite(at_opt):
            return _fail("returned optimum is unstable per the oracle")
        err = abs(sign * value - at_opt) / max(1.0, abs(at_opt))
        if not err <= self.TOL:
            return _fail("optimum value disagrees with the oracle", err)
        if sign * value > best_cell + self.TOL * max(1.0, abs(best_cell)):
            return _fail("optimum is worse than the oracle's best grid cell", err)
        return Verdict(False, err)


# ---------------------------------------------------------------------------
# trajectory


class Trajectory:
    """evolve_moments runs with steering evaluated at every report time."""

    name = "trajectory"
    #: the costly items take 8 or 9 refinement levels, about 30% of them 9;
    #: with 64 items the tail (ten items beyond it) stays among the 9-level ones
    COUNT = 64
    REPORTS = 75
    #: report times compared with the exact propagator in each trajectory
    SAMPLES = 6
    #: moment error allowed, as a share of max(1, max |Phi|)
    TOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        n = self.COUNT
        # couplings of figs 2a/2b/3a; g1/g2 <= 0.6 with kappa2 <= 2.4 keeps every set stable
        g2 = _spread(_strata(rng, n), 6.0, 20.0)
        ratio = _spread(_strata(rng, n), 0.3, 0.6)
        kappa2 = _spread(_strata(rng, n), 0.4, 2.4, log=True)
        gamma_m = _spread(_strata(rng, n), 0.01, 10.0, log=True)
        # report spacing in units of 1 / (2 max|eig A|), the fastest rate of
        # the moment flow: fig 3a sits at 0.085, fig 2b at 0.80, fig 2a at 1.7.
        # Above 1.25 the integrator refines its step; three quarters of the
        # trajectories lie there.  Below 1.25 it takes one unrefined step
        # per report interval, which is accurate to 2e-8 only on dense grids
        # up to 0.04, where the other quarter lies.  The band in between is
        # left out: there that step misses by up to 0.14 (README.md, "Known
        # defects").
        spacing = _spread(_strata(rng, n - n // 4), 1.3, 2.5, log=True)
        spacing += _spread(_strata(rng, n // 4), 0.015, 0.04, log=True)
        rng.shuffle(spacing)
        n_th = [0.0] * (n - n // 4) + _spread(_strata(rng, n // 4), 0.1, 5.0)
        rng.shuffle(n_th)
        self.items = []
        for k in range(n):
            rates = Rates(1.0, kappa2[k], g2[k] * ratio[k], g2[k], gamma_m[k], n_th[k])
            eigs = np.linalg.eigvals(oracle.generators(rates)[0])
            if not eigs.real.max() < 0.0:
                raise RuntimeError(f"trajectory input {rates} is unstable")
            times = spacing[k] / (2.0 * np.abs(eigs).max()) * np.arange(1, self.REPORTS + 1)
            picks = np.sort(rng.choice(self.REPORTS - 1, self.SAMPLES - 1, replace=False))
            self.items.append((rates, times, np.append(picks, self.REPORTS - 1)))

    def run(self, sk, item):
        rates, times, picks = item
        params = sk.SystemParams(*rates)
        states = sk.evolve_moments(params, sk.vacuum_thermal_state(rates.n_th), times)
        values = []
        for state in states:
            reduced = sk.steering_products_reduced(state)
            result = sk.steering_result(state)
            values.append((*reduced, result.s12, result.s21, result.e_n))
        return [states[i].phi for i in picks], np.asarray(values)

    def expect(self, item):
        rates, times, picks = item
        at = oracle.propagator(rates)
        phi0 = oracle.initial_state(rates.n_th)
        return [at(phi0, times[i]) for i in picks]

    def check(self, item, out, exact) -> Verdict:
        _, _, picks = item
        phis, values = out
        if not _finite(values):
            return _fail("NaN steering value")
        if not _finite(*phis):
            return _fail("NaN moments")
        worst = 0.0
        for phi, ref, row in zip(phis, exact, values[picks]):
            scale = max(1.0, float(np.abs(ref).max()))
            worst = max(worst, _scaled(phi, ref, scale))
            # steering of the program's own moments, by the oracle's formulas
            reduced, result = (row[0], row[1], row[4]), row[2:]
            if not max(_steering_error(phi, reduced), _steering_error(phi, result)) <= 1.0:
                return _fail("steering values disagree with the oracle")
        if not worst <= self.TOL:
            return _fail("moments disagree with exact propagation", worst)
        return Verdict(False, worst)


# ---------------------------------------------------------------------------
# queries


def _stability_edge(rates: Rates) -> float:
    """g1 at which the drift's largest real eigenvalue crosses zero (bisection)."""
    lo, hi = rates.g1, max(2.0 * rates.g1, 1.0)
    while oracle.max_real_eigenvalue(rates._replace(g1=hi)) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if oracle.max_real_eigenvalue(rates._replace(g1=mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


class Queries:
    """Independent single-point requests: steady, check and spectra for one set."""

    name = "queries"
    COUNT = 1000
    NEAR, UNSTABLE = 150, 150
    #: spectrum grid points compared with the scattering-matrix oracle
    SAMPLES = 3
    TOL = 1e-7
    #: largest max|Phi| of a "stable" request
    MAX_OCCUPATION = 1e4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        n = self.COUNT

        def shuffled(share: float) -> list[bool]:
            flags = [True] * round(share * n) + [False] * (n - round(share * n))
            rng.shuffle(flags)
            return flags

        kinds = ["near"] * self.NEAR + ["unstable"] * self.UNSTABLE
        kinds += ["stable"] * (n - len(kinds))
        rng.shuffle(kinds)
        # exact shares of the flags that decide which calls a request makes
        equal, ordered, thermal = shuffled(0.5), shuffled(0.5), shuffled(0.4)
        shifts = {
            "near": iter(-x for x in _spread(_strata(rng, self.NEAR), 1e-4, 1e-2, log=True)),
            "unstable": iter(_spread(_strata(rng, self.UNSTABLE), 1e-2, 1.0, log=True)),
        }
        self.items = []
        for k, kind in enumerate(kinds):
            while True:
                g_low, g_high = sorted(_loguniform(rng, 0.1, 20.0) for _ in range(2))
                rates = Rates(
                    1.0,
                    1.0 if equal[k] else _loguniform(rng, 0.1, 10.0),
                    g_low if ordered[k] else g_high,
                    g_high if ordered[k] else g_low,
                    _loguniform(rng, 0.01, 20.0),
                    _loguniform(rng, 0.01, 100.0) if thermal[k] else 0.0,
                )
                # stable with margin, and occupations the residual gate can
                # certify (README.md, "Known defects")
                if oracle.max_real_eigenvalue(rates) < -1e-3 and (
                    kind != "stable" or np.abs(oracle.steady(rates)).max() <= self.MAX_OCCUPATION
                ):
                    break
            if kind != "stable":
                rates = rates._replace(g1=_stability_edge(rates) * (1.0 + next(shifts[kind])))
            picks = rng.choice(2001, self.SAMPLES, replace=False)
            self.items.append((kind, rates, picks))

    def run(self, sk, item):
        _, rates, picks = item
        params = sk.SystemParams(*rates)
        out = {"report": sk.assess_stability(params)}
        try:
            moments = sk.steady_state_lyapunov(params)
        except (sk.UnstableSystemError, sk.NumericalError) as exc:
            out["rejected"] = exc
            moments = None
        out["predicates"] = sk.regime_predicates(params)
        if rates.kappa1 == rates.kappa2 and rates.g2 > rates.g1:
            out["frame"] = sk.transformed_drift(params)
            out["window"] = sk.thermal_window(params)
        if moments is not None:
            out["phi"] = moments.phi
            out["result"] = sk.steering_result(moments)
            table = sk.spectrum(params, sk.default_omega_grid(params))
            out["spectrum"] = np.stack(
                [table.omega, table.var_x1, table.var_x2, table.cross,
                 table.s12, table.s21, table.n1_out, table.n2_out], axis=1
            )[picks]
        return out

    def expect(self, item):
        """None for an unstable set, else steady moments and spectrum samples."""
        kind, rates, picks = item
        if oracle.max_real_eigenvalue(rates) >= 0.0:
            return None
        halfwidth = 5.0 * max(math.sqrt(max(rates.g2**2 - rates.g1**2, 0.0)), rates.kappa1, rates.kappa2)
        omegas = np.linspace(-halfwidth, halfwidth, 2001)[picks]
        return oracle.steady(rates), omegas, oracle.spectrum_at(rates, omegas)

    def check(self, item, out, ref) -> Verdict:
        kind, rates, _ = item
        rejected = out.get("rejected")
        miss = _regime_miss(rates, out)
        if miss:
            return _fail(miss)
        if ref is None:  # unstable by construction: the typed error is expected
            if not isinstance(rejected, UnstableSystemError) or out["report"].spectral_pass:
                return _fail("unstable set was not rejected")
            return Verdict(False)
        if not out["report"].spectral_pass:
            return _fail("stability report calls a stable set unstable")
        if kind == "near" and isinstance(rejected, NumericalError):
            return Verdict(False)  # the residual gate's documented, typed refusal
        if rejected is not None:
            return _fail(f"stable set rejected: {type(rejected).__name__}")
        phi_ref, omegas, spec_ref = ref
        if not _finite(out["phi"], out["spectrum"]):
            return _fail("NaN moments or spectrum")
        scale = max(1.0, float(np.abs(phi_ref).max()))
        err = _scaled(out["phi"], phi_ref, scale)
        res = out["result"]
        if not _steering_error(out["phi"], (res.s12, res.s21, res.e_n)) <= 1.0:
            return _fail("steering values disagree with the oracle")
        spec = out["spectrum"]
        if not _scaled(spec[:, 0], omegas, max(1.0, float(np.abs(omegas).max()))) <= 1e-12:
            return _fail("default omega grid differs from its documented form")
        err = max(err, _scaled(spec[:, 1:], spec_ref, max(1.0, float(np.abs(spec_ref).max()))))
        if "frame" in out:
            frame = out["frame"]
            omega = math.sqrt(rates.g2**2 - rates.g1**2)
            # the similarity transform amplifies rounding by cosh(r)^2 = g2^2 / Omega^2
            size = 100 * np.finfo(float).eps * rates.g2 * (rates.g2 / omega) ** 2
            if not (frame.c2_coupling_max <= size and abs(frame.c1_b_coupling + 1j * omega) <= size):
                return _fail("squeezed frame does not decouple c2")
            window = out["window"]
            if window is not None:
                # inside the window, zero-frequency steering is one-way: S12 < 1 <= S21
                mid = oracle.spectrum_at(rates._replace(n_th=0.5 * (window[0] + window[1])), [0.0])[0]
                if not mid[3] < 1.0 <= mid[4]:
                    return _fail("thermal window does not bound one-way steering")
        if not err <= self.TOL:
            return _fail("steady moments or spectrum disagree with the oracle", err)
        return Verdict(False, err)


# ---------------------------------------------------------------------------
# reproduce


def read_reference() -> dict:
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.asarray(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


class Reproduce:
    """``steerkit reproduce <id>`` for every figure, through ``cli.main``."""

    name = "reproduce"
    #: |output - seed reference| allowed, as a share of max(1, |reference|)
    TOL = 1e-6
    #: optimum locations are set only to the compass step (1e-4 of the
    #: 0.5..30 span), so they get ten steps of slack, as an absolute bound
    LOCATION_TOL = 1e-3 * 29.5

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.items = list(FIGURES)
        self.reference = read_reference()

    def run(self, sk, figure_id):
        out = self.workdir / f"fig{figure_id}"
        code = sk.cli.main(["reproduce", figure_id, "--out", str(out), "--quiet"])
        return code, out

    def expect(self, figure_id):
        return self.reference[figure_id]

    def check(self, figure_id, out, files) -> Verdict:
        code, folder = out
        if code != 0:
            return _fail(f"exit code {code}")
        manifest = folder / f"fig{figure_id}_manifest.txt"
        if not manifest.is_file() or not manifest.read_text().startswith(f"figure: {figure_id}\n"):
            return _fail("manifest missing or malformed")
        worst = 0.0
        for name, text in files.items():
            path = folder / name
            if not path.is_file():
                return _fail(f"{name} missing")
            header, values = parse_csv(path.read_text())
            ref_header, ref = parse_csv(text)
            if header != ref_header or values.shape != ref.shape:
                return _fail(f"{name}: columns or row count differ from the reference")
            if not np.array_equal(np.isnan(values), np.isnan(ref)):
                return _fail(f"{name}: NaN cells differ from the reference")
            finite = ~np.isnan(ref)
            diff = np.where(finite, np.abs(values - np.where(finite, ref, 0.0)), 0.0)
            for col, label in enumerate(header):
                if label == "g1_opt":
                    if diff[:, col].max() > self.LOCATION_TOL:
                        return _fail(f"{name}: {label} moved", float(diff[:, col].max()))
                    continue
                scale = np.maximum(1.0, np.abs(np.where(finite[:, col], ref[:, col], 0.0)))
                worst = max(worst, float((diff[:, col] / scale).max()))
        if not worst <= self.TOL:
            return _fail("outputs differ from the seed reference", worst)
        return Verdict(False, worst)


WORKLOADS = {cls.name: cls for cls in (Frontier, Trajectory, Queries, Reproduce)}


def output_bytes(folder: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(folder) if entry.is_file())
