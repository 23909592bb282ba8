"""Shared test fixtures: independent oracles and random-model samplers.

The oracles deliberately avoid the code paths they check: the steady-state
and propagation oracles use an eigendecomposition of the drift instead of
the Kronecker/LU solver and the RK4 integrator (the Kronecker oracle, for
the stability edge, is one unrefined ``np.linalg.solve``), the spectrum oracle
builds the full 6x6 scattering matrix from its own damping and noise matrices
instead of the adjugate-style closed-form transfer entries, and the steering
oracle works on the full 4x4 quadrature covariance instead of the closed
forms in (n1, n2, |c|).
``exact_spectrum_columns`` evaluates the complex closed-form entries in
exact rational arithmetic, where ``spectra`` splits them into real
polynomials in ``omega**2``.
``propagate_per_report`` is no oracle: it is the one-build-per-report-time
propagation that the stacked step builds must match bit for bit.  Nor is
``evolve_by_levels``, the step-halving loop that builds every refinement level
afresh (each with ``propagate_level``, one stacked build per step count and a
report chain collected in a list), whose rows and ``StepConvergenceError`` the
evolution keeps bit for bit, though it builds a level of repeated step counts
once and ends refinement typed where a step count overflows.  Nor are
``fill_per_entry``, the pattern written one entry pair at a time, whose bits
the one flat write keeps, ``solve_row``, the steady kernel's solve one system
at a time, which the block solve must match bit for bit,
``closed_form_in_own_units``, the closed form as evaluated in the rates' own
units, whose bits the power-of-two evaluation keeps where those units do not
overflow, ``steering_by_max``, the one-row steering formula with its clamps as
``max`` calls, whose bits and errors the written-out clamps keep, and
``one_trial_compass``, the compass search sent one trial at a time, whose
result the look-ahead search must keep, reading its trials less each repeat
of a point it scored.  ``solve_row`` and ``propagate_per_report`` bind their own
LAPACK LU routines and RK4 step, so no private name of ``steerkit.dynamics`` is
imported here.
"""
from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
from scipy.linalg import get_lapack_funcs

from steerkit import StepConvergenceError, SystemParams, assess_stability, build_generators
from steerkit.sweep import _COMPASS_TOL

_SWAP = np.array([1, 0, 3, 2, 5, 4])

#: complex LAPACK LU factorization and solve, the routines the steady kernel calls
_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=complex)

#: rows X1, Y1, X2, Y2 in terms of (a1, a1+, a2, a2+), vacuum variance 1/2
_QUADRATURES = np.array(
    [[1, 1, 0, 0], [-1j, 1j, 0, 0], [0, 0, 1, 1], [0, 0, -1j, 1j]]
) / np.sqrt(2.0)
#: symplectic form in the quadrature order above
_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
#: partial transposition of cavity 2 (Y2 -> -Y2)
_FLIP_Y2 = np.diag([1.0, 1.0, 1.0, -1.0])


def usable_cpus() -> int:
    """The CPUs this process may run on, which cap OpenBLAS's thread count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lyapunov_oracle(params: SystemParams) -> np.ndarray:
    """Steady second moments via the drift eigenbasis."""
    gen = build_generators(params)
    lam, vec = np.linalg.eig(gen.drift)
    q = gen.noise.astype(complex)
    qt = np.linalg.solve(vec, np.linalg.solve(vec, q.T).T)
    psi = -qt / (lam[:, None] + lam[None, :])
    return vec @ psi @ vec.T


def kronecker_oracle(params: SystemParams) -> np.ndarray:
    """Steady second moments from one plain dense solve of the Kronecker system.

    ``np.kron`` assembly and ``np.linalg.solve``, without refinement or
    residual gate.  Unlike the eigenbasis oracle it stays accurate next to
    the stability edge, where the drift is close to defective.
    """
    gen = build_generators(params)
    eye = np.eye(6)
    lhs = np.kron(gen.drift, eye) + np.kron(eye, gen.drift)
    return np.linalg.solve(lhs, -gen.noise.reshape(-1).astype(complex)).reshape(6, 6)


def exact_steady_moments(params: SystemParams) -> tuple[Fraction, ...]:
    """Exact steady ``(n1, n2, nm, c, p1, p2)`` of the six real moment flow.

    ``c = Re<a1 a2>``, ``p1 = Im<a1 b>`` and ``p2 = Im<a2 b+>``; every other
    moment of the phase-symmetric steady state is 0 or fixed by these.  The
    flow ``x' = M x + q`` below is ``A Phi + Phi A^T + 2 K D`` written out on
    these six moments; ``M x = -q`` is solved by Gaussian elimination in
    ``Fraction`` on the exact binary values of the rates, so the result has
    no rounding error at all.
    """
    k1, k2, g1, g2, gm, n_th = (
        Fraction(getattr(params, name))
        for name in ("kappa1", "kappa2", "g1", "g2", "gamma_m", "n_th")
    )
    zero = Fraction(0)
    # columns n1, n2, nm, c, p1, p2, then -q
    rows = [
        [-2 * k1, zero, zero, zero, -2 * g1, zero, zero],
        [zero, -2 * k2, zero, zero, zero, -2 * g2, zero],
        [zero, zero, -2 * gm, zero, -2 * g1, 2 * g2, -2 * gm * n_th],
        [zero, zero, zero, -(k1 + k2), g2, g1, zero],
        [-g1, zero, -g1, -g2, -(gm + k1), zero, g1],
        [zero, g2, -g2, g1, zero, -(gm + k2), zero],
    ]
    for col in range(6):
        pivot = next((r for r in range(col, 6) if rows[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("the moment flow has no unique steady state")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(6):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[i][6] / rows[i][i] for i in range(6))


def evolve_oracle(params: SystemParams, phi0: np.ndarray, t: float) -> np.ndarray:
    """Propagated second moments via the drift eigenbasis."""
    gen = build_generators(params)
    lam, vec = np.linalg.eig(gen.drift)
    q = gen.noise.astype(complex)
    qt = np.linalg.solve(vec, np.linalg.solve(vec, q.T).T)
    phi_ss = vec @ (-qt / (lam[:, None] + lam[None, :])) @ vec.T
    y0 = np.linalg.solve(vec, np.linalg.solve(vec, (phi0 - phi_ss).T).T)
    decay = np.exp(lam * t)
    return vec @ (decay[:, None] * y0 * decay[None, :]) @ vec.T + phi_ss


def _rk4_step(generator: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """One classical RK4 step matrix of y' = G y: ``I + P + P²/2 + P³/6 + P⁴/24``, P = hG;
    ``(k, d, d)`` for a 1-D stack of k steps."""
    p = np.multiply.outer(h, generator)
    p2 = p @ p
    p3 = p2 @ p
    p4 = p3 @ p
    return np.eye(len(generator)) + p + p2 / 2.0 + p3 / 6.0 + p4 / 24.0


def propagate_per_report(generator, x0, times, h) -> np.ndarray:
    """``dynamics._propagate`` as it was before step matrices were shared: the
    RK4 step matrix and its power are built afresh at every report time.  The
    state ``[x0; 1]`` has one entry more than ``x0``, for Van Loan's augmented
    ``generator``."""
    out = []
    y = np.append(x0, 1.0)
    t = 0.0
    for tk in times:
        dt = tk - t
        if dt > 0.0:
            n = max(1, math.ceil(dt / h - 1e-12))
            y = np.linalg.matrix_power(_rk4_step(generator, dt / n), n) @ y
            t = tk
        out.append(y[:-1].copy())
    return np.array(out)


def propagate_level(generator, x0, times, h) -> np.ndarray:
    """One refinement level as ``dynamics._propagate`` built it before each evolution worked
    out its spacings once: the step counts from ``times`` and the base step ``h``, the
    distinct spacings of one count in one stacked RK4 build and power, and the report chain
    collected in a list."""
    spacings = np.diff(times, prepend=0.0).tolist()
    by_count: dict[int, list[float]] = {}
    for dt in {dt for dt in spacings if dt > 0.0}:
        by_count.setdefault(max(1, math.ceil(dt / h - 1e-12)), []).append(dt)
    steps = {}
    for n, dts in by_count.items():
        steps.update(zip(dts, np.linalg.matrix_power(_rk4_step(generator, np.array(dts) / n), n)))
    y, rows = np.append(x0, 1.0), []
    for dt in spacings:
        if dt > 0.0:
            y = steps[dt].dot(y)
        rows.append(y)
    return np.array(rows)[:, :-1]


def evolve_by_levels(generator, x0, times, h, tol, max_halvings) -> np.ndarray:
    """``dynamics._evolve``'s step-halving loop from the base step ``h``, each level built
    afresh by :func:`propagate_level`: the rows of the first level within ``tol`` of the one
    before, else ``StepConvergenceError`` after ``max_halvings`` halvings."""
    previous = propagate_level(generator, x0, times, h)
    for _ in range(max_halvings):
        h /= 2.0
        states = propagate_level(generator, x0, times, h)
        diff = float(np.abs(states - previous).max())
        scale = max(float(np.abs(states).max()), float(np.abs(states[:, :3] + 1.0).max()))
        if diff < tol * max(1.0, scale):
            return states
        previous = states
    raise StepConvergenceError(step=h, max_difference=diff, halvings=max_halvings)


def fill_per_entry(n1, n2, nm, c, pair_1m, pair_2m) -> np.ndarray:
    """``dynamics._fill`` as it was before its one flat write: the phase-symmetric
    pattern, ``(..., 6, 6)``, written one entry pair at a time from broadcast moments,
    each conjugate by ``np.conj`` of the moment itself."""
    phi = np.zeros(np.broadcast(n1, n2, nm, c, pair_1m, pair_2m).shape + (6, 6), dtype=complex)
    phi[..., 1, 0], phi[..., 0, 1] = n1, n1 + 1.0
    phi[..., 3, 2], phi[..., 2, 3] = n2, n2 + 1.0
    phi[..., 5, 4], phi[..., 4, 5] = nm, nm + 1.0
    phi[..., 0, 2] = phi[..., 2, 0] = c
    phi[..., 1, 3] = phi[..., 3, 1] = np.conj(c)
    phi[..., 0, 4] = phi[..., 4, 0] = pair_1m
    phi[..., 1, 5] = phi[..., 5, 1] = np.conj(pair_1m)
    phi[..., 2, 5] = phi[..., 5, 2] = pair_2m
    phi[..., 3, 4] = phi[..., 4, 3] = np.conj(pair_2m)
    return phi


#: a grid across the stability edge g1 = g2 (equal losses); the residual gate
#: rejects cells next to it, among them g1 = g2 = 10, gamma_m = 0.1259...,
#: which fig 6 also meets, and refines others
EDGE_GRID = np.array([
    (1.0, 1.0, g1, 10.0, gamma_m, n_th)
    for gamma_m in (0.01, 0.12590552330005395, 2.0)
    for g1 in np.linspace(8.0, 12.0, 9)
    for n_th in (0.0, 0.3)
])


def solve_row(lhs: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float, float, int]:
    """``(x, residual, bound, steps)`` of one Kronecker system ``lhs x = -q``: LU,
    the residual ``lhs @ x + q`` and its norm ``sqrt(re.dot(re) + im.dot(im))``,
    refined until the gate ``residual <= 1e-10 ||q||`` holds or a step stops
    helping, at most ten times; ``steps`` counts the refinements kept."""

    def norm(v: np.ndarray) -> float:
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    lu, piv, _ = _getrf(lhs)
    x = _getrs(lu, piv, -q)[0]
    bound = 1e-10 * norm(q)
    r = lhs @ x + q
    residual, steps = norm(r), 0
    while steps < 10 and not residual <= bound:
        refined = x - _getrs(lu, piv, r)[0]
        refined_r = lhs @ refined + q
        refined_residual = norm(refined_r)
        if refined_residual >= residual:
            break
        x, r, residual, steps = refined, refined_r, refined_residual, steps + 1
    return x, residual, bound, steps


def one_trial_compass(x0: np.ndarray, fx0: float, step0: float, free):
    """Coordinate pattern search on the unit box, strict-descent, halving, one trial
    at a time: yields each trial point, is sent its objective, returns ``(x, fx)``."""
    x, fx = x0.copy(), fx0
    step = step0
    while step >= _COMPASS_TOL:
        improved = False
        for i in free:
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] = min(max(trial[i] + sign * step, 0.0), 1.0)
                if trial[i] == x[i]:
                    continue
                f_trial = yield trial
                if f_trial < fx:
                    x, fx = trial, f_trial
                    improved = True
        if not improved:
            step /= 2.0
    return x, fx


def closed_form_in_own_units(params: SystemParams) -> tuple[float, float, float]:
    """``(n1, n2, c)`` of the closed-form steady state, evaluated in the rates'
    own units with ``**`` squares, for rates whose margins do not overflow."""
    k1, k2 = params.kappa1, params.kappa2
    g1, g2, gm, nth = params.g1, params.g2, params.gamma_m, params.n_th
    m1 = (k2 + gm) * ((k1 + k2) * (k1 + gm) + g2 * g2) - (k1 + gm) * (g1 * g1)
    m2 = k1 * (g2 * g2) - k2 * (g1 * g1) + gm * k1 * k2
    den = m2 * m1
    n1 = (
        k2 * (k1 + k2 + gm) * g1**2 * g2**2
        + gm * (nth + 1.0) * (k1 * g2**2 - k2 * g1**2 + k2 * (k1 + k2) * (k2 + gm)) * g1**2
    ) / den
    n2 = (
        k1 * (k1 + k2 + gm) * g1**2 * g2**2
        + gm * nth * (k1 * g2**2 - k2 * g1**2 + k1 * (k1 + k2) * (k1 + gm)) * g2**2
    ) / den
    c = g1 * g2 * (
        -k1 * (k2 * g1**2 + (k2 + gm) * (g2**2 + k2 * gm))
        + gm * nth * (k2 * g1**2 - k1 * g2**2 - k1 * k2 * (k1 + k2 + 2.0 * gm))
    ) / den
    return n1, n2, c


def steering_by_max(n1: float, n2: float, c: float, with_en: bool) -> tuple[float, float, float]:
    """``steering._steering`` as it was with its clamps as ``max`` calls: ``(S12, S21, E_N)``
    of ``(n1, n2, |c|)``, E_N NaN unless ``with_en`` or where ``nu <= 0``; ValueError where
    a variance is not positive and finite or ``|c|^2`` exceeds its bound."""
    if not (0.0 < n1 + 0.5 < math.inf and 0.0 < n2 + 0.5 < math.inf):
        raise ValueError("variance")
    a, b = n1 + 0.5, n2 + 0.5
    c2, bound = c * c, a * b
    if not c2 - bound <= 1e-12 * max(1.0, bound):
        raise ValueError("physicality")
    w12 = max((2.0 * n1 + 1.0) - 4.0 * c2 / (2.0 * n2 + 1.0), 0.0)
    w21 = max((2.0 * n2 + 1.0) - 4.0 * c2 / (2.0 * n1 + 1.0), 0.0)
    e_n = math.nan
    if with_en:
        nu = 0.5 * (a + b) - math.hypot(0.5 * (a - b), c)
        if nu > 0.0:
            e_n = max(0.0, -math.log(2.0 * nu))
    return w12 * w12, w21 * w21, e_n


def damping_and_diffusion(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """``(K, D)``: the diagonal damping matrix and the input-noise correlations.

    ``K = diag(kappa1, kappa1, kappa2, kappa2, gamma_m, gamma_m)``; ``D`` holds
    ``<a_in a_in+> = 1`` for both cavities and ``<b_in b_in+> = n_th + 1``,
    ``<b_in+ b_in> = n_th`` for the mechanical bath.
    """
    k1, k2, gm = params.kappa1, params.kappa2, params.gamma_m
    damping = np.diag([k1, k1, k2, k2, gm, gm]).astype(float)
    diffusion = np.zeros((6, 6))
    diffusion[0, 1] = diffusion[2, 3] = 1.0
    diffusion[4, 5] = params.n_th + 1.0
    diffusion[5, 4] = params.n_th
    return damping, diffusion


def spectrum_oracle(params: SystemParams, omega: float):
    """(var_x1, var_x2, cross, n1_out, n2_out) via the scattering matrix."""
    gen = build_generators(params)
    damping, diff = damping_and_diffusion(params)
    sq = np.sqrt(2.0 * damping)

    def coeff(row: int, w: float) -> np.ndarray:
        smat = sq @ np.linalg.solve(-1j * w * np.eye(6) - gen.drift, sq) - np.eye(6)
        return smat[row]

    def dag_coeff(row: int, w: float) -> np.ndarray:
        return np.conj(coeff(row, -w))[_SWAP]

    def quad_coeff(row: int, w: float) -> np.ndarray:
        return coeff(row, w) + dag_coeff(row, w)

    x1, x1m = quad_coeff(0, omega), quad_coeff(0, -omega)
    x2, x2m = quad_coeff(2, omega), quad_coeff(2, -omega)
    var1 = float(np.real(x1 @ diff @ x1m))
    var2 = float(np.real(x2 @ diff @ x2m))
    cross = float(np.real(x1 @ diff @ x2m))
    n1o = float(np.real(dag_coeff(0, omega) @ diff @ coeff(0, -omega)))
    n2o = float(np.real(dag_coeff(2, omega) @ diff @ coeff(2, -omega)))
    return var1, var2, cross, n1o, n2o


class _ExactComplex:
    """``re + i*im`` with ``Fraction`` parts: exact complex arithmetic."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        other = _exact(other)
        return _ExactComplex(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return _ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + -_exact(other)

    def __mul__(self, other):
        other = _exact(other)
        return _ExactComplex(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __truediv__(self, other):
        other = _exact(other)
        return self * _ExactComplex(other.re, -other.im) * (1 / other.abs2())

    def __rsub__(self, other):
        return _exact(other) - self

    def __rtruediv__(self, other):
        return _exact(other) / self

    __radd__, __rmul__ = __add__, __mul__

    def conj(self):
        return _ExactComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def _exact(value) -> _ExactComplex:
    return value if isinstance(value, _ExactComplex) else _ExactComplex(value)


def exact_spectrum_columns(params: SystemParams, omega: float) -> tuple[float, ...]:
    """``(var_x1, var_x2, cross, s12, s21, n1_out, n2_out)`` at ``omega``, exactly.

    The five complex transfer entries over ``d`` are written out as closed
    forms and combined as quadratures at +/- omega, all in exact rational
    arithmetic on the binary values of the inputs.  The square roots
    ``sqrt(k1 k2)``, ``sqrt(k1 gm)`` and ``sqrt(k2 gm)`` are factored out of
    ``m12``, ``m1b`` and ``m2b``: every column but ``cross`` holds them only
    squared and is exact up to its final rounding, and ``cross`` is
    ``sqrt(k1 k2)`` times an exact rational, rounded a few times in that product.
    """
    k1, k2, g1, g2, gm, n_th = (
        Fraction(getattr(params, name))
        for name in ("kappa1", "kappa2", "g1", "g2", "gamma_m", "n_th")
    )
    iw = _ExactComplex(0, omega)
    d = (k1 - iw) * g2**2 - (k2 - iw) * g1**2 + (k1 - iw) * (k2 - iw) * (gm - iw)
    m11 = ((k1 + iw) * g2**2 + (k2 - iw) * g1**2 + (k1 + iw) * (k2 - iw) * (gm - iw)) / d
    m22 = -((k1 - iw) * g2**2 + (k2 + iw) * g1**2 - (k1 - iw) * (k2 + iw) * (gm - iw)) / d
    m12 = 2 * g1 * g2 / d  # times sqrt(k1 k2)
    m1b = _ExactComplex(0, -2) * g1 * (k2 - iw) / d  # times sqrt(k1 gm)
    m2b = _ExactComplex(0, -2) * g2 * (k1 - iw) / d  # times sqrt(k2 gm)
    a12, b1, b2 = k1 * k2 * m12.abs2(), k1 * gm * m1b.abs2(), k2 * gm * m2b.abs2()
    var_x1 = m11.abs2() + a12 + b1 * (2 * n_th + 1)
    var_x2 = m22.abs2() + a12 + b2 * (2 * n_th + 1)
    # -m1b conj(m2b) is gm sqrt(k1 k2) times -m1b' conj(m2b') of the scaled entries
    mech = -(m1b * m2b.conj()) * gm
    reduced = (-m11 * m12.conj() + m12 * m22.conj() + mech * (2 * n_th + 1)).re
    cross_sq = k1 * k2 * reduced * reduced
    s12 = max(var_x1 - cross_sq / var_x2, Fraction(0)) ** 2
    s21 = max(var_x2 - cross_sq / var_x1, Fraction(0)) ** 2
    cross = float(reduced) * math.sqrt(float(k1 * k2))
    n1_out, n2_out = a12 + b1 * (n_th + 1), a12 + b2 * n_th
    return float(var_x1), float(var_x2), cross, *map(float, (s12, s21, n1_out, n2_out))


def quadrature_covariance(phi: np.ndarray) -> np.ndarray:
    """Symmetrized two-cavity covariance (X1, Y1, X2, Y2) of ordered moments.

    Built from the raw moment matrix, so a complex pairing moment leaves
    the cross block non-diagonal.
    """
    return (_QUADRATURES @ phi[:4, :4] @ _QUADRATURES.T).real


def three_mode_covariance(phi: np.ndarray) -> np.ndarray:
    """Symmetrized covariance (X1, Y1, X2, Y2, Xm, Ym) of all three modes."""
    quadratures = np.kron(np.eye(3), _QUADRATURES[:2, :2])
    return (quadratures @ phi @ quadratures.T).real


def uncertainty_eigenvalue(sigma: np.ndarray) -> float:
    """Smallest eigenvalue of sigma + i Omega / 2, which is >= 0 exactly when
    the covariance (vacuum variance 1/2) obeys the uncertainty principle."""
    omega = np.kron(np.eye(len(sigma) // 2), _OMEGA[:2, :2])
    return float(np.linalg.eigvalsh(sigma + 0.5j * omega).min())


def steering_oracle(sigma: np.ndarray) -> tuple[float, float, float]:
    """(S12, S21, E_N) of a 4x4 two-cavity covariance matrix.

    S12 = 4 det sigma / det sigma_2 is the Gaussian Schur-complement
    steering criterion (Wiseman, Jones & Doherty, PRL 98, 140402, 2007;
    Kogias et al., PRL 114, 060403, 2015), which equals Reid's
    inference-variance product for this model's covariance family; S21
    mirrors it.  E_N = max(0, -ln 2 nu) with nu the smallest modulus among
    the eigenvalues of i Omega sigma~, sigma~ the partial transpose.  Its
    rounding grows with the occupations: about eps (n1 + n2)^2 in S and
    eps (n1 + n2) e^E_N in E_N.
    """
    det = np.linalg.det(sigma)
    s12 = 4.0 * det / np.linalg.det(sigma[2:, 2:])
    s21 = 4.0 * det / np.linalg.det(sigma[:2, :2])
    partial = _FLIP_Y2 @ sigma @ _FLIP_Y2
    nu = np.abs(np.linalg.eigvals(1j * _OMEGA @ partial)).min()
    return float(s12), float(s21), max(0.0, -float(np.log(2.0 * nu)))


def sample_stable(
    rng: np.random.Generator,
    count: int,
    *,
    equal_kappa: bool = False,
    gamma_m: float | None = None,
    n_th: float = 0.0,
    decades: float = 2.0,
) -> list[SystemParams]:
    """Stable parameter sets with rates log-uniform around kappa1 = 1."""
    out: list[SystemParams] = []
    while len(out) < count:
        k2, g1, g2, gm = 10.0 ** rng.uniform(-decades, decades, size=4)
        params = SystemParams(
            kappa1=1.0,
            kappa2=1.0 if equal_kappa else float(k2),
            g1=float(g1),
            g2=float(g2),
            gamma_m=float(gm) if gamma_m is None else gamma_m,
            n_th=n_th,
        )
        report = assess_stability(params)
        if report.analytic_pass and report.spectral_pass:
            out.append(params)
    return out


def min_symplectic_eigenvalue(n1: float, n2: float, c: float) -> float:
    """Smaller symplectic eigenvalue of the (n1, n2, c) covariance family."""
    t1, t2 = n1 + 0.5, n2 + 0.5
    big = t1 * t1 + t2 * t2 - 2.0 * c * c
    det = (t1 * t2 - c * c) ** 2
    return float(np.sqrt(0.5 * (big - np.sqrt(max(big * big - 4.0 * det, 0.0)))))


def sample_physical_family(
    rng: np.random.Generator, count: int
) -> list[tuple[float, float, float]]:
    """Random (n1, n2, c) triples whose covariance matrix is physical."""
    out: list[tuple[float, float, float]] = []
    while len(out) < count:
        n1, n2 = 10.0 ** rng.uniform(-2.0, 1.5, size=2)
        c_bound = np.sqrt((n1 + 0.5) * (n2 + 0.5))
        c = rng.uniform(-c_bound, c_bound)
        if min_symplectic_eigenvalue(n1, n2, c) >= 0.5 * (1.0 + 1e-9):
            out.append((float(n1), float(n2), float(c)))
    return out
