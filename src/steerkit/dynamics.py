"""Second-moment dynamics of two cavities bridged by a lossy mechanical mode.

The mode vector is ``psi = (a1, a1+, a2, a2+, b, b+)``: cavity 1 couples to
the mechanics through a downconversion term of strength ``g1``, cavity 2
through a beam-splitter term of strength ``g2``, and the mechanical mode
relaxes at ``gamma_m`` towards thermal occupation ``n_th``.  The ordered
second moments ``Phi_ij = <psi_i psi_j>`` then obey the closed linear flow

    dPhi/dt = A Phi + Phi A^T + 2 K D,

with ``A`` the complex drift matrix, ``K = diag(kappa1, kappa1, kappa2,
kappa2, gamma_m, gamma_m)`` and ``D`` the input-noise correlations.  The
steady state solves the continuous Lyapunov equation ``A Phi + Phi A^T +
2 K D = 0``: with a complex ``A`` this is *not* the conjugate-transpose
equation standard solvers expect, so it is solved on the Kronecker-vectorized
form.  Time evolution runs on the six real moments that carry the
phase-symmetric pattern, whose flow closes as ``x' = M x + q``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import get_lapack_funcs

from .errors import NumericalError, StepConvergenceError, UnstableSystemError
from .params import SystemParams

__all__ = [
    "Generators",
    "StabilityReport",
    "RwaReport",
    "MomentState",
    "ClosedFormMoments",
    "build_generators",
    "stability_margins",
    "assess_stability",
    "assess_rwa",
    "vacuum_thermal_state",
    "build_moment_state",
    "steady_state_lyapunov",
    "steady_state_closed_form",
    "evolve_moments",
    "to_correlation_matrix",
]

#: index of the conjugate partner of each mode-vector component
_SWAP = np.array([1, 0, 3, 2, 5, 4])


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Generators:
    """The drift ``A`` and the noise term ``2 K D`` of one parameter set's moment flow."""

    drift: NDArray        # A: complex 6x6
    noise: NDArray        # 2 K D: real 6x6


#: the columns of a rate row, the kernels' input layout
_RATE_FIELDS = ("kappa1", "kappa2", "g1", "g2", "gamma_m", "n_th")


def _rates(params: SystemParams) -> NDArray:
    """``params`` as one rate row (shape ``(1, 6)``)."""
    return np.array([[getattr(params, name) for name in _RATE_FIELDS]])


#: the nonzero drift entries as flat indices into A, each a factor times a
#: rate column: -kappa1, -kappa1, -kappa2, -kappa2, -gamma_m, -gamma_m on
#: the diagonal, then the +/- i g1, g2 couplings (numpy multiplies a
#: complex factor by a real rate in complex, as Python does for ``-1j * g``,
#: so the signed zeros match too)
_DRIFT_ENTRIES = (
    np.array([0, 7, 14, 21, 28, 35, 5, 10, 16, 23, 25, 26, 30, 33]),
    np.array([-1, -1, -1, -1, -1, -1, -1j, 1j, -1j, 1j, -1j, -1j, 1j, 1j]),
    np.array([0, 0, 1, 1, 4, 4, 2, 2, 3, 3, 2, 3, 2, 3]),
)


def _drifts(rates: NDArray) -> NDArray:
    """Drift matrices ``A``, shape ``(n, 6, 6)``, of ``n`` rate rows."""
    entries, factors, columns = _DRIFT_ENTRIES
    a = np.zeros((len(rates), 36), dtype=complex)
    a[:, entries] = factors * rates.take(columns, axis=1)
    return a.reshape(-1, 6, 6)


def build_generators(params: SystemParams) -> Generators:
    """Assemble the drift and noise matrices for ``params``.

    The drift acts on ``psi = (a1, a1+, a2, a2+, b, b+)``; its only off-diagonal
    entries are the +/- i g couplings between each cavity quadrature pair and the
    mechanical one.  The noise is one row of :func:`_noise_vectors`, reshaped.
    """
    rates = _rates(params)
    return Generators(drift=_drifts(rates)[0], noise=_noise_vectors(rates)[0].real.reshape(6, 6))


# ---------------------------------------------------------------------------
# stability and regime sanity checks


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the closed-form and spectral stability tests.

    ``analytic_pass`` evaluates the two closed-form inequalities that are
    necessary and sufficient for this model, the verdict the steady kernel
    uses; ``spectral_pass`` checks that every drift eigenvalue has a
    strictly negative real part.  The two can disagree only on numerical
    boundary cases, which is reported rather than raised.
    """

    analytic_pass: bool
    spectral_pass: bool
    max_real_eigenvalue: float


def _margins(k1, k2, g1, g2, gm):
    """``(m1, m2)`` of :func:`stability_margins`, of floats or of rate columns."""
    m1 = (k2 + gm) * ((k1 + k2) * (k1 + gm) + g2**2) - (k1 + gm) * g1**2
    m2 = k1 * g2**2 - k2 * g1**2 + gm * k1 * k2
    return m1, m2


def stability_margins(params: SystemParams) -> tuple[float, float]:
    """Left-minus-right margins of the two closed-form stability conditions.

    Both must be strictly positive for stability: they are the
    Routh-Hurwitz conditions of the drift's characteristic cubic.
    """
    return _margins(params.kappa1, params.kappa2, params.g1, params.g2, params.gamma_m)


def assess_stability(params: SystemParams) -> StabilityReport:
    """Evaluate closed-form and spectral stability for ``params``."""
    m1, m2 = stability_margins(params)
    max_re = float(np.linalg.eigvals(build_generators(params).drift).real.max())
    return StabilityReport(
        analytic_pass=bool(m1 > 0.0 and m2 > 0.0),
        spectral_pass=max_re < 0.0,
        max_real_eigenvalue=max_re,
    )


@dataclass(frozen=True)
class RwaReport:
    """Rotating-wave sanity check: omega_m against every competing rate.

    ``checks`` maps each rate name to ``(value, passes)`` where passing
    means ``omega_m >= margin_factor * value``. ``ratio`` is omega_m over
    the largest competing rate. When ``omega_m`` is not given the check is
    not assessable and all verdict fields are None.
    """

    assessable: bool
    margin_factor: float
    checks: dict[str, tuple[float, bool]]
    ratio: float | None
    overall: bool | None


#: default factor by which omega_m must exceed every competing rate
_MARGIN_FACTOR = 10.0


def assess_rwa(params: SystemParams, margin_factor: float = _MARGIN_FACTOR) -> RwaReport:
    """Check that omega_m dominates g1, g2, kappa1, kappa2 and gamma_m*n_th."""
    if params.omega_m is None:
        return RwaReport(False, margin_factor, {}, None, None)
    rates = {
        "g1": params.g1,
        "g2": params.g2,
        "kappa1": params.kappa1,
        "kappa2": params.kappa2,
        "gamma_m*n_th": params.gamma_m * params.n_th,
    }
    checks = {
        name: (value, bool(params.omega_m >= margin_factor * value))
        for name, value in rates.items()
    }
    largest = max(rates.values())
    ratio = math.inf if largest == 0.0 else params.omega_m / largest
    overall = all(ok for _, ok in checks.values())
    return RwaReport(True, margin_factor, checks, ratio, overall)


# ---------------------------------------------------------------------------
# moment states


@dataclass(frozen=True)
class MomentState:
    """All ordered second moments of the three-mode state.

    ``phi[i, j] = <psi_i psi_j>`` in the basis (a1, a1+, a2, a2+, b, b+).
    Scalar views below are re-read from the matrix on access, so they always
    reflect the stored moments.
    """

    phi: NDArray

    @property
    def n1(self) -> float:
        """Cavity-1 occupation <a1+ a1>."""
        return float(self.phi[1, 0].real)

    @property
    def n2(self) -> float:
        """Cavity-2 occupation <a2+ a2>."""
        return float(self.phi[3, 2].real)

    @property
    def nm(self) -> float:
        """Mechanical occupation <b+ b>."""
        return float(self.phi[5, 4].real)

    @property
    def c(self) -> complex:
        """Two-cavity pairing moment <a1 a2>."""
        return complex(self.phi[0, 2])

    @property
    def d1(self) -> complex:
        """Single-cavity pairing moment <a1 a1> (zero by phase symmetry)."""
        return complex(self.phi[0, 0])

    @property
    def d2(self) -> complex:
        """Single-cavity pairing moment <a2 a2> (zero by phase symmetry)."""
        return complex(self.phi[2, 2])

    @property
    def x12(self) -> complex:
        """Photon-exchange moment <a1 a2+> (zero by phase symmetry)."""
        return complex(self.phi[0, 3])

    def conjugation_defect(self) -> float:
        """Max deviation from the self-conjugacy Phi* = S Phi^T S.

        ``S`` swaps each operator with its conjugate; the flow preserves
        this structure exactly, so the defect measures accumulated numeric
        error (it also vanishes for any valid moment matrix).
        """
        mirrored = self.phi.T[np.ix_(_SWAP, _SWAP)]
        return float(np.abs(np.conj(self.phi) - mirrored).max())


def vacuum_thermal_state(n_th: float = 0.0) -> MomentState:
    """Both cavities in vacuum, mechanics thermal at ``n_th``."""
    return build_moment_state(nm=n_th)


def build_moment_state(
    n1: float = 0.0,
    n2: float = 0.0,
    nm: float = 0.0,
    c: complex = 0.0,
    pair_1m: complex = 0.0,
    pair_2m: complex = 0.0,
) -> MomentState:
    """Moment matrix with the phase-symmetric sparsity pattern.

    Only the moments that survive the joint phase rotation
    (a1, a2, b) -> (e^{i phi} a1, e^{-i phi} a2, e^{-i phi} b) can be set:
    occupations, ``c = <a1 a2>``, ``pair_1m = <a1 b>`` and
    ``pair_2m = <a2 b+>``.  All remaining entries are fixed by commutators
    and conjugation.
    """
    return MomentState(_fill(n1, n2, nm, c, pair_1m, pair_2m))


def _fill(n1, n2, nm, c, pair_1m, pair_2m) -> NDArray:
    """The phase-symmetric moment matrices, ``(..., 6, 6)``, of broadcast moment arrays."""
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


# ---------------------------------------------------------------------------
# steady states


#: the LAPACK LU routines scipy's lu_factor/lu_solve call for complex input;
#: looked up here, since importing scipy.linalg.lapack by name made
#: ``import steerkit`` measurably slower
_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=complex)


#: the identity as the complex cast np.kron makes of a real one
_EYE = np.eye(6, dtype=complex)


def _kronecker_sum(a: NDArray) -> NDArray:
    """``L = kron(A, I) + kron(I, A)``, shape ``(36, 36)``, of one drift ``a``.

    L acts on vec Phi.  Each product is taken in ``np.kron``'s operand
    order, so every entry has the bits of the ``np.kron`` assembly.
    """
    lhs = a[:, None, :, None] * _EYE[:, None, :]
    lhs += _EYE[:, None, :, None] * a[:, None, :]
    return lhs.reshape(36, 36)


def _noise_vectors(rates: NDArray) -> NDArray:
    """``q = vec 2KD``, shape ``(n, 36)``, of ``n`` rate rows."""
    k1, k2, gm, nth = rates[:, 0], rates[:, 1], rates[:, 4], rates[:, 5]
    q = np.zeros((len(rates), 36), dtype=complex)
    q[:, 1] = 2.0 * k1                  # 2KD[0, 1]
    q[:, 15] = 2.0 * k2                 # 2KD[2, 3]
    q[:, 29] = 2.0 * gm * (nth + 1.0)   # 2KD[4, 5]
    q[:, 34] = 2.0 * gm * nth           # 2KD[5, 4]
    return q


def _norm(v: NDArray) -> float:
    """``np.linalg.norm`` of a complex vector, by the same formula, minus its overhead."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _solve(lhs: NDArray, q: NDArray) -> tuple[NDArray, float, float]:
    """``x`` with ``lhs x = -q`` by LU and refinement, its residual and the bound."""
    lu, piv, _ = _getrf(lhs)
    x = _getrs(lu, piv, -q)[0]
    bound = 1e-10 * _norm(q)
    r = lhs @ x + q
    residual = _norm(r)
    # iterative refinement keeps small moments accurate and rescues
    # ill-conditioned near-boundary systems; stop once it stagnates
    for _ in range(10):
        if residual <= bound:
            break
        refined = x - _getrs(lu, piv, r)[0]
        refined_r = lhs @ refined + q
        refined_residual = _norm(refined_r)
        if refined_residual >= residual:
            break
        x, r, residual = refined, refined_r, refined_residual
    return x, residual, bound


class _SteadyBatch(NamedTuple):
    """Steady states of ``n`` rate rows, from :func:`_steady_batch`.

    ``stable`` is each row's closed-form verdict ``m1 > 0 and m2 > 0``;
    ``phi`` is ``(n, 6, 6)`` and NaN on every row without a steady state;
    ``residual`` and ``bound`` are the Lyapunov residual and its gate, NaN
    on unstable rows.
    """

    phi: NDArray
    stable: NDArray
    residual: NDArray
    bound: NDArray

    @property
    def solved(self) -> NDArray:
        """Stable rows whose solve met the residual gate."""
        return self.stable & ~(self.residual > self.bound)


def _steady_batch(rates) -> _SteadyBatch:
    """Steady second moments of rate rows ``(kappa1, kappa2, g1, g2, gamma_m, n_th)``.

    Each row is judged by the closed-form stability conditions; the
    Kronecker system of every stable row is assembled, factored and solved
    on its own, exactly as :func:`steady_state_lyapunov` describes.  A
    row's result does not depend on the batch or its position in it: it
    has the bits of the one-row call.  Rows are not validated;
    :class:`SystemParams` holds the constraints.
    """
    rates = np.asarray(rates, dtype=float).reshape(-1, 6)
    n = len(rates)
    m1, m2 = _margins(*rates[:, :5].T)
    stable = (m1 > 0.0) & (m2 > 0.0)
    phi = np.full((n, 36), np.nan, dtype=complex)
    residual = np.full(n, np.nan)
    bound = np.full(n, np.nan)
    rows = stable.nonzero()[0]
    for row, a, q in zip(rows, _drifts(rates[rows]), _noise_vectors(rates[rows])):
        x, residual[row], bound[row] = _solve(_kronecker_sum(a), q)
        if not residual[row] > bound[row]:
            phi[row] = x
    return _SteadyBatch(phi.reshape(n, 6, 6), stable, residual, bound)


def _steady_row(batch: _SteadyBatch, row: int, params: SystemParams) -> MomentState:
    """:func:`steady_state_lyapunov` of ``params``, solved as row ``row`` of ``batch``."""
    if not batch.stable[row]:
        raise UnstableSystemError(assess_stability(params))
    residual, bound = float(batch.residual[row]), float(batch.bound[row])
    if residual > bound:
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds bound {bound:.3e}"
        )
    return MomentState(batch.phi[row])


def steady_state_lyapunov(params: SystemParams) -> MomentState:
    """Steady second moments from the Lyapunov equation A Phi + Phi A^T = -2KD.

    The equation is vectorized with Kronecker products (transpose, not
    conjugate-transpose, so standard Lyapunov solvers do not apply) and
    solved by dense LU (LAPACK ``zgetrf``/``zgetrs``) with iterative
    refinement.  The result is rejected unless the residual satisfies
    ``||A Phi + Phi A^T + 2KD||_F <= 1e-10 ||2KD||_F``.

    This is the one-row call of the batched kernel :func:`_steady_batch`,
    which grid sweeps, coarse minimization grids and compass rounds call
    once each; a row's moments and verdict are the same bits whether it is
    solved alone or in a batch.

    Raises
    ------
    UnstableSystemError
        If the closed-form conditions ``m1 > 0`` and ``m2 > 0`` of
        :func:`stability_margins` fail; the report is :func:`assess_stability`'s.
    NumericalError
        If the residual bound cannot be met.
    """
    return _steady_row(_steady_batch(_rates(params)), 0, params)


@dataclass(frozen=True)
class ClosedFormMoments:
    """Closed-form steady occupations and pairing moment <a1 a2> (real)."""

    n1: float
    n2: float
    c: float


def steady_state_closed_form(params: SystemParams) -> ClosedFormMoments:
    """Explicit rational expressions for the steady moments.

    Exact for ``n1``, ``n2`` and ``c`` at any bath temperature: all three
    are affine in ``n_th`` over the common denominator ``m2 * m1`` of the
    two :func:`stability_margins`, so they require the closed-form
    stability conditions to hold.
    """
    m1, m2 = stability_margins(params)
    if not (m1 > 0.0 and m2 > 0.0):
        raise UnstableSystemError(assess_stability(params))
    k1, k2 = params.kappa1, params.kappa2
    g1, g2, gm, nth = params.g1, params.g2, params.gamma_m, params.n_th
    den = m2 * m1

    n1 = (
        k2 * (k1 + k2 + gm) * g1**2 * g2**2
        + gm * (nth + 1.0)
        * (k1 * g2**2 - k2 * g1**2 + k2 * (k1 + k2) * (k2 + gm))
        * g1**2
    ) / den
    n2 = (
        k1 * (k1 + k2 + gm) * g1**2 * g2**2
        + gm * nth
        * (k1 * g2**2 - k2 * g1**2 + k1 * (k1 + k2) * (k1 + gm))
        * g2**2
    ) / den

    c = g1 * g2 * (
        -k1 * (k2 * g1**2 + (k2 + gm) * (g2**2 + k2 * gm))
        + gm * nth * (k2 * g1**2 - k1 * g2**2 - k1 * k2 * (k1 + k2 + 2.0 * gm))
    ) / den
    return ClosedFormMoments(n1=n1, n2=n2, c=c)


# ---------------------------------------------------------------------------
# time evolution


def _real_flow(rates: NDArray) -> tuple[NDArray, NDArray]:
    """``(M, q)``, shapes ``(n, 6, 6)`` and ``(n, 6)``, of ``n`` rate rows: the flow
    ``A Phi + Phi A^T + 2 K D`` as ``x' = M x + q`` on the six real moments ``x = (n1,
    n2, nm, Re c, Im<a1 b>, Im<a2 b+>)``, which no other moment feeds."""
    k1, k2, g1, g2, gm, nth = rates.T
    o = np.zeros_like(k1)
    m = np.array([[-2 * k1, o, o, o, -2 * g1, o],
                  [o, -2 * k2, o, o, o, -2 * g2],
                  [o, o, -2 * gm, o, -2 * g1, 2 * g2],
                  [o, o, o, -(k1 + k2), g2, g1],
                  [-g1, o, -g1, -g2, -(k1 + gm), o],
                  [o, g2, -g2, g1, o, -(k2 + gm)]])
    return np.moveaxis(m, -1, 0), np.array([o, o, 2 * gm * nth, o, -g1, o]).T


def _rk4_step(generator: NDArray, h: float) -> NDArray:
    """One classical RK4 step of y' = G y: ``I + P + P²/2 + P³/6 + P⁴/24``, P = hG."""
    p = h * generator
    p2 = p @ p
    p3 = p2 @ p
    p4 = p3 @ p
    return np.eye(len(generator)) + p + p2 / 2.0 + p3 / 6.0 + p4 / 24.0


def _propagate(generator: NDArray, x0: NDArray, times: NDArray, h: float) -> NDArray:
    """Rows ``x(times[k])`` for base step ``h``, by powers of the augmented step
    matrix.  A spacing alone fixes its step count, so one matrix is built per distinct
    (exact float) spacing: bit for bit the result of one build per report time."""
    out = np.empty((len(times), len(x0)))
    steps = {}
    y = np.append(x0, 1.0)
    t = 0.0
    for k, tk in enumerate(times):
        dt = tk - t
        if dt > 0.0:
            if dt not in steps:
                n = max(1, math.ceil(dt / h - 1e-12))
                steps[dt] = np.linalg.matrix_power(_rk4_step(generator, dt / n), n)
            y = steps[dt] @ y
            t = tk
        out[k] = y[:-1]
    return out


_EVOLVE_TOL = 1e-8  # agreement between two refinement levels that ends halving
_MAX_HALVINGS = 30  # refinement levels tried before StepConvergenceError


def evolve_moments(params: SystemParams, initial: MomentState, times) -> list[MomentState]:
    """Integrate the moment flow from ``initial``, reporting at ``times``.

    Classical fixed-step RK4 on the six real moments of :func:`_real_flow`, as
    powers of Van Loan's augmented 7x7 step matrix, with the step refined by halving
    until the largest moment change between two consecutive refinement levels is
    below ``_EVOLVE_TOL`` (max over moments and report times, relative to the
    largest moment magnitude, commutators ``n + 1`` included, when that exceeds one,
    absolute otherwise); one batched fill of the pattern turns the finer result into
    the report states, each on its own copy.  The starting step sits at the edge of
    the RK4 stability region — starting smaller would not help, because over long
    horizons the matrix powers' rounding noise grows with the step count while the
    halving loop controls truncation.  Each level builds one step matrix per
    distinct report spacing (results equal one build per report time); RK4's errors
    stand until exact propagation replaces it: the false convergence at mid spacings
    (``bench/README.md``, "Known defects") and fig 2b's S21 error of up to 8.3e-3.

    Raises
    ------
    ValueError
        If ``times`` is empty, not finite, negative or not increasing, or if
        ``initial`` is off the phase-symmetric pattern of :func:`_real_flow`.
    StepConvergenceError
        If refinement does not settle within ``_MAX_HALVINGS`` levels.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be non-negative and strictly increasing")
    phi = initial.phi
    x0 = np.append(phi[[1, 3, 5, 0], [0, 2, 4, 2]].real, phi[[0, 2], [4, 5]].imag)
    # departures below the integration tolerance are rounding (steady states reach 4.2e-9)
    pattern = _fill(*x0[:4], *(1j * x0[4:]))
    if not np.abs(phi - pattern).max() <= _EVOLVE_TOL * max(1.0, np.abs(phi).max()):
        raise ValueError("initial state is off the phase-symmetric pattern")

    rates = _rates(params)
    m, q = _real_flow(rates)
    # Van Loan's augmented generator G = [[M, q], [0, 0]]: y' = G y on
    # y = [x; 1] is the affine flow x' = M x + q
    generator = np.vstack([np.column_stack([m[0], q[0]]), np.zeros(7)])
    eigs = np.linalg.eigvals(_drifts(rates)[0])
    spread = 2.0 * float(np.abs(eigs).max())  # flow eigenvalues live in 2*spec(A)
    h = 2.5 / max(spread, 1e-30)

    previous = _propagate(generator, x0, times, h)
    for _ in range(_MAX_HALVINGS):
        h /= 2.0
        states = _propagate(generator, x0, times, h)
        diff = float(np.abs(states - previous).max())
        scale = max(float(np.abs(states).max()), float(np.abs(states[:, :3] + 1.0).max()))
        if diff < _EVOLVE_TOL * max(1.0, scale):
            return [MomentState(p.copy()) for p in _fill(*states.T[:4], *(1j * states.T[4:]))]
        previous = states
    raise StepConvergenceError(step=h, max_difference=diff, halvings=_MAX_HALVINGS)


def to_correlation_matrix(moments: MomentState) -> NDArray:
    """Two-cavity quadrature covariance (vacuum variance 1/2) of ``moments``.

    Uses the phase-symmetric structure: diagonal blocks ``(n_j + 1/2) I``
    and a cross block ``diag(c, -c)``.  A complex pairing moment enters
    through its modulus, which matches rotating one cavity's quadratures to
    the frame where the cross block is diagonal.
    """
    c = moments.c
    c_eff = c.real if abs(c.imag) <= 1e-12 * max(1.0, abs(c)) else abs(c)
    sigma = np.diag([
        moments.n1 + 0.5,
        moments.n1 + 0.5,
        moments.n2 + 0.5,
        moments.n2 + 0.5,
    ])
    sigma[0, 2] = sigma[2, 0] = c_eff
    sigma[1, 3] = sigma[3, 1] = -c_eff
    return sigma
