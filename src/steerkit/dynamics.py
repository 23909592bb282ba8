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
import sys
from dataclasses import dataclass, fields
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

# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Generators:
    """The drift ``A`` and the noise term ``2 K D`` of one parameter set's moment flow."""

    drift: NDArray        # A: complex 6x6
    noise: NDArray        # 2 K D: real 6x6


#: the columns of a rate row, the kernels' input: the first six SystemParams fields, in order
_RATE_FIELDS = tuple(f.name for f in fields(SystemParams))[:6]


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
    strictly negative real part.  The two disagree on numerical boundary cases,
    reported rather than raised, and ``spectral_pass`` cannot be resolved where the
    dampings fall below about eps times the largest rate (``eigvals`` rounds there).
    """

    analytic_pass: bool
    spectral_pass: bool
    max_real_eigenvalue: float


def _margins(k1, k2, g1, g2, gm):
    """``(m1, m2)`` of :func:`stability_margins`, of floats or of rate columns."""
    g11, g22, k1gm = g1 * g1, g2 * g2, k1 + gm
    return (k2 + gm) * ((k1 + k2) * k1gm + g22) - k1gm * g11, k1 * g22 - k2 * g11 + gm * k1 * k2


def _units(rates) -> tuple:
    """``(top, unit)``: the exponent of the power of two that brings the largest of the
    five rates (floats, or a ``(5, n)`` array) into [0.5, 1), and the rates over it."""
    if isinstance(rates, np.ndarray):
        top = np.frexp(rates.max(axis=0))[1]
        return top, np.ldexp(rates, -top)
    # one set, in floats: numpy's scalar calls would cost more than the margins
    top = math.frexp(max(rates))[1]
    return top, [math.ldexp(rate, -top) for rate in rates]


def _effective_coupling(params: SystemParams) -> float:
    """``Omega = sqrt(max(g2**2 - g1**2, 0))``, squared by product in units of the power of
    two that brings the larger coupling into [0.5, 1), where neither square overflows, and
    scaled back: ``Omega <= max(g1, g2)``."""
    top = math.frexp(max(params.g1, params.g2))[1]
    g1, g2 = math.ldexp(params.g1, -top), math.ldexp(params.g2, -top)
    return math.ldexp(math.sqrt(max(g2 * g2 - g1 * g1, 0.0)), top)


def _judge(rates) -> tuple:
    """The one stability verdict: ``(unit, stable)`` of the five rates in
    :func:`_units`' power-of-two units, and ``m1 > 0 and m2 > 0`` there: their sign in
    the rates' own units wherever those do not overflow.  :func:`_margins` squares by
    product in both forms, as libm ``pow`` may not."""
    unit = _units(rates)[1]
    m1, m2 = _margins(*unit)
    return unit, (m1 > 0.0) & (m2 > 0.0)


def stability_margins(params: SystemParams) -> tuple[float, float]:
    """Left-minus-right margins of the two closed-form stability conditions.

    Both must be strictly positive for stability: they are the
    Routh-Hurwitz conditions of the drift's characteristic cubic.
    """
    return _margins(params.kappa1, params.kappa2, params.g1, params.g2, params.gamma_m)


def assess_stability(params: SystemParams) -> StabilityReport:
    """Evaluate closed-form and spectral stability for ``params``; ``spectral_pass``
    cannot be resolved where the dampings fall below about eps times the largest rate."""
    max_re = float(np.linalg.eigvals(_drifts(_rates(params))[0]).real.max())
    return StabilityReport(
        analytic_pass=_judge([getattr(params, name) for name in _RATE_FIELDS[:5]])[1],
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
        return float(self.phi.item(1, 0).real)

    @property
    def n2(self) -> float:
        """Cavity-2 occupation <a2+ a2>."""
        return float(self.phi.item(3, 2).real)

    @property
    def nm(self) -> float:
        """Mechanical occupation <b+ b>."""
        return float(self.phi.item(5, 4).real)

    @property
    def c(self) -> complex:
        """Two-cavity pairing moment <a1 a2>."""
        return complex(self.phi.item(0, 2))


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


#: the flat positions in Phi of the 18 entries :func:`_fill` writes, in its order
_FILL_POSITIONS = np.array([6, 1, 20, 15, 34, 29, 2, 12, 9, 19, 4, 24, 11, 31, 17, 32, 22, 27])


def _fill(n1, n2, nm, c, pair_1m, pair_2m) -> NDArray:
    """The phase-symmetric moment matrices, ``(6, 6)`` of scalar moments or ``(n, 6, 6)`` of
    1-D arrays of length n, in one write; a conjugate keeps its value's type (real c stays real)."""
    cc, c1, c2 = c.conjugate(), pair_1m.conjugate(), pair_2m.conjugate()
    phi = np.zeros(np.shape(n1) + (6, 6), dtype=complex)  # owns its data; a flat view writes it
    phi.reshape(np.shape(n1) + (36,)).T[_FILL_POSITIONS] = [
        n1, n1 + 1.0, n2, n2 + 1.0, nm, nm + 1.0, c, c, cc, cc,
        pair_1m, pair_1m, c1, c1, pair_2m, pair_2m, c2, c2]
    return phi


#: ``x = (n1, n2, nm, Re c, Im<a1 b>, Im<a2 b+>)`` in vec Phi read as (re, im) pairs:
#: Re Phi[1, 0], [3, 2], [5, 4], [0, 2] and Im Phi[0, 4], [2, 5]
_MOMENT_POSITIONS = np.array([12, 40, 68, 4, 9, 35])


def _moments(vec_phi: NDArray) -> NDArray:
    """The six real moments ``x``, shape ``(..., 6)``, of complex vec Phi rows ``(..., 36)``:
    the one reader of the layout that :func:`_fill` writes, one flat take of the pairs."""
    return vec_phi.view(float).take(_MOMENT_POSITIONS, axis=-1)


# ---------------------------------------------------------------------------
# steady states


#: the LAPACK LU routines scipy's lu_factor/lu_solve call for complex input;
#: looked up here, since importing scipy.linalg.lapack by name made
#: ``import steerkit`` measurably slower
_getrf, _getrs = get_lapack_funcs(("getrf", "getrs"), dtype=complex)


def _kronecker_positions() -> tuple[NDArray, NDArray, NDArray, NDArray]:
    """Flat positions in L, and the ``_DRIFT_ENTRIES`` they take: the 36 set, then the 132 added.

    ``kron(A, I)`` puts ``A[i, j]`` at ``(6i + k, 6j + k)`` and ``kron(I, A)`` at
    ``(6k + i, 6k + j)``, k = 0..5; they share only the diagonal, which the
    diagonal entries of ``kron(A, I)`` set.
    """
    entries = _DRIFT_ENTRIES[0]
    i, j = np.divmod(entries, 6)
    k = np.arange(6)[:, None]
    left = ((6 * i + k) * 36 + 6 * j + k).ravel()
    right = ((6 * k + i) * 36 + 6 * k + j).ravel()
    source, first = np.tile(np.arange(len(entries)), 6), np.tile(i == j, 6)
    return (
        left[first],
        source[first],
        np.concatenate([left[~first], right]),
        np.concatenate([source[~first], source]),
    )


_KRONECKER_SET, _KRONECKER_SET_FROM, _KRONECKER_ADD, _KRONECKER_ADD_FROM = _kronecker_positions()


def _kronecker_sums(rates: NDArray) -> NDArray:
    """``L = kron(A, I) + kron(I, A)``, shape ``(n, 36, 36)``, of the drifts ``A`` of rate rows.

    L acts on vec Phi.  The 14 nonzero drift entries are scattered into a zeroed
    block: the diagonal is set to ``A[i, i]`` and gets ``A[k, k]`` added, every
    other entry is added to a zero, which turns the -0 of ``-1j * 0.0`` into the +0
    of ``np.kron``.  So for rates >= +0 every entry has the bits of the
    ``np.kron`` assembly from :func:`_drifts`.
    """
    _, factors, columns = _DRIFT_ENTRIES
    entries = factors * rates.take(columns, axis=1)
    lhs = np.zeros((len(rates), 1296), dtype=complex)
    lhs[:, _KRONECKER_SET] = entries[:, _KRONECKER_SET_FROM]
    lhs[:, _KRONECKER_ADD] += entries[:, _KRONECKER_ADD_FROM]
    return lhs.reshape(-1, 36, 36)


#: stable rows whose Kronecker systems :func:`_steady_batch` assembles and checks at once
_BLOCK = 32


def _noise_vectors(rates: NDArray) -> NDArray:
    """``q = vec 2KD``, shape ``(n, 36)``, of ``n`` rate rows: 2KD[0, 1], [2, 3], [4, 5], [5, 4]."""
    k1, k2, two_gm, nth = rates[:, 0], rates[:, 1], 2.0 * rates[:, 4], rates[:, 5]
    q = np.zeros((len(rates), 36), dtype=complex)
    q[:, 1], q[:, 15], q[:, 29], q[:, 34] = 2.0 * k1, 2.0 * k2, two_gm * (nth + 1.0), two_gm * nth
    return q


def _norms(v: NDArray) -> NDArray:
    """``np.linalg.norm`` of each complex row of ``v`` by the same formula, one batched
    real dot per part: each row gets the bits of its own ``sqrt(re.dot(re) + im.dot(im))``."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def _solve(rates: NDArray, fresh: NDArray | None = None) -> tuple[NDArray, NDArray, NDArray]:
    """``vec Phi`` of a block of rate rows, its residuals and its bounds: the block's
    Kronecker systems solved by LU, with every residual and norm of the gate taken at
    once, each with the bits of its own row; only a row that misses the gate (NaN
    included) is refined, on its own.  ``fresh`` marks the rows that start a run of equal
    drifts, by default every row: the block factors its first row and each fresh one,
    and every other row is solved from the factor of the row before it."""
    lhs, q = _kronecker_sums(rates), _noise_vectors(rates)
    factors: list = []
    for a, new in zip(lhs, [True] * len(lhs) if fresh is None else fresh.tolist()):
        factors.append(_getrf(a)[:2] if new or not factors else factors[-1])
    x = np.array([_getrs(lu, piv, b)[0] for (lu, piv), b in zip(factors, -q)])
    r = (lhs @ x[..., None])[..., 0] + q
    residual, bound = _norms(r), 1e-10 * _norms(q)
    # iterative refinement keeps small moments accurate and rescues
    # ill-conditioned near-boundary systems; stop once it stagnates
    for k in [k for k, ok in enumerate((residual <= bound).tolist()) if not ok]:
        for _ in range(10):
            refined = x[k] - _getrs(*factors[k], r[k])[0]
            refined_r = lhs[k] @ refined + q[k]
            refined_residual = _norms(refined_r)
            if refined_residual >= residual[k]:
                break
            x[k], r[k], residual[k] = refined, refined_r, refined_residual
            if residual[k] <= bound[k]:
                break
    return x, residual, bound


class _SteadyBatch(NamedTuple):
    """Steady states of ``n`` rate rows, from :func:`_steady_batch`.

    ``x`` is each row's six real moments of :func:`_moments`, ``(n, 6)``, NaN unless
    solved; ``stable`` is each row's :func:`_judge` verdict; ``solved`` is the one
    reading of the residual gate (a NaN residual fails it); ``residual`` and ``bound``
    are the gate's operands in :func:`_judge`'s units, NaN on unstable rows.
    """

    x: NDArray
    stable: NDArray
    solved: NDArray
    residual: NDArray
    bound: NDArray


def _steady_batch(rates) -> _SteadyBatch:
    """Steady second moments of rate rows ``(kappa1, kappa2, g1, g2, gamma_m, n_th)``.

    Each row is judged and solved in :func:`_judge`'s power-of-two units, which
    every operation of the solve scales exactly (the steady state is of degree
    0 in the rates).  :func:`_solve` takes the stable rows in blocks of
    ``_BLOCK``: only the LU factorizations and solves run row by row, and a row's
    result has the bits of the one-row call whatever its batch or its position
    in it.  The drift does not read ``n_th``: where the stable rows hold more than
    one ``n_th``, they are ordered by the bits of their unit rates, and each block
    factors each run of equal drifts once.  A call with one ``n_th`` keeps the rows
    in their order and factors each.  Rows are not validated; :class:`SystemParams`
    holds the constraints; ``sweep._minimize`` sends it the cells that
    ``steering._steering_columns`` of :func:`_closed_form`'s moments ranks.
    """
    rates = np.array(rates, dtype=float).reshape(-1, 6)  # a copy, put in units below
    n = len(rates)
    # a lone row is judged in floats, where numpy's calls would cost more than its margins
    unit, stable = _judge(rates[:, :5].T if n > 1 else rates[0, :5].tolist())
    rates[:, :5], stable = np.transpose(unit), np.array(stable, ndmin=1)
    x, residual, bound = np.full((n, 6), np.nan), np.full(n, np.nan), np.full(n, np.nan)
    rows, fresh = stable.nonzero()[0], None
    if len(rows) > 1 and (rates[rows, 5] != rates[rows[0], 5]).any():
        # rows that differ only in n_th share a drift: order by the bits of the unit
        # rates (so -0.0 and +0.0 stay apart) and mark where each run starts
        keys = rates[rows, :5].view(np.int64)
        order = np.lexsort(keys.T)
        rows, keys = rows[order], keys[order]
        fresh = np.append(True, (keys[1:] != keys[:-1]).any(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(rows), _BLOCK):
            chunk = rows[start:start + _BLOCK]
            runs = None if fresh is None else fresh[start:start + _BLOCK]
            vec_phi, residual[chunk], bound[chunk] = _solve(rates[chunk], runs)
            x[chunk] = _moments(vec_phi)
    solved = residual <= bound
    x[~solved] = np.nan
    return _SteadyBatch(x, stable, solved, residual, bound)


def _steady_row(batch: _SteadyBatch, row: int, rates: NDArray) -> MomentState:
    """:func:`steady_state_lyapunov` of the rate row ``rates``, as row ``row`` of ``batch``."""
    if not batch.stable[row]:
        raise UnstableSystemError(assess_stability(SystemParams(*rates)))
    if not batch.solved[row]:
        raise NumericalError(
            f"Lyapunov residual {batch.residual[row]:.3e} exceeds bound {batch.bound[row]:.3e}"
        )
    x = batch.x[row].tolist()  # in floats, which _fill writes faster than numpy scalars
    return MomentState(_fill(*x[:4], 1j * x[4], 1j * x[5]))


def steady_state_lyapunov(params: SystemParams) -> MomentState:
    """Steady second moments from the Lyapunov equation A Phi + Phi A^T = -2KD.

    The equation is vectorized as ``L vec Phi = -vec 2KD`` with
    ``L = kron(A, I) + kron(I, A)`` (transpose, not conjugate-transpose, so
    standard Lyapunov solvers do not apply), L assembled by scattering the
    drift's 14 nonzero entries, and solved by dense LU (LAPACK
    ``zgetrf``/``zgetrs``).  The result is rejected unless the residual
    satisfies ``||A Phi + Phi A^T + 2KD||_F <= 1e-10 ||2KD||_F``; a system that
    misses it is first refined, up to ten times while that helps.  The state is
    :func:`_fill`'s pattern of the six real moments :func:`_moments` reads off the
    solve, so it is exactly phase symmetric where the solve's rounding is not.

    This is the one-row call of the batched kernel :func:`_steady_batch`,
    which each grid sweep, coarse minimization call and lockstep compass
    round calls once, which takes the residuals and norms of a block of
    rows at once, and which factors a drift once for the rows of a block that
    differ only in ``n_th``; a row's moments and verdict are the same bits alone
    or in a batch.

    Raises
    ------
    UnstableSystemError
        If the closed-form verdict of :func:`_judge` fails; the report is
        :func:`assess_stability`'s.
    NumericalError
        If the residual bound cannot be met.
    """
    rates = _rates(params)
    return _steady_row(_steady_batch(rates), 0, rates[0])


@dataclass(frozen=True)
class ClosedFormMoments:
    """Closed-form steady occupations and pairing moment <a1 a2> (real)."""

    n1: float
    n2: float
    c: float


def _closed_form(k1, k2, g1, g2, gm, nth) -> tuple:
    """``(n1, n2, c)`` of :func:`steady_state_closed_form` from the five rates in :func:`_judge`'s
    units and ``n_th``, floats or rate columns; where ``m2 * m1`` is subnormal a float call
    raises :class:`NumericalError` and the columns are NaN (unstable ones are not masked)."""
    g11, g22 = g1 * g1, g2 * g2  # squares by product, as in the margins
    m1, m2 = _margins(k1, k2, g1, g2, gm)
    den = m2 * m1
    if isinstance(den, np.ndarray):
        den[abs(den) < sys.float_info.min] = np.nan
    elif abs(den) < sys.float_info.min:
        raise NumericalError(f"closed-form denominator m2 * m1 = {den:.3e} is subnormal")
    n1 = (k2 * (k1 + k2 + gm) * g11 * g22
          + gm * (nth + 1.0) * (k1 * g22 - k2 * g11 + k2 * (k1 + k2) * (k2 + gm)) * g11) / den
    n2 = (k1 * (k1 + k2 + gm) * g11 * g22
          + gm * nth * (k1 * g22 - k2 * g11 + k1 * (k1 + k2) * (k1 + gm)) * g22) / den
    c = g1 * g2 * (-k1 * (k2 * g11 + (k2 + gm) * (g22 + k2 * gm))
                   + gm * nth * (k2 * g11 - k1 * g22 - k1 * k2 * (k1 + k2 + 2.0 * gm))) / den
    return n1, n2, c


def steady_state_closed_form(params: SystemParams) -> ClosedFormMoments:
    """Explicit rational expressions for the steady moments.

    Exact for ``n1``, ``n2`` and ``c`` at any bath temperature: all three
    are affine in ``n_th`` over the common denominator ``m2 * m1`` of the
    two :func:`stability_margins`, so they require the closed-form
    stability conditions to hold.  They are evaluated in :func:`_judge`'s power-of-two
    units (they are of degree 0 in the rates), where ``m2 * m1`` stays finite.  It is
    subnormal there where the dampings fall below about 1e-154 of the couplings, and
    the products of dampings lose their digits: that raises :class:`NumericalError`.
    The one-row call of :func:`_closed_form`, which ``sweep._minimize`` screens with.
    """
    unit, stable = _judge([getattr(params, name) for name in _RATE_FIELDS[:5]])
    if not stable:
        raise UnstableSystemError(assess_stability(params))
    n1, n2, c = _closed_form(*unit, params.n_th)
    return ClosedFormMoments(n1=n1, n2=n2, c=c)


# ---------------------------------------------------------------------------
# time evolution


#: M's 18 nonzero entries: flat index, factor, column of the rates extended by k1+k2, k1+gm, k2+gm
_FLOW_ENTRIES = (
    np.array([0, 4, 7, 11, 14, 16, 17, 21, 22, 23, 24, 26, 27, 28, 31, 32, 33, 35]),
    np.array([-2.0, -2, -2, -2, -2, -2, 2, -1, 1, 1, -1, -1, -1, -1, 1, -1, 1, -1]),
    np.array([0, 2, 1, 3, 4, 2, 3, 6, 3, 2, 2, 2, 3, 7, 3, 3, 2, 8]),
)


def _real_flow(rates: NDArray) -> tuple[NDArray, NDArray]:
    """``(M, q)``, shapes ``(n, 6, 6)`` and ``(n, 6)``, of ``n`` rate rows: the flow
    ``A Phi + Phi A^T + 2 K D`` as ``x' = M x + q`` on the six real moments ``x = (n1,
    n2, nm, Re c, Im<a1 b>, Im<a2 b+>)``, which no other moment feeds.  M is one scatter
    of its 18 nonzero entries into a zeroed block, as :func:`_drifts` builds A."""
    entries, factors, columns = _FLOW_ENTRIES
    extended = np.hstack([rates, rates[:, [0, 0, 1]] + rates[:, [1, 4, 4]]])
    m, q = np.zeros((len(rates), 36)), np.zeros((len(rates), 6))
    m[:, entries] = factors * extended.take(columns, axis=1)
    q[:, 2], q[:, 4] = 2.0 * rates[:, 4] * rates[:, 5], -rates[:, 2]
    return m.reshape(-1, 6, 6), q


def _rk4_step(generator: NDArray, h: float | NDArray) -> NDArray:
    """One classical RK4 step of y' = G y: ``I + P + P²/2 + P³/6 + P⁴/24``, P = hG, ``(d, d)``
    for a step ``h``; ``(k, d, d)`` for a 1-D stack of k steps, each slice its own call's bits."""
    p = np.multiply.outer(h, generator)
    p2 = p @ p
    p3 = p2 @ p
    p4 = p3 @ p
    return np.eye(len(generator)) + p + p2 / 2.0 + p3 / 6.0 + p4 / 24.0


def _propagate(generator: NDArray, spacings: list, counts: dict, rows: list) -> None:
    """Chain one refinement level's reports in place: ``rows`` are the row views of a
    ``(len(spacings) + 1, 7)`` buffer whose first row holds ``[x0; 1]``, and each next row is
    set to the one before it after its spacing, by a power of the augmented step matrix, with
    a positional ``dot``.  ``counts`` maps a step count to its distinct (exact float) spacings:
    one stacked RK4 build and one stacked power each, every slice the bits of its own 2-D
    build, so the rows are bit for bit those of one build per report time."""
    steps = {}
    for n, dts in counts.items():
        steps.update(zip(dts, np.linalg.matrix_power(_rk4_step(generator, np.array(dts) / n), n)))
    for dt, y, out in zip(spacings, rows, rows[1:]):
        steps[dt].dot(y, out)


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
    halving loop controls truncation.  The report spacings, and two report buffers that
    start from ``[x0; 1]``, are made once per evolution; each level builds the step
    matrices of its distinct spacings in one stacked call per step count (results equal one
    build per report time) and chains its reports in place in the buffer that does not hold
    the previous level, and a level of the previous level's step counts is not rebuilt.
    RK4's errors stand until exact propagation replaces it: the false convergence at mid
    spacings (``bench/README.md``, "Known defects") and fig 2b's S21 error of up to 8.3e-3.

    Raises
    ------
    ValueError
        If ``times`` is empty, not finite, negative or not increasing, or if
        ``initial`` is off the phase-symmetric pattern of :func:`_real_flow`.
    StepConvergenceError
        If refinement does not settle within ``_MAX_HALVINGS`` levels or a step count is infinite.
    """
    phi = initial.phi
    x0 = _moments(np.ascontiguousarray(phi, dtype=complex).reshape(36))
    # the library's states are on the pattern; others may miss it by rounding, up to the tolerance
    pattern = _fill(*x0[:4], *(1j * x0[4:]))
    if not np.abs(phi - pattern).max() <= _EVOLVE_TOL * max(1.0, np.abs(phi).max()):
        raise ValueError("initial state is off the phase-symmetric pattern")
    x = _evolve(params, x0, times).T
    return [MomentState(p.copy()) for p in _fill(*x[:4], *(1j * x[4:]))]


def _evolve(params: SystemParams, x0: NDArray, times) -> NDArray:
    """The rows ``(len(times), 6)`` of :func:`evolve_moments` from the six real moments ``x0``;
    raises its ValueError for ``times``."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be non-negative and strictly increasing")
    rates = _rates(params)
    m, q = _real_flow(rates)
    # Van Loan's augmented generator G = [[M, q], [0, 0]]: y' = G y on
    # y = [x; 1] is the affine flow x' = M x + q
    generator = np.vstack([np.column_stack([m[0], q[0]]), np.zeros(7)])
    eigs = np.linalg.eigvals(_drifts(rates)[0])
    spread = 2.0 * float(np.abs(eigs).max())  # flow eigenvalues live in 2*spec(A)
    h = 2.5 / max(spread, 1e-30)

    # the spacings once per evolution; a report at t = 0 is x0 itself
    zero = int(times[0] == 0.0)
    spacings = np.diff(times, prepend=0.0)[zero:].tolist()
    distinct, diff = set(spacings), math.nan

    def step_counts(h: float, halvings: int) -> dict[int, list[float]]:
        counts: dict[int, list[float]] = {}
        for dt in distinct:
            if dt / h == math.inf:  # h is subnormal or dt huge: no finite step count
                raise StepConvergenceError(step=h, max_difference=diff, halvings=halvings)
            counts.setdefault(max(1, math.ceil(dt / h - 1e-12)), []).append(dt)
        return counts

    # two report buffers, each [x0; 1] and then one level's rows, made once per evolution:
    # a rebuilt level fills the buffer that does not hold the previous level
    buffers = np.empty((2, len(spacings) + 1, 7))
    buffers[:, 0, :-1], buffers[:, 0, -1] = x0, 1.0
    rows = [list(buffer) for buffer in buffers]
    reports = list(buffers[:, 1 - zero:, :-1])
    # a level that overflows scores a NaN difference and refines on, or ends typed: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        counts, held = step_counts(h, 0), 0
        _propagate(generator, spacings, counts, rows[held])
        for halvings in range(1, _MAX_HALVINGS + 1):
            h /= 2.0
            last, counts = counts, step_counts(h, halvings)
            previous = reports[held]
            # a level of the previous level's step counts has its rows, bit for bit: no rebuild
            if counts != last:
                held = 1 - held
                _propagate(generator, spacings, counts, rows[held])
            diff, settled = _settled(reports[held], previous)
            if settled:
                return reports[held]
    raise StepConvergenceError(step=h, max_difference=diff, halvings=_MAX_HALVINGS)


def _settled(states: NDArray, previous: NDArray) -> tuple[float, bool]:
    """``(diff, settled)`` of two refinement levels' rows: their largest change, and whether it
    is below ``_EVOLVE_TOL`` times ``max(1, |x|, |n + 1|)``, over the moments ``x`` and the
    occupations' commutators ``n + 1`` (a NaN change never settles).  Each maximum is taken
    only where the ones before leave the verdict open; ``|n + 1| <= |x| + 1`` bounds the last."""
    diff = float(np.abs(states - previous).max())
    if diff < _EVOLVE_TOL:
        return diff, True
    largest = float(np.abs(states).max())
    return diff, diff < _EVOLVE_TOL * largest or diff < _EVOLVE_TOL * (largest + 1.0) and (
        diff < _EVOLVE_TOL * float(np.abs(states[:, :3] + 1.0).max()))


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
