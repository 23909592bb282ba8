"""Independent reference computations for checking benchmark outputs.

Nothing here imports steerkit.  The drift is assembled from the
Heisenberg-Langevin equations of the three modes, steady moments come from
a Bartels-Stewart Sylvester solve, trajectories from the exact matrix
exponential of the vectorised flow (Van Loan's augmented form, which needs
no stability assumption), steering products and E_N from determinants and
symplectic eigenvalues of the quadrature covariance, and output spectra
from the full 6x6 scattering matrix.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import expm, solve_sylvester

#: index of the conjugate partner of each of (a1, a1+, a2, a2+, b, b+)
SWAP = np.array([1, 0, 3, 2, 5, 4])


class Rates(NamedTuple):
    """One parameter set, in the field order of ``steerkit.SystemParams``."""

    kappa1: float
    kappa2: float
    g1: float
    g2: float
    gamma_m: float
    n_th: float = 0.0


def generators(r: Rates) -> tuple[np.ndarray, np.ndarray]:
    """Drift ``A`` and noise ``Q`` of the flow dPhi/dt = A Phi + Phi A^T + Q."""
    a = np.zeros((6, 6), dtype=complex)
    # annihilation operators: cavity 1 is driven by b+ (down-conversion),
    # cavity 2 by b (beam splitter), the mechanics by a1+ and a2
    a[0, 0], a[0, 5] = -r.kappa1, -1j * r.g1
    a[2, 2], a[2, 4] = -r.kappa2, -1j * r.g2
    a[4, 4], a[4, 1], a[4, 2] = -r.gamma_m, -1j * r.g1, -1j * r.g2
    for row in (0, 2, 4):  # creation operators follow by conjugation
        a[SWAP[row], SWAP] = np.conj(a[row])
    return a, 2.0 * _damping(r)[:, None] * input_correlations(r)


def _damping(r: Rates) -> np.ndarray:
    return np.array([r.kappa1, r.kappa1, r.kappa2, r.kappa2, r.gamma_m, r.gamma_m])


def input_correlations(r: Rates) -> np.ndarray:
    """<xi_i xi_j> of the vacuum cavity inputs and the thermal mechanical bath."""
    d = np.zeros((6, 6))
    d[0, 1] = d[2, 3] = 1.0
    d[4, 5], d[5, 4] = r.n_th + 1.0, r.n_th
    return d


def max_real_eigenvalue(r: Rates) -> float:
    return float(np.linalg.eigvals(generators(r)[0]).real.max())


def steady(r: Rates) -> np.ndarray:
    """Steady ordered moments; the caller checks stability first."""
    a, q = generators(r)
    return solve_sylvester(a, a.T, -q)


def initial_state(n_th: float) -> np.ndarray:
    """Cavities in vacuum, mechanics thermal at ``n_th``."""
    phi = np.zeros((6, 6), dtype=complex)
    phi[0, 1] = phi[2, 3] = 1.0
    phi[4, 5], phi[5, 4] = n_th + 1.0, n_th
    return phi


def propagator(r: Rates):
    """Return ``f(phi0, t)``: exact moments at time ``t``."""
    a, q = generators(r)
    eye = np.eye(6)
    m = np.zeros((37, 37), dtype=complex)
    m[:36, :36] = np.kron(a, eye) + np.kron(eye, a)
    m[:36, 36] = q.reshape(-1)

    def at(phi0: np.ndarray, t: float) -> np.ndarray:
        z = expm(m * t) @ np.append(phi0.reshape(-1), 1.0)
        return z[:36].reshape(6, 6)

    return at


#: rows X1, Y1, X2, Y2 in terms of (a1, a1+, a2, a2+), vacuum variance 1/2
_QUAD = np.array(
    [[1, 1, 0, 0], [-1j, 1j, 0, 0], [0, 0, 1, 1], [0, 0, -1j, 1j]]
) / np.sqrt(2.0)


def covariance(phi: np.ndarray) -> np.ndarray:
    """Symmetrised two-cavity quadrature covariance of ordered moments."""
    return (_QUAD @ phi[..., :4, :4] @ _QUAD.T).real


def steering(phi: np.ndarray):
    """(S12, S21, E_N) of ordered moments, or three arrays for a stack of them.

    S12 = 4 det(sigma_1 - C sigma_2^-1 C^T) is the Gaussian inference-variance
    product (the Schur complement of cavity 2), which for this model's
    covariance family equals the quadrature product steerkit computes.
    Forming the 2x2 complement first keeps the error at rounding times
    max|Phi|, where determinants of the full matrix would square it.
    """
    sigma = covariance(phi)
    a, b, c = sigma[..., :2, :2], sigma[..., 2:, 2:], sigma[..., :2, 2:]
    ct = np.swapaxes(c, -1, -2)
    s12 = 4.0 * np.linalg.det(a - c @ np.linalg.solve(b, ct))
    s21 = 4.0 * np.linalg.det(b - ct @ np.linalg.solve(a, c))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # partial transpose of cavity 2
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    nu = np.abs(np.linalg.eigvals(1j * omega @ flip @ sigma @ flip)).min(axis=-1)
    e_n = np.maximum(0.0, -np.log(2.0 * nu))
    if np.ndim(s12) == 0:
        return float(s12), float(s21), float(e_n)
    return s12, s21, e_n


def spectrum_at(r: Rates, omegas) -> np.ndarray:
    """Rows (var_x1, var_x2, cross, s12, s21, n1_out, n2_out) at each omega."""
    a, _ = generators(r)
    root = np.sqrt(2.0 * _damping(r))
    d = input_correlations(r)

    def scattering(w: float) -> np.ndarray:
        inner = np.linalg.solve(-1j * w * np.eye(6) - a, np.diag(root))
        return root[:, None] * inner - np.eye(6)

    out = []
    for w in np.asarray(omegas, dtype=float):
        plus, minus = scattering(w), scattering(-w)
        # output annihilation rows at +w / -w, and creation rows expressed
        # through the inputs as the conjugate of the opposite frequency
        ann_p, ann_m = plus, minus
        cre_p, cre_m = np.conj(minus)[:, SWAP], np.conj(plus)[:, SWAP]
        xp, xm = ann_p + cre_p, ann_m + cre_m
        var1 = float((xp[0] @ d @ xm[0]).real)
        var2 = float((xp[2] @ d @ xm[2]).real)
        cross = float((xp[0] @ d @ xm[2]).real)
        n1 = float((cre_p[0] @ d @ ann_m[0]).real)
        n2 = float((cre_p[2] @ d @ ann_m[2]).real)
        s12 = max(var1 - cross * cross / var2, 0.0) ** 2
        s21 = max(var2 - cross * cross / var1, 0.0) ** 2
        out.append((var1, var2, cross, s12, s21, n1, n2))
    return np.asarray(out)


def regime(r: Rates) -> dict:
    """The closed-form regime tests, as (lhs, rhs) of ``lhs > rhs``.

    Restated from the paper's inequalities, each multiplied out so that no
    side divides: the weak-damping one-way and entanglement tests, the
    strong-damping tests for equal losses, the effective coupling ``omega``
    and the zero-frequency thermal window, which is open for
    g2^2 - g1^2 > kappa gamma_m.  A test maps to None where it does not
    apply.
    """
    k1, k2, g1, g2, gm = r.kappa1, r.kappa2, r.g1, r.g2, r.gamma_m
    equal = abs(k1 - k2) <= 1e-9 * max(k1, k2)
    out = dict.fromkeys(
        ("s12_oneway_weak", "s21_oneway_weak", "entangled_weak",
         "s21_cond_strong", "s12_cond_strong", "omega", "window"))
    if not equal:
        drive = k2 * g2 * g2 - k1 * g1 * g1
        out["s12_oneway_weak"] = ((k1 - k2) * drive, k1 * k2 * (k1 + k2) ** 2)
        out["s21_oneway_weak"] = ((k2 - k1) * drive, k1 * k2 * (k1 + k2) ** 2)
    if g2 > g1 > 0.0:
        out["entangled_weak"] = (k2 * g2 * g2, k1 * g1 * g1)
    if g2 > g1:
        omega_sq = g2 * g2 - g1 * g1
        out["omega"] = np.sqrt(omega_sq)
        if equal:
            k = k1
            if omega_sq > 4.0 * k * k:
                out["s21_cond_strong"] = (gm * (omega_sq - 4.0 * k * k), 4.0 * k ** 3)
            if omega_sq > 8.0 * k * k and gm >= 5.0 * k:
                out["s12_cond_strong"] = (g2 * np.sqrt(omega_sq - 8.0 * k * k), omega_sq + 2.0 * k * gm)
            out["window"] = (omega_sq, k * gm, g1 * g1 / (k * gm), g2 * g2 / (k * gm) - 1.0)
    return out
