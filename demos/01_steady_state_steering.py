"""
Steady-state steering between two cavities bridged by a mechanical mode
=======================================================================

Two driven cavities talk to each other only through a shared mechanical
oscillator.  Once the linearized dynamics settle, the remaining quantum
correlations decide whether an observer at cavity 1 can steer cavity 2,
the other way around, both, or neither.  This script walks through the
steady-state toolbox: stability, moments, steering products, and the
closed-form cross-check.
"""

import numpy as np

from steerkit import (
    SystemParams,
    assess_stability,
    steady_state_closed_form,
    steady_state_lyapunov,
    steering_result,
)

# A loss asymmetry favouring cavity 2 as the steering party: cavity 2
# decays faster (kappa2 = 0.4 would favour the other direction, see
# below), couplings g1 < g2 keep the system stable.
params = SystemParams(
    kappa1=1.0, kappa2=0.4, g1=10.0, g2=20.0, gamma_m=0.01, n_th=0.0
)

# Stability comes first: both the closed-form coefficient conditions and
# the drift spectrum must agree before any steady state exists.
report = assess_stability(params)
stable = report.analytic_pass and report.spectral_pass
print("stability:", "stable" if stable else "unstable")
print("  slowest decay |Re eig| =", -report.max_real_eigenvalue)

# The steady second moments solve a 6x6 Lyapunov equation.  Three numbers
# carry all the physics: the cavity occupations n1, n2 and the pairing
# correlation c between the cavities.
moments = steady_state_lyapunov(params)
print("occupations: n1 = %.6f, n2 = %.6f, nm = %.6f"
      % (moments.n1, moments.n2, moments.nm))
print("pairing:     c  = %.6f%+.6fj" % (moments.c.real, moments.c.imag))

# Steering products: S12 < 1 means cavity 2's measurements steer cavity 1.
# Here the loss asymmetry makes the steering strictly one-way.
result = steering_result(moments)
print("steering products: s12 = %.4f, s21 = %.4f" % (result.s12, result.s21))
print("entanglement:      e_n = %.4f" % result.e_n)
print("classification:   ", result.classification)

# The same three moments also follow from closed-form expressions, at
# any bath temperature; the agreement is at rounding level.
cf = steady_state_closed_form(params)
print("closed form vs Lyapunov: |dn1| = %.2e, |dn2| = %.2e, |dc| = %.2e"
      % (abs(cf.n1 - moments.n1), abs(cf.n2 - moments.n2),
         abs(cf.c - moments.c)))

# Swap the loss asymmetry and the steering direction flips with it.
flipped = SystemParams(
    kappa1=1.0, kappa2=2.4, g1=12.0, g2=20.0, gamma_m=0.01, n_th=0.0
)
flipped_result = steering_result(steady_state_lyapunov(flipped))
print()
print("with kappa2 = 2.4 instead: s12 = %.4f, s21 = %.4f -> %s"
      % (flipped_result.s12, flipped_result.s21,
         flipped_result.classification))

# Decouple cavity 1 entirely and every directional correlation dies.
decoupled = SystemParams(
    kappa1=1.0, kappa2=0.4, g1=0.0, g2=20.0, gamma_m=0.01, n_th=0.0
)
dec_result = steering_result(steady_state_lyapunov(decoupled))
print("with g1 = 0:               s12 = %.4f, s21 = %.4f -> %s"
      % (dec_result.s12, dec_result.s21, dec_result.classification))
