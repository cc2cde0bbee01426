"""Monotone cutoff profiles: explicit construction vs brute-force infimum.

The one-dimensional functional charges the profile's slopes against component
densities.  The explicit tail-integral construction is compared against the
oracle (exponentiated gradient on the simplex of interval drops, with its
Frank-Wolfe gap as the convergence report), the gap power of the upper bound
is read off a sweep, and the radial embedding reduction is run at desk scale
(d = 2).
"""

import numpy as np

from parabolab import mixed_norms as mn
from parabolab import variational as vr

print("== canonical case: alpha=2, p=1, f=1 on [0,1] ==")
prob = vr.problem_from_callables(0.0, 1.0, [2.0], [1.0], [1.0], [np.ones_like])
oracle = vr.oracle_infimum(prob)
explicit = vr.explicit_cutoff(prob)
print(f"  oracle infimum  = {oracle.value:.8f}  (Cauchy-Schwarz lower bound: 1)")
print(f"  Frank-Wolfe gap = {oracle.fw_gap:.1e} after {oracle.iterations} iterations, "
      f"converged: {oracle.converged}")
print(f"  explicit profile value = {vr.functional_value(prob, explicit):.8f} "
      "(the linear profile, exactly)")

print("\n== a step density bends the explicit profile ==")
step_prob = vr.problem_from_callables(0.0, 1.0, [1.0], [1.0], [1.0],
                                      [lambda s: np.where(s < 0.5, 0.0, 1.0)])
prof = vr.explicit_cutoff(step_prob, n_knots=9)
print("  knots :", np.round(prof.knots, 3))
print("  values:", np.round(prof.values, 4), " (steeper where the density vanishes)")

print("\n== gap sweep: measured power vs predicted ==")
sweep = vr.sa3_gap_sweep([2.0], [1.0], [1.0], [np.ones_like], [1.0, 0.5, 0.25, 0.125])
print(f"  normalized log-log slope = {sweep['slope']:.4f}, "
      f"predicted = {sweep['predicted']}")

print("\n== upper-bound report with its calibrated constant ==")
expo, rhs, c_fit = vr.sa3_bound_rhs(prob)
lhs = oracle.value
print(f"  lhs = {lhs:.4f}, exponent = {expo}, rhs = {rhs:.4f}, C_fit = {c_fit:.3f}; "
      f"lhs <= C_fit * rhs: {lhs <= c_fit * rhs}")

print("\n== radial embedding at desk scale (d = 2) ==")
w = mn.from_callable(lambda t, X: np.exp(-(X**2).sum(axis=-1)), (0, 1), 8,
                     [(-2.2, 2.2)] * 2, (120, 120))
J, rhs = vr.radial_embedding_infimum(w, alpha=1.0, p=2.0, q=1.0, kappa=1.0,
                                     theta=0.5, tau=1.0, delta=2.0)
print(f"  radial cutoff infimum J = {J:.5f}, gap-weighted right side = {rhs:.5f}")

print("\n== iteration lemma with its explicit constant ==")
taus = np.linspace(1.0, 1.9, 19)
h = 2.0 * (2.0 - taus) ** (-1.0)
ok = vr.iteration_lemma_check(taus, h, alpha=1.0, theta=0.5, A=2.0, B=0.0)
print(f"  C(alpha=1, theta=1/2) = {vr.iteration_lemma_constant(1.0, 0.5):.3f}; "
      f"conclusion holds: {ok}")
