"""The degenerate-coefficient solver and the global boundedness ratio.

Solves the planar degenerate equation (diagonal coefficients vanishing on the
axes) with a centrally supported forcing, checks the structural hypotheses,
and evaluates the boundedness ratio (sup norm + localized energy norm of the
solution against the localized forcing norm), including its invariance under
forcing rescaling.
"""

import numpy as np

from parabolab import mixed_norms as mn
from parabolab import pde_solver as pde
from parabolab.embeddings import ExponentConfig
from parabolab.mixed_norms import INF

forcing = lambda t, X: np.exp(-(X**2).sum(axis=-1) / 0.32)
field = pde.example_62_field(alpha=0.2, R=1.0, n=4, forcing=forcing)

print("== ellipticity profiles of the degenerate field ==")
prof = pde.ellipticity_profiles(field, (-4, -4), (0.25, 0.25), (32, 32))
print(f"  lambda range: [{prof.lam.min():.4f}, {prof.lam.max():.4f}]")
print(f"  mu     range: [{prof.mu.min():.4f}, {prof.mu.max():.4f}]")

cfg = ExponentConfig(d=2, p0=2.4, p1=INF, p4=4.0, q4=INF)
rep = pde.check_hypotheses(field, cfg, (-4, -4), (0.25, 0.25), (32, 32))
print("\n== hypothesis report ==")
for key, val in rep.as_dict().items():
    print(f"  {key:>18}: {val}")

print("\n== solve and measure the boundedness ratio ==")
u0 = pde.spatial_initial_condition(lambda X: np.zeros(X.shape[:-1]),
                                   [(-4, 4)] * 2, (64, 64), "periodic")
u = pde.solve(field, u0, pde.SolverConfig(dt=0.01, T=1.0))
mp = pde.max_principle_report(u, field, cfg, 1.0, lattice_step=0.5)
print(f"  sup|u|          = {mp.u_inf:.5f}")
print(f"  energy norm     = {mp.v_norm:.5f}")
print(f"  forcing norm    = {mp.f_norm:.5f}")
print(f"  ratio           = {mp.ratio:.5f}")
print(f"  max |grad u|    = {mn.gradient_sup(u):.4f}  (recorded, never asserted)")

field3 = pde.example_62_field(alpha=0.2, R=1.0, n=4, forcing=lambda t, X: 3.0 * forcing(t, X))
u3 = pde.solve(field3, u0, pde.SolverConfig(dt=0.01, T=1.0))
mp3 = pde.max_principle_report(u3, field3, cfg, 1.0, lattice_step=0.5)
print(f"\n  forcing tripled: ratio = {mp3.ratio:.5f} "
      f"(relative change {abs(mp3.ratio - mp.ratio) / mp.ratio:.2e})")

print("\n== weak-form residual of the run ==")
tc, x = u.t_centers(), u.x_centers(0)
tt = (tc - 0.5) / 0.2
phi = (np.maximum(1 - tt**2, 0) ** 3)[:, None, None] * np.exp(
    -(u.meshgrid() ** 2).sum(axis=-1) / 0.5)[None]
phi[:, :2, :] = 0.0
phi[:, -2:, :] = 0.0
phi[:, :, :2] = 0.0
phi[:, :, -2:] = 0.0
print(f"  max residual over one smooth test function: "
      f"{pde.weak_residual(u, field, [u.with_values(phi)]):.3e}")
