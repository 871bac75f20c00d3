"""End-to-end sup-bound verification on the degenerate preset.

Solves the regularized problem with a power-law degenerate coefficient
a = |x - x_c|^0.04 (integrable inverse: 0.04 * 20 < 1) and b = 1, then on
intrinsic cylinders evaluates both sides of the truncation energy
inequality, the level formula, the coefficient-free bound, the shrinking
cylinder trace and the regularization threshold.
"""

import numpy as np

from pqlab import (
    BoundaryDatum,
    Coefficient,
    CoefficientSpec,
    Cylinder,
    Domain,
    IntegrandSpec,
    SolveConfig,
    StructureParams,
    caccioppoli_sides,
    solve,
    trace,
    verify_sup_bound,
)

params = StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0, mu=0.0, eps=0.5)
coeffs = CoefficientSpec(
    a=Coefficient("power", center=(0.505,), exponent=0.04),
    b=Coefficient("constant", value=1.0),
)
spec = IntegrandSpec(params, coeffs, eps=0.5)
dom = Domain(n=1, box=((0.0, 1.0),), T=0.3, nx=129, nt=512)
cfg = SolveConfig(dom, spec, BoundaryDatum(kind="profile", profile="sin", amplitude=0.8))
u, stats = solve(cfg)
d = spec.d
print(f"solved {dom.nx}x{dom.nt} grid, mean {np.mean(stats.iterations):.1f} "
      f"iterations per step")

for center, rho in (((0.5, 0.12), 0.2), ((0.45, 0.2), 0.15), ((0.55, 0.28), 0.12)):
    sigma = rho**d.time_exponent
    rep = verify_sup_bound(u, center, rho, sigma, spec, c_cal=1.0)
    print(f"\nintrinsic cylinder at {center}, rho={rho} (sigma={sigma:.4f}):")
    print(f"  coefficient norms A={rep.norms.norm_a:.4f} B={rep.norms.norm_b:.4f}, "
          f"data mean {rep.mean_um:.3e}")
    print(f"  ess sup on the half cylinder: {rep.ess_sup:.4f}")
    print(f"  level formula k = {rep.k_choice:.4f}, coefficient-free bound "
          f"{rep.k_theorem:.4f} -> margin {rep.margin:.2f}, pass={rep.passed}")
    print(f"  eps = {rep.eps} vs threshold {rep.eps_threshold:.4f} "
          f"-> respected: {rep.eps_ok}")

    inner = Cylinder(center, rho, sigma)
    outer = Cylinder(center, 2 * rho, 2 * sigma)
    sides = caccioppoli_sides(u, 0.0, inner, outer, rep.norms, d, mu=params.mu, eps=spec.eps)
    print(f"  truncation energy at level 0: lhs {sides.lhs:.3e} vs rhs {sides.rhs:.3e} "
          f"-> empirical constant {sides.c_min:.3f}")

center, rho = (0.5, 0.12), 0.2
rep = verify_sup_bound(u, center, rho, rho**d.time_exponent, spec)
q0 = Cylinder(center, 2 * rho, 2 * rho**d.time_exponent)

# an artificially low level keeps the truncation energies alive, showing
# their decay along the shrinking cylinders
tr = trace(u, q0, 0.5 * rep.ess_sup, d, i_max=4)
print(f"\nshrinking-cylinder trace at the (deliberately low) level "
      f"k = {0.5 * rep.ess_sup:.4f}:")
print("  i    rho_i    k_i        X_i")
for i in range(len(tr.x_i)):
    print(f"  {i}  {tr.rho_i[i]:.4f}  {tr.k_i[i]:.5f}  {tr.x_i[i]:.4e}")
print(f"  fitted rate lambda = {tr.lambda_fit:.3f}, constant C = {tr.c_fit:.3e}")
print(f"  convergence threshold {tr.threshold:.3e}, X0 below it: {tr.threshold_ok}")

# at the level the formula actually chooses, the energies collapse at once
tr_k = trace(u, q0, rep.k_choice, d, i_max=4)
print(f"at the chosen level k = {rep.k_choice:.4f}: X_i = "
      f"{[f'{x:.2e}' for x in tr_k.x_i]}, certificate holds: {tr_k.threshold_ok}")
