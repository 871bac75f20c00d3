"""Solver sanity against a closed-form solution.

With p = q = 2 and constant coefficients a = b = 1/2 the flux is the
identity, so the scheme must reproduce the decaying heat mode
e^{-pi^2 t} sin(pi x).  Shows the nodal error on the reference grid and the
first-order-in-time convergence, then evaluates the scheme's weak-form
residual against the bound its step residuals give, and the variational gap
against simple competitors.
"""

import numpy as np

from pqlab import (
    BoundaryDatum,
    Coefficient,
    CoefficientSpec,
    Domain,
    IntegrandSpec,
    SolveConfig,
    StructureParams,
    comparison_maps,
    field_from_function,
    solve,
    variational_gap_curve,
    weak_residual,
)

params = StructureParams(n=1, p=2.0, q=2.0, mu=0.0, eps=0.0)
coeffs = CoefficientSpec(a=Coefficient("constant", value=0.5),
                         b=Coefficient("constant", value=0.5))
spec = IntegrandSpec(params, coeffs, eps=0.0)
g = BoundaryDatum(kind="profile", profile="sin")

dom = Domain(n=1, box=((0.0, 1.0),), T=0.1, nx=65, nt=400)
cfg = SolveConfig(dom, spec, g)
u, stats = solve(cfg)
exact = np.exp(-np.pi**2 * dom.times)[:, None] * np.sin(np.pi * dom.axes[0])[None, :]
print(f"65x400 grid: max nodal error {np.abs(u.values - exact).max():.3e}, "
      f"{stats.total_iterations} nonlinear iterations")

print("\ntemporal convergence (nx = 129):")
prev = None
for nt in (100, 200, 400):
    dom_j = Domain(n=1, box=((0.0, 1.0),), T=0.1, nx=129, nt=nt)
    u_j, _ = solve(SolveConfig(dom_j, spec, g))
    ex = np.exp(-np.pi**2 * dom_j.times)[:, None] * np.sin(np.pi * dom_j.axes[0])[None, :]
    err = np.abs(u_j.values - ex).max()
    rate = "" if prev is None else f"  order {np.log2(prev / err):.2f}"
    print(f"  nt={nt:4d}: error {err:.3e}{rate}")
    prev = err

phi = field_from_function(
    dom, lambda x, t: np.sin(np.pi * x) ** 2 * np.sin(np.pi * t / dom.T) ** 2
)
bound = max(stats.residuals) * float(np.abs(phi.values).sum()) * dom.cell_volume
print(f"\nweak-form residual against a bump test function: "
      f"{weak_residual(u, phi, cfg):.3e} (step-residual bound {bound:.1e})")

print("\nvariational gaps (all grid times, per competitor):")
for v in comparison_maps(cfg):
    gaps, scales = variational_gap_curve(u, v, cfg)
    print(f"  {v.name:14s} min gap {gaps.min():+.3e}   "
          f"min gap/scale {np.min(gaps / np.maximum(scales, 1e-300)):+.3e}")
