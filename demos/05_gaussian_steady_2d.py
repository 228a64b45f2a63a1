"""2D steady states on (0,2) x (0,4) with a manufactured Gaussian solution.

Two placements of the same Gaussian: centered (its boundary fluxes are
negligible, so the boundary inconsistency never bites and the error falls at
second order) and corner-anchored (order one, as in 1D).  Grid resolutions
refine dyadically; dy tracks dx.
"""

from neumannheat import default_config, estimate_slope, run_convergence

for case in ("centered", "offset"):
    cfg = default_config(f"steady2d-{case}", J_list=(8, 16, 32, 64),
                         checkpoints=(5.0,))
    records = run_convergence(cfg)
    print(f"\n=== steady2d-{case}: absolute error vs sampled exact state at t=5")
    for r in records:
        print(f"  Jx={r.J:3d} (dx={r.dx:.4f})  error={r.abs_err:.4e}  steps={r.n}")
    fit = estimate_slope([r for r in records if r.J >= 16])
    print(f"  slope over Jx=16..64: {fit.slope:.3f}")
