"""The quantitative estimates behind the uniform-in-time analysis, run as
numerical sweeps.

Four spectral-sum bounds (per-mode amplification envelope, geometric eta-sum,
resolvent power sum, heat-kernel spectrum sum) plus the sampling inequality
relating discrete and Sobolev norms.  Each is checked over a grid/CFL sweep
and reported with its worst observed margin and where it occurred.
"""

from neumannheat import bound_sweep

J_sweep = range(2, 257)
cfls = (0.5, 0.25, 0.1)
worst = bound_sweep(J_sweep, cfls, ns=(1, 100, 10 ** 6), ms=(1, 10, 100, 1000), L=1.0)

print(f"sweep: J = 2..{J_sweep[-1]}, CFL ratios {cfls}")
labels = {
    "amplification": "amplification envelope: smallest margin (>= 0)",
    "eta_sum": "eta-sum vs 2 L^2: worst ratio",
    "resolvent": "resolvent sum vs 4 pi^4 L^4/90: worst ratio",
    "kernel": "kernel sum vs L sqrt(pi/(m a)): worst ratio",
    "quadrature": "sampling inequality ||sampled v||^2 <= 2 (1+dx) (J-1)/J ||v||_H1^2: "
                  "worst lhs/rhs (<= 1)",
}
for name, w in worst.items():
    print(f"  {labels[name]} = {w.value:.3e} at {w.where}"
          f" -> {'holds' if w.ok else 'FAILS'}")
