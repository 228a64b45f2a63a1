"""Consistency defect of the Neumann second-difference stencil.

For a smooth w with zero end slopes, the pointwise defect

    (defect w)_j = w''(x_j) - (stencil of sampled w)_j

splits exactly into a boundary part (order one, first and last rows only) and
dx^2 times an interior part (bounded), via Taylor remainders in integral form:

    row 0:      1/2 w''(x_0)     - (dx/2) int_0^1 (1-s)^2 w'''(x_0 + s dx) ds
    row J-1:    1/2 w''(x_{J-1}) + (dx/2) int_0^1 s^2     w'''(x_{J-2} + s dx) ds
    interior:  -(1/6) int_0^1 (1-s)^3 [w''''(x_j + s dx) + w''''(x_j - s dx)] ds

The boundary rows do not vanish as dx -> 0: the scheme is inconsistent at the
two end nodes, which is precisely what the uniform-in-time analysis has to
absorb.  The s-integrals use fixed 16-node Gauss-Legendre quadrature.
"""

from __future__ import annotations

import numpy as np

from .exact import SmoothFunction
from .grid import Field1D, Grid1D
from .spectral import laplacian

__all__ = ["l_delta", "l1", "l2", "embed_boundary", "split_defect"]

# 16-node Gauss-Legendre rule mapped to [0, 1]
_GX, _GW = np.polynomial.legendre.leggauss(16)
_GX = 0.5 * (_GX + 1.0)
_GW = 0.5 * _GW


def l_delta(w: SmoothFunction, g: Grid1D) -> Field1D:
    """Full defect: sampled second derivative minus the discrete Laplacian of
    the sampled function."""
    x = g.nodes()
    return Field1D(g, w.deriv(2, x) - laplacian(w(x), g.spacings))


def l1(w: SmoothFunction, g: Grid1D) -> tuple[float, float]:
    """The two boundary entries of the defect's order-one part."""
    dx = g.dx
    x_last = g.L
    w3_left = w.deriv(3, _GX * dx)
    w3_right = w.deriv(3, x_last - dx + _GX * dx)
    left = 0.5 * float(w.deriv(2, 0.0)) - 0.5 * dx * float(_GW @ ((1.0 - _GX) ** 2 * w3_left))
    right = 0.5 * float(w.deriv(2, x_last)) + 0.5 * dx * float(_GW @ (_GX ** 2 * w3_right))
    return left, right


def l2(w: SmoothFunction, g: Grid1D) -> Field1D:
    """Interior part of the defect (zero at both end rows); the full defect at
    an interior node equals dx^2 times this entry."""
    dx = g.dx
    out = np.zeros(g.J)
    if g.J > 2:
        xj = g.nodes()[1:-1]
        # nodes x_j +/- s*dx for all interior j and quadrature points s
        plus = w.deriv(4, xj[:, None] + _GX[None, :] * dx)
        minus = w.deriv(4, xj[:, None] - _GX[None, :] * dx)
        weights = _GW * (1.0 - _GX) ** 3
        out[1:-1] = -(plus + minus) @ weights / 6.0
    return Field1D(g, out)


def embed_boundary(pair: tuple[float, float], g: Grid1D) -> Field1D:
    """Place the two boundary defect values into a full-length field."""
    out = np.zeros(g.J)
    out[0], out[-1] = pair
    return Field1D(g, out)


def split_defect(w: SmoothFunction, g: Grid1D) -> tuple[Field1D, Field1D]:
    """(boundary part, interior part); their weighted sum reconstructs
    l_delta(w) when w has zero end slopes."""
    return embed_boundary(l1(w, g), g), l2(w, g)
