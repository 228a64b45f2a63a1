"""Explicit Euler stepping loops in numpy: the step-by-step reference that the
transform paths (`scheme1d.propagate` and the steady loop) are tested against.

Each call runs nsteps steps, ping-ponging between the input array (it may be
reused as scratch) and one work array; the caller owns the returned one.
"""

import numpy as np

# bench/run.py reads these two names; ROADMAP item 4 removes them
HAVE_NUMBA = False
FORCE_NUMPY = True


def advance_1d(v, c, nsteps):
    """nsteps explicit Euler steps of the 1D Neumann stencil; c = dt/dx^2."""
    w = np.empty_like(v)
    for _ in range(nsteps):
        w[0] = v[0] + c * (v[1] - v[0])
        w[1:-1] = v[1:-1] + c * (v[:-2] - 2.0 * v[1:-1] + v[2:])
        w[-1] = v[-1] + c * (v[-2] - v[-1])
        v, w = w, v
    return v


def advance_1d_rhs(v, c, dtb, nsteps):
    """Same as advance_1d with a constant source dtb = dt*b added per step."""
    w = np.empty_like(v)
    for _ in range(nsteps):
        w[0] = v[0] + c * (v[1] - v[0]) + dtb[0]
        w[1:-1] = v[1:-1] + c * (v[:-2] - 2.0 * v[1:-1] + v[2:]) + dtb[1:-1]
        w[-1] = v[-1] + c * (v[-2] - v[-1]) + dtb[-1]
        v, w = w, v
    return v


def advance_2d(v, cx, cy, nsteps):
    """advance_1d for the five-point stencil on a (Jy, Jx) array."""
    w = np.empty_like(v)
    for _ in range(nsteps):
        w[:, 1:-1] = cx * (v[:, :-2] - 2.0 * v[:, 1:-1] + v[:, 2:])
        w[:, 0] = cx * (v[:, 1] - v[:, 0])
        w[:, -1] = cx * (v[:, -2] - v[:, -1])
        w[1:-1, :] += cy * (v[:-2, :] - 2.0 * v[1:-1, :] + v[2:, :])
        w[0, :] += cy * (v[1, :] - v[0, :])
        w[-1, :] += cy * (v[-2, :] - v[-1, :])
        w += v
        v, w = w, v
    return v


def advance_2d_rhs(v, cx, cy, dtb, nsteps):
    """Same as advance_2d with a constant source dtb = dt*b added per step."""
    w = np.empty_like(v)
    for _ in range(nsteps):
        w[:, 1:-1] = cx * (v[:, :-2] - 2.0 * v[:, 1:-1] + v[:, 2:])
        w[:, 0] = cx * (v[:, 1] - v[:, 0])
        w[:, -1] = cx * (v[:, -2] - v[:, -1])
        w[1:-1, :] += cy * (v[:-2, :] - 2.0 * v[1:-1, :] + v[2:, :])
        w[0, :] += cy * (v[1, :] - v[0, :])
        w[-1, :] += cy * (v[-2, :] - v[-1, :])
        w += v
        w += dtb
        v, w = w, v
    return v
