"""The explicit Euler stepping loop in numpy, for arrays of any number of axes:
the step-by-step reference that the transform paths (`scheme1d.propagate` and
the steady loop) are tested against.  Its stencil is `spectral.second_difference`.
"""

import numpy as np

from .spectral import axis_slices, second_difference

# bench/run.py reads these two names; ROADMAP item 6 removes them
HAVE_NUMBA = False
FORCE_NUMPY = True


def advance(v, coeffs, dtb, nsteps):
    """nsteps steps v <- v + sum over axes of coeffs[axis] * (second difference
    along axis) [+ dtb]; coeffs[axis] = dt/h^2 for the spacing h of that array
    axis, dtb = dt*b or None.  The axes are added from the last (x) one, as in
    `spectral.laplacian`.  The loop ping-pongs between v (reused as scratch)
    and one work array; the caller owns the returned one."""
    (ix0, c0), *rest = [(axis_slices(v.ndim, axis), coeffs[axis])
                        for axis in reversed(range(v.ndim))]
    w, d = np.empty_like(v), np.empty_like(v)
    for _ in range(nsteps):
        second_difference(v, w, ix0)
        w *= c0
        for ix, c in rest:
            second_difference(v, d, ix)
            d *= c
            w += d
        w += v
        if dtb is not None:
            w += dtb
        v, w = w, v
    return v


# bench/tracing.py wraps these names; ROADMAP item 6 removes them
advance_1d = advance_1d_rhs = advance_2d = advance_2d_rhs = advance
