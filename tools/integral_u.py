"""Points of (a, b) off the Sinc nodes whose u = x/h is an integer.

There the barycentric sum has r = u - k = 0 and evaluation takes the
coefficient c_k instead.  `tools/output_digest.py` and the tests of
`vfie.approx` both feed such points to evaluation; they take them from
here.  The preimage function is passed in, so that the digest can use the
`vfie` of the checkout it digests.
"""

import numpy as np


def find_integral_u(inverse, grid, t, steps=64):
    """(s, k) for the first s of t and its float neighbours, up to `steps`
    each way, that is not a node, lies inside (a, b), and has an integral
    u = x/h = k, where x = inverse(grid.kind, grid.iv, s); None if there
    is none."""
    iv = grid.iv
    for toward in (iv.b, iv.a):
        s = t
        for _ in range(steps):
            if iv.a < s < iv.b and s not in grid.points:
                u = inverse(grid.kind, iv, s) / grid.h
                if u == round(u):
                    return s, int(u)
            s = float(np.nextafter(s, toward))
    return None


def integral_u_points(inverse, grid, extra_starts=(), count=8, steps=64):
    """The points `find_integral_u` finds near `count` nodes spread over
    the lower half of (a, b), where the float spacing of t resolves u to
    its last bit (near b one ulp of t moves u by many ulp of u), and near
    each of `extra_starts`; starts without such a point are left out."""
    iv, pts = grid.iv, grid.points
    below = pts[(pts > iv.a) & (pts < 0.5 * (iv.a + iv.b))]
    starts = below[np.linspace(0, below.size - 1, count).astype(int)].tolist()
    found = (find_integral_u(inverse, grid, t, steps) for t in starts + list(extra_starts))
    return np.array([f[0] for f in found if f is not None])
