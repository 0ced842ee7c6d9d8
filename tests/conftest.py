from isinglab.exact import fermion_field
from isinglab.lattice import corner_neighbors, is_primal
from isinglab.sholo import solve_observable


def bulk_corners(dom):
    return sorted(c for c in dom.corners
                  if corner_neighbors(c)[0] in dom.vertices)


def square(k):
    """Primal grid points with |x|, |y| <= k."""
    return {(x, y) for x in range(-k, k + 1) for y in range(-k, k + 1)
            if is_primal((x, y))}


# a lattice-aligned 2x2 block of primal vertices around the origin's face
HOLE_2X2 = {(0, 0), (2, 2), (-2, 2), (0, 4)}


def field_error(dom, cov, src):
    """The worst relative gap between the oracle's field and the solver's
    observable over the corners (the scale floored at 1% of the largest
    value), and the solution; the oracle must have a value at every
    corner."""
    field = fermion_field(dom, cov, src)
    assert set(field) == set(dom.corners)
    sol = solve_observable(dom, cov, src)
    obs = sol.observable()
    vals = {c: v for c, v in field.items() if not isinstance(v, tuple)}
    sup = max(abs(v) for v in vals.values())
    worst = max(abs(v - obs[c]) / max(abs(v), 1e-2 * sup)
                for c, v in vals.items())
    return worst, sol
