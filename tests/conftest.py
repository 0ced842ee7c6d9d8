from isinglab.lattice import corner_neighbors, is_primal


def bulk_corners(dom):
    return sorted(c for c in dom.corners
                  if corner_neighbors(c)[0] in dom.vertices)


def square(k):
    """Primal grid points with |x|, |y| <= k."""
    return {(x, y) for x in range(-k, k + 1) for y in range(-k, k + 1)
            if is_primal((x, y))}


# a lattice-aligned 2x2 block of primal vertices around the origin's face
HOLE_2X2 = {(0, 0), (2, 2), (-2, 2), (0, 4)}
