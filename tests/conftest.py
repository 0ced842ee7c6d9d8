from isinglab.lattice import corner_neighbors


def bulk_corners(dom):
    return sorted(c for c in dom.corners
                  if corner_neighbors(c)[0] in dom.vertices)
