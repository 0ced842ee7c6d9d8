"""Brute-force Ising sums on small rectangles, written from the lattice
geometry alone.

This module does not import isinglab.  It sums the Boltzmann weight over
every +-1 configuration of a width x height block of the square lattice at
the critical coupling, so it shares no code with `isinglab.exact` and can
guard a rewrite of the enumeration back end.

Vertices are lattice pairs (m, n) with 0 <= m < width, 0 <= n < height.
isinglab places (m, n) at the grid point (2(m - n), 2(m + n)); `to_grid`
and `from_grid` convert between the two.
"""

from __future__ import annotations

import math

import numpy as np

BETA_CRIT = 0.5 * math.log(math.sqrt(2.0) + 1.0)

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def to_grid(mn):
    m, n = mn
    return (2 * (m - n), 2 * (m + n))


def from_grid(xy):
    x, y = xy
    return ((x + y) // 4, (y - x) // 4)


class Rectangle:
    """All configurations of a width x height block and its edge lists."""

    def __init__(self, width: int, height: int, beta: float = BETA_CRIT):
        self.beta = beta
        self.verts = [(m, n) for m in range(width) for n in range(height)]
        index = {v: i for i, v in enumerate(self.verts)}
        self.index = index
        self.inner = []      # (i, j) pairs of neighbouring block vertices
        self.outer = []      # (i, (m, n) of the neighbour outside the block)
        for v, i in index.items():
            for dm, dn in _STEPS:
                w = (v[0] + dm, v[1] + dn)
                if w in index:
                    if index[w] > i:
                        self.inner.append((i, index[w]))
                else:
                    self.outer.append((i, w))
        n = len(self.verts)
        codes = np.arange(1 << n, dtype=np.int64)
        bits = (codes[:, None] >> np.arange(n, dtype=np.int64)) & 1
        self.spins = (1 - 2 * bits).astype(np.int64)
        s = self.spins
        self.bulk_energy = sum(s[:, i] * s[:, j] for i, j in self.inner)
        self.boundary_field = sum(s[:, i] for i, _ in self.outer)

    def _product(self, vertices):
        out = np.ones(len(self.spins), dtype=np.int64)
        for v in vertices:
            out = out * self.spins[:, self.index[v]]
        return out

    def wired_weights(self):
        """Weights with every outer neighbour tied to one shared boundary
        spin, summed over both values of that spin."""
        b = self.beta
        return (np.exp(b * (self.bulk_energy + self.boundary_field))
                + np.exp(b * (self.bulk_energy - self.boundary_field)))

    def pinned_weights(self, label):
        """Weights with each outer neighbour frozen to label(m, n) = +-1."""
        field = sum(label(w) * self.spins[:, i] for i, w in self.outer)
        return np.exp(self.beta * (self.bulk_energy + field))

    def partition_function(self) -> float:
        return float(self.wired_weights().sum())

    def corr_spin(self, vertices) -> float:
        """E[prod sigma_v] under the wired boundary condition."""
        w = self.wired_weights()
        return float(np.dot(w, self._product(vertices)) / w.sum())

    def corr_pinned(self, label, vertices) -> float:
        w = self.pinned_weights(label)
        return float(np.dot(w, self._product(vertices)) / w.sum())
