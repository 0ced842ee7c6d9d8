"""Pfaffians of antisymmetric matrices.

Two routes: Laplace-type recursive expansion along the first row for small
orders, and Parlett-Reid skew-tridiagonalization with partial pivoting for
larger ones.  Both are exposed for cross-checking; odd order gives zero.
"""

from __future__ import annotations

import numpy as np

_RECURSION_LIMIT = 8
_PIVOT_EPS = 1e-13


class PfaffianError(ValueError):
    pass


def _check_skew(a: np.ndarray, tol: float):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PfaffianError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a + a.T))) > tol * scale:
        raise PfaffianError("matrix is not antisymmetric within tolerance")


def pf_recursive(a: np.ndarray):
    n = a.shape[0]
    if n == 0:
        return a.dtype.type(1)
    if n % 2 == 1:
        return a.dtype.type(0)
    if n == 2:
        return a[0, 1]
    total = a.dtype.type(0)
    rest = list(range(1, n))
    for j in range(1, n):
        sign = (-1) ** (j - 1)
        sub = [k for k in rest if k != j]
        minor = a[np.ix_(sub, sub)]
        total = total + sign * a[0, j] * pf_recursive(minor)
    return total


def pf_parlett_reid(a: np.ndarray):
    """Skew-tridiagonalize by congruence with partial pivoting; the
    Pfaffian is the product of the odd superdiagonal entries times the
    permutation sign."""
    a = np.array(a, copy=True)
    n = a.shape[0]
    if n % 2 == 1:
        return a.dtype.type(0)
    if n == 0:
        return a.dtype.type(1)
    sign = 1
    value = a.dtype.type(1)
    scale = max(1.0, float(np.max(np.abs(a))))
    for k in range(0, n - 1, 2):
        col = np.abs(a[k + 1:, k])
        piv = int(np.argmax(col)) + k + 1
        if col.max() <= _PIVOT_EPS * scale:
            return a.dtype.type(0)
        if piv != k + 1:
            a[[k + 1, piv], :] = a[[piv, k + 1], :]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
            sign = -sign
        pivot = a[k, k + 1]
        value = value * pivot
        if k + 2 < n:
            tau = a[k, k + 2:] / pivot
            colv = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, colv)
            a[k + 2:, k + 2:] -= np.outer(colv, tau)
    return sign * value


def pf(a, tol: float = 1e-12):
    """Pfaffian of an antisymmetric matrix (recursive path for order <= 8,
    Parlett-Reid beyond)."""
    a = np.asarray(a)
    if a.size and not np.iscomplexobj(a):
        a = a.astype(float)
    _check_skew(a, tol)
    n = a.shape[0]
    if n % 2 == 1:
        return a.dtype.type(0)
    if n <= _RECURSION_LIMIT:
        return pf_recursive(a)
    return pf_parlett_reid(a)


def assemble_multipoint(pairs, k: int):
    """Pfaffian of the k x k table of pairwise values.

    pairs(i, j) is consulted for i < j only and extended antisymmetrically;
    diagonal entries are zeros.  k must be even.
    """
    if k % 2 == 1:
        raise PfaffianError("need an even number of insertions")
    if k == 0:
        return 1.0
    table = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(i + 1, k):
            v = complex(pairs(i, j))
            table[i, j] = v
            table[j, i] = -v
    return pf(table)
