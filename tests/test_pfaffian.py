import numpy as np
import pytest

from isinglab.pfaffian import PfaffianError, assemble_multipoint, pf


def pf_recursive(a):
    """Reference: expansion along the first row, for small orders."""
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


def _random_skew(rng, n, complex_entries=False):
    m = rng.normal(size=(n, n))
    if complex_entries:
        m = m + 1j * rng.normal(size=(n, n))
    return m - m.T


def test_two_by_two_and_closed_form():
    a = np.array([[0.0, 3.5], [-3.5, 0.0]])
    assert pf(a) == pytest.approx(3.5)
    rng = np.random.default_rng(0)
    a = _random_skew(rng, 4)
    want = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
    assert pf(a) == pytest.approx(want, rel=1e-14)


def test_odd_order_is_zero():
    rng = np.random.default_rng(1)
    assert pf(_random_skew(rng, 5)) == 0


def test_pf_squared_is_det():
    rng = np.random.default_rng(2)
    for n in (2, 6, 10, 14):
        a = _random_skew(rng, n)
        assert pf(a) ** 2 == pytest.approx(np.linalg.det(a), rel=1e-9)
    a = _random_skew(rng, 10, complex_entries=True)
    assert pf(a) ** 2 == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_paths_agree_on_200_matrices():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7)) * 2
        a = _random_skew(rng, n)
        r = pf_recursive(a)
        t = pf(a)
        worst = max(worst, abs(r - t) / max(abs(r), 1e-300))
    assert worst < 1e-9


def test_congruence_rule():
    rng = np.random.default_rng(4)
    a = _random_skew(rng, 8)
    p = rng.normal(size=(8, 8))
    assert pf(p.T @ a @ p) == pytest.approx(np.linalg.det(p) * pf(a), rel=1e-10)
    perm = np.eye(8)[rng.permutation(8)]
    assert pf(perm.T @ a @ perm) == pytest.approx(
        np.linalg.det(perm) * pf(a), rel=1e-12)


def test_asymmetry_rejected():
    with pytest.raises(PfaffianError):
        pf(np.ones((4, 4)))


def test_assemble_multipoint():
    rng = np.random.default_rng(5)
    vals = {(i, j): complex(rng.normal(), rng.normal())
            for i in range(6) for j in range(i + 1, 6)}
    f = lambda i, j: vals[(i, j)]
    assert assemble_multipoint(f, 2) == pytest.approx(vals[(0, 1)])
    full = assemble_multipoint(f, 6)
    # swapping two insertions flips the sign
    swap = {0: 1, 1: 0}
    g = lambda i, j: (vals[tuple(sorted((swap.get(i, i), swap.get(j, j))))]
                      * (1 if swap.get(i, i) < swap.get(j, j) else -1))
    assert assemble_multipoint(g, 6) == pytest.approx(-full, rel=1e-12)
    with pytest.raises(PfaffianError):
        assemble_multipoint(f, 3)
