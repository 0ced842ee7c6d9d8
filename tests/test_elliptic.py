import cmath
import math

import numpy as np
import pytest

from isinglab.elliptic import (
    EllipticError, _modulus_from_nome, _nome, constants, jacobi,
    rect_map, theta, theta1_prime0, wp, wp_invariants, wp_prime, wp_second,
)


def test_theta_basics():
    q = 0.37
    assert theta(1, 0.0, q) == 0
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = complex(rng.normal(), 0.4 * rng.normal())
        assert theta(1, -z, q) == pytest.approx(-theta(1, z, q), rel=1e-13)
    t2, t3, t4 = (theta(j, 0.0, q) for j in (2, 3, 4))
    assert t2 ** 4 + t4 ** 4 == pytest.approx(t3 ** 4, rel=1e-13)
    assert theta1_prime0(q) == pytest.approx(t2 * t3 * t4, rel=1e-13)
    with pytest.raises(EllipticError):
        theta(1, 0.0, 1.2)


@pytest.mark.parametrize("p", [math.log(2), 1.0, 3.0])
def test_wp_differential_equation(p):
    rng = np.random.default_rng(1)
    (e1, e2, e3), (g2, g3) = wp_invariants(p)
    assert e1 + e2 + e3 == pytest.approx(0.0, abs=1e-13)
    n = 0
    while n < 100:
        z = complex(rng.uniform(-p, p), rng.uniform(-math.pi, math.pi))
        try:
            w = wp(z, p)
            dw = wp_prime(z, p)
        except EllipticError:
            continue
        if abs(w) > 1e4:
            continue
        n += 1
        lhs = dw * dw
        rhs = 4 * w ** 3 - g2 * w - g3
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)
        assert wp(-z, p) == pytest.approx(w, rel=1e-12)
        assert wp_second(z, p) == pytest.approx(6 * w * w - g2 / 2, rel=1e-12)


def test_wp_laurent_normalization():
    p = math.log(2)
    d = cmath.exp(0.7j)
    vals = [abs(t * t * d * d * wp(t * d, p) - 1.0) for t in (1e-2, 1e-3, 1e-4)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-7


@pytest.mark.parametrize("p", [math.log(2), 2.0])
def test_jacobi_periodicity_table(p):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for kind, s2p, s2pi in (("ns", -1, 1), ("ds", -1, -1), ("cs", 1, -1)):
            f = jacobi(kind, z, p)
            worst = max(worst, abs(jacobi(kind, z + 2 * p, p) - s2p * f)
                        / max(1, abs(f)))
            worst = max(worst, abs(jacobi(kind, z + 2j * math.pi, p)
                                   - s2pi * f) / max(1, abs(f)))
    assert worst < 1e-12


def test_jacobi_residue_and_oddness():
    p = math.log(2)
    d = cmath.exp(0.35j)
    # Richardson extrapolated residue of ns at zero
    hs = [1e-2, 5e-3, 2.5e-3]
    vals = [h * d * jacobi("ns", h * d, p) for h in hs]
    r1 = [(4 * vals[i + 1] - vals[i]) / 3 for i in range(2)]
    extr = (16 * r1[1] - r1[0]) / 15
    assert abs(extr - 1.0) < 1e-10
    z = 0.4 + 0.3j
    assert jacobi("ns", -z, p) == pytest.approx(-jacobi("ns", z, p), rel=1e-13)
    with pytest.raises(EllipticError):
        jacobi("sn", z, p)
    for kind in ("ns", "ds", "cs"):
        with pytest.raises(EllipticError, match="pole"):
            jacobi(kind, 0, p)


@pytest.mark.parametrize("p", [0.0, -0.5, -3.0])
def test_nonpositive_modulus_rejected(p):
    with pytest.raises(EllipticError):
        jacobi("ns", 0.3 + 0.2j, p)
    with pytest.raises(EllipticError):
        _nome(p)


def test_modulus_self_consistency():
    # scipy's complete elliptic integrals are the independent reference
    from scipy.special import ellipk, ellipkm1
    for p in (math.log(2), 0.9, 2.5, 5.0):
        q = _nome(p)
        k, K = _modulus_from_nome(q)
        ratio = ellipkm1(k ** 2) / ellipk(k ** 2)
        assert abs(ratio - math.pi / p) < 1e-12
        assert 0 < q < 1


def test_self_dual_modulus_closed_form():
    # p = pi is the square period lattice: k = 1/sqrt(2) and
    # K = K' = Gamma(1/4)^2 / (4 sqrt(pi)) = 1.8540746773013719
    k, K = _modulus_from_nome(_nome(math.pi))
    want = math.gamma(0.25) ** 2 / (4 * math.sqrt(math.pi))
    assert k == pytest.approx(1 / math.sqrt(2), rel=1e-14, abs=0)
    assert K == pytest.approx(want, rel=1e-14, abs=0)


def test_rect_map_roundtrip_and_symmetry():
    rm = rect_map(1.0)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.1, 2.5))
        worst = max(worst, abs(rm.from_rect(rm.to_rect(z)) - z))
    assert worst < 1e-10
    mid = rm.to_rect(1j)
    assert mid.real == pytest.approx(0.5, abs=1e-12)
    # derivative positive on the real axis between the inner prevertices
    for x in (-0.7, 0.0, 0.7):
        assert rm.to_rect_deriv(x).real > 0
        assert abs(rm.to_rect_deriv(x).imag) < 1e-14
    w = rm.to_rect(0.3 + 0.7j)
    assert rm.to_rect_deriv(0.3 + 0.7j) == pytest.approx(
        1.0 / rm.from_rect_deriv(w), rel=1e-12)


def test_rect_map_aspect():
    rm = rect_map(0.5)
    # rectangle corners pull back to the prevertices
    assert rm.from_rect(1.0) == pytest.approx(1.0, abs=1e-12)
    assert rm.from_rect(0.0) == pytest.approx(-1.0, abs=1e-12)
    assert rm.from_rect(1.0 + 0.5j) == pytest.approx(1.0 / rm.k, rel=1e-10)
    # the centre of the bottom side, where theta_1 vanishes, is regular
    assert rm.from_rect(0.5) == 0
    assert rm.from_rect_deriv(0.5) == pytest.approx(2 * rm.K, rel=1e-14)


def test_constants():
    c = constants()
    assert c.C_eps == pytest.approx(c.C_psi ** 2, rel=1e-15)
    assert c.C_sigma == c.C_mu
    assert c.zeta_prime_minus1 == pytest.approx(-0.16542114370045092, abs=1e-13)
    assert c.cross_check < 1e-10
    assert c.C_psi == pytest.approx(math.sqrt(2 / math.pi), rel=1e-15)
