"""Elliptic special functions for the annulus formulas.

Jacobi theta series, Weierstrass functions with half-periods (p, i pi),
the annulus-normalized Jacobi functions ns/ds/cs with pole lattice
2p Z + 2 pi i Z and residue one at the origin, the half-plane-to-rectangle
conformal map, and the lattice normalization constants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class EllipticError(ValueError):
    pass


# -- theta functions ----------------------------------------------------------


def theta(j: int, z: complex, q: complex) -> complex:
    """Jacobi theta_j(z, q), j in 1..4, truncated when terms fall below
    1e-16 relative to the running partial sum."""
    if abs(q) >= 1:
        raise EllipticError("nome must satisfy |q| < 1")
    z = complex(z)
    total = 0j
    if j in (1, 2):
        for n in range(0, 400):
            qq = q ** ((n + 0.5) ** 2)
            trig = cmath.sin((2 * n + 1) * z) if j == 1 else cmath.cos((2 * n + 1) * z)
            term = 2 * qq * trig * ((-1) ** n if j == 1 else 1)
            total += term
            if n > 2 and abs(term) < 1e-16 * max(1.0, abs(total)):
                return total
        raise EllipticError("theta series did not converge")
    if j in (3, 4):
        total = 1 + 0j
        for n in range(1, 400):
            term = 2 * q ** (n * n) * cmath.cos(2 * n * z)
            if j == 4:
                term *= (-1) ** n
            total += term
            if n > 2 and abs(term) < 1e-16 * max(1.0, abs(total)):
                return total
        raise EllipticError("theta series did not converge")
    raise EllipticError("theta index must be 1..4")


def theta1_prime0(q: complex) -> complex:
    total = 0j
    for n in range(0, 400):
        term = 2 * (-1) ** n * (2 * n + 1) * q ** ((n + 0.5) ** 2)
        total += term
        if n > 2 and abs(term) < 1e-16 * max(1.0, abs(total)):
            return total
    raise EllipticError("theta series did not converge")


@lru_cache(maxsize=64)
def _theta_constants(q: float) -> tuple[float, float, float]:
    """theta_2, theta_3 and theta_4 at zero for the real nome q."""
    return tuple(theta(j, 0.0, q).real for j in (2, 3, 4))


def _nome(p: float) -> float:
    """The nome exp(-pi^2 / p) of the annulus of modulus p."""
    if p <= 0:
        raise EllipticError("annulus modulus must be positive")
    return math.exp(-math.pi ** 2 / p)


def _modulus_from_nome(q: float) -> tuple[float, float]:
    """The modulus k and the quarter-period K of the real nome q."""
    t2, t3, _ = _theta_constants(q)
    return (t2 / t3) ** 2, math.pi / 2 * t3 * t3


def _sn_cn_dn(zeta: complex, q: float):
    """sn, cn and dn as theta quotients at zeta = u / theta_3(0)^2."""
    t2, t3, t4 = _theta_constants(q)
    th1, th2, th3, th4 = (theta(i, zeta, q) for i in (1, 2, 3, 4))
    sn = (t3 / t2) * th1 / th4
    cn = (t4 / t2) * th2 / th4
    dn = (t4 / t3) * th3 / th4
    return sn, cn, dn


# -- Weierstrass functions with half-periods (p, i pi) -----------------------


@lru_cache(maxsize=64)
def _wp_setup(p: float):
    q = _nome(p)
    t2, t3, t4 = _theta_constants(q)
    pref = (math.pi / (2 * p)) ** 2
    e1 = pref * (t3 ** 4 + t4 ** 4) / 3
    e2 = pref * (t2 ** 4 - t4 ** 4) / 3
    e3 = -pref * (t2 ** 4 + t3 ** 4) / 3
    g2 = 2 * (e1 * e1 + e2 * e2 + e3 * e3)
    g3 = 4 * e1 * e2 * e3
    t1p = theta1_prime0(q).real
    return q, (t2, t3, t4, t1p), (e1, e2, e3), (g2, g3)


def wp(z: complex, p: float) -> complex:
    """Weierstrass elliptic function with half-periods p and i pi."""
    q, (t2, t3, t4, t1p), (e1, _, _), _ = _wp_setup(p)
    u = math.pi * complex(z) / (2 * p)
    th1 = theta(1, u, q)
    if abs(th1) < 1e-300:
        raise EllipticError("evaluation at a lattice point")
    th2 = theta(2, u, q)
    return e1 + (math.pi / (2 * p)) ** 2 * (t1p * th2 / (t2 * th1)) ** 2


def wp_prime(z: complex, p: float) -> complex:
    q, (t2, t3, t4, t1p), _, _ = _wp_setup(p)
    u = math.pi * complex(z) / (2 * p)
    th1 = theta(1, u, q)
    if abs(th1) < 1e-300:
        raise EllipticError("evaluation at a lattice point")
    num = theta(2, u, q) * theta(3, u, q) * theta(4, u, q)
    return -2 * (math.pi / (2 * p)) ** 3 * t1p ** 2 * num / th1 ** 3


def wp_second(z: complex, p: float) -> complex:
    """Second derivative through the differential equation."""
    _, _, _, (g2, _) = _wp_setup(p)
    w = wp(z, p)
    return 6 * w * w - g2 / 2


def wp_invariants(p: float):
    _, _, (e1, e2, e3), (g2, g3) = _wp_setup(p)
    return (e1, e2, e3), (g2, g3)


# -- annulus-normalized Jacobi functions --------------------------------------


def jacobi(kind: str, z: complex, p: float) -> complex:
    """ns, ds or cs with simple poles of residue one on 2p Z + 2 pi i Z.

    Realized as argument-scaled classical Jacobi functions; the
    (anti)periodicity table is

        ns(z + 2p) = -ns(z)   ns(z + 2 pi i) = ns(z)
        ds(z + 2p) = -ds(z)   ds(z + 2 pi i) = -ds(z)
        cs(z + 2p) = cs(z)    cs(z + 2 pi i) = -cs(z)
    """
    q = _nome(p)
    sn, cn, dn = _sn_cn_dn(math.pi * complex(z) / (2 * p), q)
    if abs(sn) < 1e-300:
        raise EllipticError("evaluation at a pole")
    _, K = _modulus_from_nome(q)
    scale = K / p
    if kind == "ns":
        return scale / sn
    if kind == "ds":
        return scale * dn / sn
    if kind == "cs":
        return scale * cn / sn
    raise EllipticError(f"unknown Jacobi kind {kind!r}")


# -- rectangle map -------------------------------------------------------------


@dataclass(frozen=True)
class RectangleMap:
    """Conformal map between the upper half-plane and [0,1] x [0, aspect].

    to_rect integrates the half-plane Schwarz-Christoffel differential
    numerically; from_rect inverts it in closed form through sn.  The
    prevertices are -1/k, -1, 1, 1/k on the real line.
    """

    aspect: float
    k: float
    K: float
    nome: float

    @classmethod
    def build(cls, aspect: float) -> "RectangleMap":
        if aspect <= 0:
            raise EllipticError("aspect must be positive")
        q = math.exp(-2 * math.pi * aspect)
        return cls(aspect, *_modulus_from_nome(q), q)

    def _dF(self, t: np.ndarray) -> np.ndarray:
        return 1.0 / np.sqrt((1 - t * t) * (1 - (self.k * t) ** 2))

    def to_rect(self, z: complex) -> complex:
        """Map a half-plane point into the rectangle.

        The integration path detours through the upper half-plane to stay
        clear of the prevertices on the real line.
        """
        z = complex(z)
        lift = 1j * max(1.0, abs(z))
        segments = [(0j, lift), (lift, z)] if z.imag < 1.0 else [(0j, z)]
        prev = None
        for n_nodes in (32, 64, 128, 256, 512):
            x, w = np.polynomial.legendre.leggauss(n_nodes)
            val = 0j
            for a, b in segments:
                t = a + (x + 1) / 2 * (b - a)
                val += complex(np.sum(w * self._dF(t)) * (b - a) / 2)
            if prev is not None and abs(val - prev) < 1e-13 * max(1.0, abs(val)):
                break
            prev = val
        return (val + self.K) / (2 * self.K)

    def to_rect_deriv(self, z: complex) -> complex:
        z = complex(z)
        return 1.0 / (2 * self.K * cmath.sqrt((1 - z * z) * (1 - (self.k * z) ** 2)))

    def _sn_cn_dn_at(self, w: complex):
        """sn, cn and dn at u = 2K w - K, which takes the rectangle onto the
        half-plane through sn."""
        u = 2 * self.K * complex(w) - self.K
        t3 = _theta_constants(self.nome)[1]
        return _sn_cn_dn(u / (t3 * t3), self.nome)

    def from_rect(self, w: complex) -> complex:
        return self._sn_cn_dn_at(w)[0]

    def from_rect_deriv(self, w: complex) -> complex:
        _, cn, dn = self._sn_cn_dn_at(w)
        return 2 * self.K * cn * dn


def rect_map(aspect: float) -> RectangleMap:
    return RectangleMap.build(aspect)


# -- lattice constants ---------------------------------------------------------


@dataclass(frozen=True)
class LatticeConstants:
    C_psi: float
    C_eps: float
    C_sigma: float
    C_mu: float
    zeta_prime_minus1: float
    cross_check: float  # |route1 - route2| for zeta'(-1)


def _zeta_prime2(n_terms: int = 400_000) -> float:
    """zeta'(2) = -sum log(n)/n^2 with Euler-Maclaurin tail corrections."""
    n = np.arange(2, n_terms, dtype=float)
    head = -float(np.sum(np.log(n) / n ** 2))
    N = float(n_terms)
    ln = math.log(N)
    tail = -((ln + 1) / N + 0.5 * ln / N ** 2 - (1 - 2 * ln) / (12 * N ** 3))
    return head + tail


def _zeta_prime_minus1_functional() -> float:
    gamma = np.euler_gamma
    z2 = math.pi ** 2 / 6
    return (-1.0 / 12.0) * (math.log(2 * math.pi) + gamma - 1 - _zeta_prime2() / z2)


def _zeta_prime_minus1_glaisher() -> float:
    """Through the constant in the expansion of sum k log k.

    Small n with explicit Euler-Maclaurin corrections keeps the
    cancellation error below the truncation level; one Richardson step
    removes the leading n^-6 remainder.
    """
    import math as m

    def corrected(n: int) -> float:
        s = m.fsum(k * m.log(k) for k in range(1, n + 1))
        c = s - (n * n / 2 + n / 2 + 1.0 / 12.0) * m.log(n) + n * n / 4
        return c - 1.0 / (720.0 * n * n) + 1.0 / (5040.0 * n ** 4)
    a1, a2 = corrected(100), corrected(200)
    log_a = (64 * a2 - a1) / 63
    return 1.0 / 12.0 - log_a


def constants() -> LatticeConstants:
    z1 = _zeta_prime_minus1_functional()
    z2 = _zeta_prime_minus1_glaisher()
    c_psi = math.sqrt(2 / math.pi)
    c_sigma = 2 ** (1 / 6) * math.exp(1.5 * z1)
    return LatticeConstants(
        C_psi=c_psi,
        C_eps=2 / math.pi,
        C_sigma=c_sigma,
        C_mu=c_sigma,
        zeta_prime_minus1=z1,
        cross_check=abs(z1 - z2),
    )
