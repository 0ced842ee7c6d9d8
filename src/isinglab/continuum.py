"""Continuum correlation functions: half-plane and annulus closed forms,
Pfaffian assembly of fermion correlators, conformal covariance transport,
and the operator-product extraction harness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import jacobi, wp, wp_prime, wp_second
from .pfaffian import assemble_multipoint

SPIN_WEIGHT = 0.125
ENERGY_WEIGHT = 1.0
FERMION_WEIGHT = 0.5
K_SPIN = 2.0 ** -0.75


class ContinuumError(ValueError):
    pass


# -- operator content ----------------------------------------------------------


@dataclass(frozen=True)
class Fermion:
    z: complex
    kind: str = "holo"          # holo | antiholo | eta | flat
    eta: complex | None = None


@dataclass(frozen=True)
class OperatorContent:
    """Ordered field insertions; fermions anticommute among themselves."""

    spins: tuple = ()
    disorders: tuple = ()
    energies: tuple = ()
    fermions: tuple = ()

    def conjugated(self) -> "OperatorContent":
        swap = {"holo": "antiholo", "antiholo": "holo"}
        ferms = tuple(
            replace(f, kind=swap.get(f.kind, f.kind)) for f in self.fermions)
        return replace(self, fermions=ferms)


@dataclass(frozen=True)
class HalfPlaneBC:
    """Free arcs on the real line given by endpoints b_1 < ... < b_2q;
    infinity is wired.  fixed_is_plus pins the wired arcs to plus."""

    free_endpoints: tuple = ()
    fixed_is_plus: bool = False

    def __post_init__(self):
        b = self.free_endpoints
        if len(b) % 2 != 0:
            raise ContinuumError("free arcs need an even number of endpoints")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ContinuumError("free-arc endpoints must be increasing")

    @property
    def q(self) -> int:
        return len(self.free_endpoints) // 2


@dataclass(frozen=True)
class AnnulusBC:
    """Boundary labels of the annulus e^-p < |z| < 1, outer label first."""

    p: float
    outer: str = "wired"
    inner: str = "wired"

    def __post_init__(self):
        if self.p <= 0:
            raise ContinuumError("annulus modulus must be positive")
        labels = (self.outer, self.inner)
        if set(labels) - {"wired", "free", "plus", "minus"}:
            raise ContinuumError(f"unknown annulus labels {labels}")


# -- half-plane sign sums -------------------------------------------------------


def hp_pairs(bc: HalfPlaneBC, spins=(), disorders=()):
    """The (a_i, a_i-hat) list: arc pairs, spin conjugate pairs, disorder
    conjugate pairs, in this order."""
    pairs = []
    b = bc.free_endpoints
    for i in range(bc.q):
        pairs.append((complex(b[2 * i]), complex(b[2 * i + 1])))
    for v in (*spins, *disorders):
        v = complex(v)
        if v.imag <= 0:
            raise ContinuumError("bulk points must be in the open half-plane")
        pairs.append((v, v.conjugate()))
    return pairs


def chi(i: int, j: int, pairs) -> complex:
    a_i, ah_i = pairs[i]
    a_j, ah_j = pairs[j]
    num = (a_i - a_j) * (ah_i - ah_j)
    den = (a_i - ah_j) * (ah_i - a_j)
    if den == 0:
        raise ContinuumError("coincident marked points")
    return num / den


def _sign_sum(logs: np.ndarray, signed_tail: int = 0) -> float:
    """sum over s in {+-1}^N of prod chi^{s_i s_j / 4}, with an optional
    product of the last signed_tail coordinates as a sign factor."""
    n = logs.shape[0]
    if n == 0:
        return 1.0
    signs = np.array(
        [[1 - 2 * ((m >> i) & 1) for i in range(n)] for m in range(1 << n)],
        dtype=float)
    quad = 0.5 * np.einsum("mi,ij,mj->m", signs, logs, signs)
    vals = np.exp(quad)
    if signed_tail:
        vals = vals * np.prod(signs[:, n - signed_tail:], axis=1)
    total = complex(np.sum(vals))
    if abs(total.imag) > 1e-9 * max(1.0, abs(total)):
        raise ContinuumError(f"sign sum is not real: {total}")
    return total.real


def _chi_logs(pairs, n_arcs: int) -> np.ndarray:
    """Quarter-logs of the cross-ratios with canonical branches.

    Same-type pairs have positive real cross-ratios (principal log); for an
    arc against a bulk point the cross-ratio is unimodular with argument
    2 pi times the harmonic measure of the arc, which fixes the branch in a
    Moebius-invariant way and vanishes continuously at the wired boundary.
    """
    n = len(pairs)
    logs = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            mixed = (i < n_arcs) != (j < n_arcs)
            if mixed:
                arc, bulk = (i, j) if i < n_arcs else (j, i)
                b1, b2 = pairs[arc]
                w = pairs[bulk][0]
                hm = (cmath.phase(b2 - w) - cmath.phase(b1 - w)) / math.pi
                val = 1j * math.pi * hm / 2.0
            else:
                x = chi(i, j, pairs)
                if abs(x.imag) > 1e-9 * abs(x) or x.real <= 0:
                    raise ContinuumError(
                        f"same-type cross-ratio not positive: {x}")
                val = math.log(x.real) / 4.0
            logs[i, j] = val
            logs[j, i] = val
    return logs


def hp_spin(bc: HalfPlaneBC, spins) -> float:
    """Half-plane spin correlation; odd counts need plus wired arcs."""
    return hp_spin_disorder(bc, spins, ())


def hp_spin_disorder(bc: HalfPlaneBC, spins, disorders):
    """Mixed spin-disorder correlation in the half-plane.

    With disorders present, the square root is taken of the sign-weighted
    sum with its leading minus.
    """
    spins = [complex(v) for v in spins]
    disorders = [complex(u) for u in disorders]
    n, m = len(spins), len(disorders)
    pairs = hp_pairs(bc, spins, disorders)
    if m == 0 and n % 2 == 1 and not bc.fixed_is_plus:
        return 0.0
    logs = _chi_logs(pairs, bc.q)
    q = bc.q
    num = _sign_sum(logs, signed_tail=m)
    den = _sign_sum(logs[:q, :q])
    sign = -1 if m else 1
    radicand = sign * K_SPIN ** (n + m) * num / den
    if radicand < 0:
        raise ContinuumError("negative radicand: branch misconfiguration")
    pref = math.prod((w.imag) ** -SPIN_WEIGHT for w in spins + disorders)
    return pref * math.sqrt(radicand)


# -- half-plane fermion kernels -------------------------------------------------


def hp_fermion(case: str, z1: complex, z2: complex, kind: str = "f",
               v: complex | None = None, arc: tuple | None = None) -> complex:
    """Two-point fermion kernels in the half-plane.

    case: "wired" (all-wired boundary), "spin" (wired with one ramification
    point v) or "free_arc" (one free interval arc=(b1, b2)).
    kind: "f" or "fstar".
    """
    z1, z2 = complex(z1), complex(z2)
    if kind not in ("f", "fstar"):
        raise ContinuumError(f"unknown kernel kind {kind!r}")
    # the starred kernel is the unstarred one at the conjugated first point;
    # on the factored branches below it needs no extra sign (the section is
    # fixed against the lattice solver)
    w1 = z1 if kind == "f" else z1.conjugate()
    if case == "wired":
        return 2.0 / (z2 - w1)
    if case == "spin":
        if v is None:
            raise ContinuumError("spin case needs the ramification point")
        b1, b2 = complex(v), complex(v).conjugate()
    elif case == "free_arc":
        if arc is None:
            raise ContinuumError("free_arc case needs the interval")
        b1, b2 = (complex(a) for a in arc)
    else:
        raise ContinuumError(f"unknown half-plane case {case!r}")
    # the kernel ramified at b1 and b2: its factored square roots stay on
    # one branch over each half-plane, so the spinor cut of the spin case
    # runs straight below v
    r = cmath.sqrt((w1 - b1) / (w1 - b2)) * cmath.sqrt(
        (z2 - b2) / (z2 - b1))
    return (r + 1.0 / r) / (z2 - w1)


# -- annulus formulas ------------------------------------------------------------

# The annulus labels plus and minus fix the boundary spin; wired sums over
# it, and free carries none.
_FIXED_SIGN = {"plus": 1, "minus": -1}


def _real_root8(x: float, power: float) -> float:
    """x^power for the positive representative (the closed forms fix signs
    only up to the eighth-root convention; magnitudes are asserted)."""
    if x == 0:
        raise ContinuumError("vanishing radicand")
    return abs(x) ** power


# The annulus one-point closed forms are normalized through the
# conformal-radius boundary-spin chain (their boundary limit reproduces the
# boundary-spin pair below exactly).  The bulk-coherent normalization that
# pairs with the lattice constant differs by the exact factor
#     2^(1/4) = (plus-boundary half-plane one-point) / (crad-normalized one),
# computable from the half-plane closed forms; the boundary-spin pair is a
# partition-function ratio and carries no factor.
BOUNDARY_SPIN_MATCH = 2.0 ** 0.25


def ann_sigma_coherent(bc: "AnnulusBC", v: complex) -> float:
    """Annulus magnetization in the bulk-coherent normalization (the one
    multiplying the lattice constant in scaling-limit statements)."""
    return BOUNDARY_SPIN_MATCH * ann_sigma(bc, v)


def ann_sigma_inout(p: float) -> float:
    """Correlation of the two boundary spins under wired/wired conditions."""
    a = wp_second(1j * math.pi, p)
    b = wp_second(p + 1j * math.pi, p)
    _assert_real(a, "wp'' at the imaginary half-period")
    _assert_real(b, "wp'' at the sum half-period")
    return _real_root8(b.real / a.real, 0.125)


def _assert_real(x: complex, what: str, tol: float = 1e-9):
    if abs(x.imag) > tol * max(1.0, abs(x)):
        raise ContinuumError(f"{what} is not real: {x}")


def ann_sigma(bc: AnnulusBC, v: complex) -> float:
    """One-point magnetization in the annulus e^-p < |z| < 1."""
    p = bc.p
    v = complex(v)
    r = abs(v)
    if not (math.exp(-p) < r < 1.0):
        raise ContinuumError("point outside the annulus")
    outer, inner = bc.outer, bc.inner
    if outer == inner == "wired":
        raise ContinuumError(f"unsupported annulus labels {(outer, inner)}")
    if inner in _FIXED_SIGN:
        if outer in _FIXED_SIGN:
            a = _magn_layer(math.log(r), p, shifted=True)
            b = _magn_layer(-p - math.log(r), p, shifted=True, radius=r)
            s = ann_sigma_inout(p)
            if inner != outer:
                val = (a - b) / (1.0 - s)
            else:
                val = (a + b) / (1.0 + s)
        else:
            val = _magn_layer(math.log(r), p, shifted=outer == "wired")
        return _FIXED_SIGN[inner] * val
    if outer in _FIXED_SIGN:
        # invert the annulus to swap the circles: z -> e^-p / z
        w = math.exp(-p) / r
        jac = (math.exp(-p) / r ** 2) ** SPIN_WEIGHT
        return jac * ann_sigma(AnnulusBC(p, inner, outer), w)
    return 0.0


def _magn_layer(x: float, p: float, shifted: bool,
                radius: float | None = None) -> float:
    """(2 r wp'(x [+ i pi]) / wp''(p [+ i pi]))^(-1/8), r = e^x unless the
    mirrored radius factor is passed explicitly."""
    arg = x + (1j * math.pi if shifted else 0.0)
    per = p + (1j * math.pi if shifted else 0.0)
    num = wp_prime(arg, p)
    den = wp_second(per, p)
    _assert_real(num, "wp' on the symmetry line")
    _assert_real(den, "wp'' at the half-period")
    r = math.exp(x) if radius is None else radius
    ratio = 2.0 * r * num.real / den.real
    return _real_root8(ratio, -0.125)


def ann_fermion(bc: AnnulusBC, z: complex, w: complex, kind: str = "f",
                with_spins: bool = False) -> complex:
    """Two-point fermion kernels in the annulus.

    wired/wired pairs use ds, wired/free cs; with_spins divides out the
    boundary-spin pair insertion and uses ns.  kind "f" is the unstarred
    kernel in log(z/w), "fstar" the starred one in log(z conj(w)).
    """
    p = bc.p
    z, w = complex(z), complex(w)
    labels = (bc.outer, bc.inner)
    if kind not in ("f", "fstar"):
        raise ContinuumError(f"unknown kernel kind {kind!r}")
    if with_spins:
        if "free" in labels:
            raise ContinuumError("the boundary-spin pair needs two fixed "
                                 f"circles, got {labels}")
        fun = "ns"
    elif labels == ("wired", "wired"):
        fun = "ds"
    elif labels in (("wired", "free"), ("free", "wired")):
        fun = "cs"
    else:
        raise ContinuumError(f"unsupported annulus fermion labels {labels}")
    if labels == ("free", "wired"):
        # swap circles by inversion; the kernels transform with weight 1/2,
        # the starred one antiholomorphically in its first point
        zi, wi = math.exp(-p) / z, math.exp(-p) / w
        sz = cmath.sqrt(-math.exp(-p) / z ** 2)
        sw = cmath.sqrt(-math.exp(-p) / w ** 2)
        if kind == "fstar":
            sz = sz.conjugate()
        sub = AnnulusBC(p, "wired", "free")
        return ann_fermion(sub, zi, wi, kind, with_spins) * sz * sw
    if kind == "f":
        return 2.0 / cmath.sqrt(z * w) * jacobi(fun, cmath.log(z / w), p)
    zw = z * w.conjugate()
    return 2.0j / cmath.sqrt(zw) * jacobi(fun, cmath.log(zw), p)


def ann_energy_onepoint(bc: AnnulusBC, e: complex) -> float:
    """One-point energy density in the annulus.

    Assembled from the starred kernel at coincident points (factor i/2);
    the plus/plus and plus/minus cases mix in the boundary-spin pair.
    """
    p = bc.p
    e = complex(e)
    r = abs(e)
    if not (math.exp(-p) < r < 1.0):
        raise ContinuumError("point outside the annulus")
    x = 2.0 * math.log(r)
    outer, inner = bc.outer, bc.inner
    spin_labels = ("plus", "minus", "wired")
    if outer in spin_labels and inner == "free":
        val = -jacobi("cs", x, p) / r
        return float(_real_of(val))
    if outer == "free" and inner in spin_labels:
        jac = math.exp(-p) / r ** 2
        flipped = AnnulusBC(p, outer="plus", inner="free")
        return jac * ann_energy_onepoint(flipped, math.exp(-p) / r)
    if outer == inner == "wired":
        return -_real_of(jacobi("ds", x, p)) / r
    if outer in _FIXED_SIGN and inner in _FIXED_SIGN:
        ds_v = _real_of(jacobi("ds", x, p))
        s = ann_sigma_inout(p)
        ns_v = _real_of(jacobi("ns", x, p))
        if outer != inner:
            return (-ds_v + ns_v * s) / (r * (1.0 - s))
        return (-ds_v - ns_v * s) / (r * (1.0 + s))
    raise ContinuumError(f"unsupported annulus labels {(outer, inner)}")


def _real_of(x: complex, tol: float = 1e-9) -> float:
    _assert_real(x, "annulus kernel value", tol)
    return x.real


def ann_sle_partition(b1: complex, b2: complex, p: float,
                      inner: str = "free") -> float:
    """Interface partition functions for a plus/minus split of the outer
    circle at b1, b2, with free or plus inner circle."""
    b1, b2 = complex(b1), complex(b2)
    if abs(abs(b1) - 1) > 1e-12 or abs(abs(b2) - 1) > 1e-12:
        raise ContinuumError("marked points must lie on the unit circle")
    if b1 == b2:
        raise ContinuumError("marked points must be distinct")
    lg = cmath.log(b1 / b2)
    pref = 2.0 / cmath.sqrt(b1 * b2)
    if inner == "free":
        return abs(pref * jacobi("cs", lg, p))
    if inner == "plus":
        s = ann_sigma_inout(p)
        return 0.5 * abs(pref * jacobi("ns", lg, p) * s
                         + pref * jacobi("ds", lg, p))
    raise ContinuumError("inner label must be 'free' or 'plus'")


# -- Pfaffian assembly ------------------------------------------------------------


def pfaffian_correlator(two_point, content: OperatorContent):
    """Fermion-sector factor of a correlation: the Pfaffian of the pairwise
    table over all fermion insertions, energies inserted as coincident
    holo/antiholo pairs with the (i/2)^s prefactor.

    two_point(fa, fb) must return the correlator of two Fermion insertions
    (antisymmetric in its arguments).
    """
    ferms = list(content.fermions)
    for e in content.energies:
        ferms.append(Fermion(complex(e), "holo"))
        ferms.append(Fermion(complex(e), "antiholo"))
    k = len(ferms)
    if (k + len(content.disorders)) % 2 == 1:
        return 0.0
    if k == 0:
        return 1.0
    val = assemble_multipoint(lambda i, j: two_point(ferms[i], ferms[j]), k)
    return (0.5j) ** len(content.energies) * val


def hp_two_point(case: str, **case_kw):
    """Provider of half-plane fermion pair correlators for the assembly."""

    def pair(fa: Fermion, fb: Fermion) -> complex:
        ka, kb = fa.kind, fb.kind
        if ka == "eta" or kb == "eta":
            # psi^eta = (conj(eta) psi + eta psi*) / 2
            total = 0j
            for sa, wa in _eta_split(fa):
                for sb, wb in _eta_split(fb):
                    total += wa * wb * pair(replace(fa, kind=sa, eta=None),
                                            replace(fb, kind=sb, eta=None))
            return total
        if (ka, kb) == ("holo", "holo"):
            return hp_fermion(case, fb.z, fa.z, "f", **case_kw)
        if (ka, kb) == ("holo", "antiholo"):
            return hp_fermion(case, fb.z, fa.z, "fstar", **case_kw)
        if (ka, kb) == ("antiholo", "holo"):
            return -hp_fermion(case, fa.z, fb.z, "fstar", **case_kw)
        if (ka, kb) == ("antiholo", "antiholo"):
            return hp_fermion(case, fb.z, fa.z, "f", **case_kw).conjugate()
        raise ContinuumError(f"unsupported kinds {(ka, kb)}")

    return pair


def _eta_split(f: Fermion):
    if f.kind != "eta":
        return [(f.kind, 1.0)]
    if f.eta is None:
        raise ContinuumError("eta fermion needs its eta value")
    return [("holo", f.eta.conjugate() / 2), ("antiholo", f.eta / 2)]


# -- conformal covariance transport -----------------------------------------------


def covariance_factor(content: OperatorContent, dphi) -> complex:
    """Multiplicative factor relating a correlation to its image: the value
    in the source domain equals factor times the value at the images.

    dphi(z) is the derivative of the map at a marked point.  Flat fermions
    carry weight zero; eta fermions transform through their eta label, not
    here.
    """
    fac: complex = 1.0
    for v in (*content.spins, *content.disorders):
        fac *= abs(dphi(complex(v))) ** SPIN_WEIGHT
    for e in content.energies:
        fac *= abs(dphi(complex(e))) ** ENERGY_WEIGHT
    for f in content.fermions:
        if f.kind == "holo":
            fac *= dphi(f.z) ** FERMION_WEIGHT
        elif f.kind == "antiholo":
            fac *= (dphi(f.z).conjugate()) ** FERMION_WEIGHT
        elif f.kind not in ("flat", "eta"):
            raise ContinuumError(f"no covariance rule for kind {f.kind!r}")
    return fac


def transport(value: complex, content: OperatorContent, phi, dphi):
    """Push a correlation value through a conformal map.

    Returns (image content, image value) with image value = value / factor;
    eta labels transform as eta -> conj(dphi)^(1/2) eta.
    """
    fac = covariance_factor(content, dphi)
    new_ferms = []
    for f in content.fermions:
        z2 = phi(f.z)
        if f.kind == "eta":
            eta2 = cmath.sqrt(dphi(f.z)).conjugate() * f.eta
            new_ferms.append(Fermion(z2, "eta", eta2))
        else:
            new_ferms.append(Fermion(z2, f.kind, None))
    mapped = OperatorContent(
        spins=tuple(phi(complex(v)) for v in content.spins),
        disorders=tuple(phi(complex(u)) for u in content.disorders),
        energies=tuple(phi(complex(e)) for e in content.energies),
        fermions=tuple(new_ferms),
    )
    return mapped, value / fac


def dobrushin_onepoint(plus_arc: tuple, v: complex,
                       complement: bool = False) -> float:
    """One-point function with a plus arc (a, b) on the real line and minus
    on the complement: -cos(pi hm) / crad^(1/8), crad = 2 Im v."""
    a, b = plus_arc
    v = complex(v)
    if v.imag <= 0:
        raise ContinuumError("point must be in the open half-plane")
    hm = (cmath.phase(v - b) - cmath.phase(v - a)) / math.pi
    if complement:
        hm = 1.0 - hm
    return -math.cos(math.pi * hm) * (2 * v.imag) ** -SPIN_WEIGHT


# -- fusion extraction --------------------------------------------------------------


@dataclass
class FusionFit:
    exponent: float
    exponent_err: float
    coefficient: float
    coefficient_err: float
    leading: complex


def fusion_extract(evaluator, separations, exponent: float | None = None,
                   leading: complex | None = None) -> FusionFit:
    """Leading exponent and first correction coefficient of evaluator(h).

    evaluator(h) ~ h^alpha (c0 + c1 h + o(h)) along the decreasing ladder of
    separations; the exponent comes from Richardson-extrapolated log-log
    slopes, the coefficient from extrapolated finite differences of the
    rescaled values.  Known exponent/leading values can be pinned.
    """
    h = np.asarray([float(x) for x in separations])
    if np.any(np.diff(h) >= 0):
        raise ContinuumError("separations must decrease")
    ratio = h[1] / h[0]
    if not np.allclose(np.diff(np.log(h)), math.log(ratio), rtol=1e-8):
        raise ContinuumError("separations must be geometric")
    vals = np.asarray([complex(evaluator(x)) for x in h])
    mags = np.abs(vals)
    slopes = np.diff(np.log(mags)) / np.diff(np.log(h))
    if len(slopes) >= 2:
        extr = (slopes[1:] - ratio * slopes[:-1]) / (1 - ratio)
        alpha_fit = float(extr[-1])
        alpha_err = float(abs(extr[-1] - extr[-2])) if len(extr) >= 2 \
            else float(abs(slopes[-1] - alpha_fit))
    else:
        alpha_fit, alpha_err = float(slopes[-1]), float("nan")
    alpha = alpha_fit if exponent is None else float(exponent)
    resc = vals / h ** alpha
    c0 = leading
    if c0 is None:
        ext = (resc[1:] - ratio * resc[:-1]) / (1 - ratio)
        c0 = ext[-1]
    c1s = (resc - c0) / h
    if len(c1s) >= 2:
        c1e = (c1s[1:] - ratio * c1s[:-1]) / (1 - ratio)
        coef = c1e[-1]
        coef_err = float(abs(c1e[-1] - c1e[-2])) if len(c1e) >= 2 \
            else float("nan")
    else:
        coef, coef_err = c1s[-1], float("nan")
    return FusionFit(alpha_fit, alpha_err, _maybe_real(coef),
                     coef_err, c0)


def _maybe_real(x):
    x = complex(x)
    if abs(x.imag) <= 1e-9 * max(1.0, abs(x)):
        return x.real
    return x


def richardson_sequence(values, ratio: float) -> complex:
    """Limit of F(h0 * ratio^k) for analytic F, eliminating one power of h
    per extrapolation level."""
    v = [complex(x) for x in values]
    level = 1
    while len(v) > 1:
        w = ratio ** level
        v = [(v[i + 1] - w * v[i]) / (1 - w) for i in range(len(v) - 1)]
        level += 1
    return v[0]


# -- Moebius automorphisms of the half-plane -----------------------------------------


@dataclass(frozen=True)
class Moebius:
    a: float
    b: float
    c: float
    d: float

    def __call__(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def deriv(self, z: complex) -> complex:
        det = self.a * self.d - self.b * self.c
        return det / (self.c * z + self.d) ** 2


def random_moebius(rng) -> Moebius:
    while True:
        a, b, c, d = rng.normal(size=4)
        det = a * d - b * c
        if abs(det) < 1e-3:
            continue
        if det < 0:
            a, b = -a, -b
        return Moebius(a, b, c, d)
