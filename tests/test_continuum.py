import cmath
import math

import numpy as np
import pytest

from isinglab.continuum import (
    AnnulusBC, BOUNDARY_SPIN_MATCH, ContinuumError, Fermion, HalfPlaneBC,
    OperatorContent, ann_energy_onepoint, ann_fermion, ann_sigma,
    ann_sigma_coherent, ann_sigma_inout, ann_sle_partition, chi,
    covariance_factor, dobrushin_onepoint, fusion_extract, hp_fermion,
    hp_pairs, hp_spin, hp_spin_disorder, hp_two_point, pfaffian_correlator,
    random_moebius, transport,
)


def test_hp_pairs_and_chi():
    bc = HalfPlaneBC((0.0, 1.0))
    pairs = hp_pairs(bc, [1j], [2 + 1j])
    assert pairs[0] == (0.0, 1.0)
    assert pairs[1] == (1j, -1j)
    assert pairs[2] == (2 + 1j, 2 - 1j)
    p0 = hp_pairs(HalfPlaneBC(), [1j, 2j])
    assert chi(0, 1, p0) == pytest.approx(1 / 9)
    assert chi(0, 1, p0) == chi(1, 0, p0)
    # arc against bulk: unimodular
    assert abs(abs(chi(0, 1, pairs)) - 1) < 1e-14
    with pytest.raises(ContinuumError):
        hp_pairs(bc, [1.0 - 1j])


def test_hp_spin_two_point_closed_form():
    val = hp_spin(HalfPlaneBC(), [1j, 2j])
    want = 2 ** -0.125 * math.sqrt(2 ** -0.5 * (3 ** -0.5 + 3 ** 0.5))
    assert val == pytest.approx(want, rel=1e-14)
    assert hp_spin(HalfPlaneBC(), [1j]) == 0.0
    assert hp_spin(HalfPlaneBC(fixed_is_plus=True), [1j]) == pytest.approx(
        2 ** 0.125, rel=1e-14)


def test_odd_spin_count_still_checks_its_points():
    """The odd-count zero is returned only for points in the half-plane."""
    for spins in ([-1j], [1j, 2j, 0.5 - 1j]):
        with pytest.raises(ContinuumError, match="open half-plane"):
            hp_spin(HalfPlaneBC(), spins)


def test_hp_spin_short_distance_normalization():
    bc = HalfPlaneBC()
    rest = [1 + 1j, 1.5 + 0.8j]
    errs = []
    for d in (1e-2, 1e-3, 1e-4):
        lhs = d ** 0.25 * hp_spin(bc, [2j, 2j + d] + rest)
        errs.append(abs(lhs / hp_spin(bc, rest) - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_hp_spin_disorder_reductions():
    bc = HalfPlaneBC((-1.0, 0.5))
    spins = [0.3 + 1.1j, -0.7 + 0.6j]
    assert hp_spin_disorder(bc, spins, []) == pytest.approx(
        hp_spin(bc, spins), rel=1e-14)
    assert hp_spin_disorder(bc, [], [1j, 0.5 + 1j]) > 0
    # disorder pair fuses back to the identity at short distance
    for d in (1e-2, 1e-3):
        v = hp_spin_disorder(HalfPlaneBC(), [], [2j, 2j + d])
        assert v * d ** 0.25 == pytest.approx(1.0, rel=0.05)


def test_moebius_covariance_spin_and_disorder():
    rng = np.random.default_rng(3)
    bc = HalfPlaneBC((-1.0, 0.5))
    spins = [0.3 + 1.1j, -0.7 + 0.6j, 2.1 + 0.4j, 1 + 2j]
    base = hp_spin(bc, spins)
    based = hp_spin_disorder(bc, spins[:2], spins[2:])
    count = 0
    while count < 200:
        mob = random_moebius(rng)
        pole = -mob.d / mob.c if mob.c != 0 else None
        if pole is not None and -1.0 < pole < 0.5:
            continue
        bnew = [complex(mob(b)) for b in bc.free_endpoints]
        if not bnew[0].real < bnew[1].real:
            continue
        count += 1
        bc2 = HalfPlaneBC(tuple(x.real for x in bnew))
        imgs = [mob(v) for v in spins]
        fac = math.prod(abs(mob.deriv(v)) ** 0.125 for v in spins)
        assert abs(base - fac * hp_spin(bc2, imgs)) < 1e-12 * base
        assert abs(based - fac * hp_spin_disorder(
            bc2, imgs[:2], imgs[2:])) < 1e-12 * based


def test_hp_fermion_cases():
    assert hp_fermion("wired", 1j, 2j, "f") == pytest.approx(-2j)
    assert hp_fermion("wired", 1j, 2j, "fstar") == pytest.approx(-2j / 3)
    rng = np.random.default_rng(4)
    for _ in range(10):
        z1 = complex(rng.normal(), abs(rng.normal()) + 0.2)
        z2 = complex(rng.normal(), abs(rng.normal()) + 0.2)
        assert hp_fermion("wired", z1, z2, "f") == pytest.approx(
            -hp_fermion("wired", z2, z1, "f"), rel=1e-13)
        v = 0.4 + 1.3j
        assert hp_fermion("spin", z1, z2, "f", v=v) == pytest.approx(
            -hp_fermion("spin", z2, z1, "f", v=v), rel=1e-12)
        arc = (-0.8, 0.6)
        assert hp_fermion("free_arc", z1, z2, "f", arc=arc) == pytest.approx(
            -hp_fermion("free_arc", z2, z1, "f", arc=arc), rel=1e-12)


def test_hp_fermion_boundary_conditions():
    """The eta-averaged kernel goes real (tau = 1 on the real axis) as the
    second point approaches a wired arc."""
    z1 = 0.3 + 0.9j

    def f_eta(zeta):
        return 0.5 * (hp_fermion("wired", z1, zeta, "f")
                      + hp_fermion("wired", z1, zeta, "fstar"))

    for x in (-2.0, 0.4, 3.0):
        seq = [abs(f_eta(x + 1j * eps).imag) for eps in (0.3, 1e-3, 1e-7)]
        assert seq[2] < 1e-6 * max(1.0, abs(f_eta(x + 0.3j)))
        assert seq[2] < seq[1] < seq[0]


def test_pfaffian_correlator_wired():
    zs = [0.1 + 0.8j, -0.5 + 1.2j, 0.9 + 0.5j, 0.2 + 2.0j]
    content = OperatorContent(fermions=tuple(Fermion(z, "holo") for z in zs))
    got = pfaffian_correlator(hp_two_point("wired"), content)
    f = lambda a, b: 2 / (a - b)
    want = (f(zs[0], zs[1]) * f(zs[2], zs[3])
            - f(zs[0], zs[2]) * f(zs[1], zs[3])
            + f(zs[0], zs[3]) * f(zs[1], zs[2]))
    assert got == pytest.approx(want, rel=1e-13)
    assert pfaffian_correlator(
        hp_two_point("wired"), content.conjugated()) == pytest.approx(
        np.conj(got), rel=1e-13)
    two = OperatorContent(fermions=(Fermion(zs[0]), Fermion(zs[1])))
    assert pfaffian_correlator(hp_two_point("wired"), two) == pytest.approx(
        f(zs[0], zs[1]), rel=1e-14)
    # transposing two fermions flips the sign
    swapped = OperatorContent(fermions=(
        Fermion(zs[1], "holo"), Fermion(zs[0], "holo"),
        Fermion(zs[2], "holo"), Fermion(zs[3], "holo")))
    assert pfaffian_correlator(hp_two_point("wired"), swapped) == \
        pytest.approx(-got, rel=1e-13)


def test_eta_fermions_consistency():
    z1, z2 = 0.2 + 1.1j, -0.4 + 0.8j
    eta1, eta2 = cmath.exp(0.3j), cmath.exp(-0.9j)
    pair = hp_two_point("wired")
    got = pair(Fermion(z1, "eta", eta1), Fermion(z2, "eta", eta2))
    want = 0.25 * (
        eta1.conjugate() * eta2.conjugate() * (2 / (z1 - z2))
        + eta1.conjugate() * eta2 * (2 / (z1 - z2.conjugate()))
        + eta1 * eta2.conjugate() * (-2 / (z2 - z1.conjugate()))
        + eta1 * eta2 * np.conj(2 / (z1 - z2)))
    assert got == pytest.approx(want, rel=1e-12)
    assert abs(got.imag) < 1e-12 * abs(got)


def test_annulus_magnetization():
    p = math.log(2)
    bc = AnnulusBC(p, "free", "plus")
    v = 0.75 * cmath.exp(0.3j)
    assert ann_sigma(bc, v) == pytest.approx(ann_sigma(bc, abs(v)), rel=1e-13)
    assert ann_sigma_coherent(bc, v) == pytest.approx(
        BOUNDARY_SPIN_MATCH * ann_sigma(bc, v))
    with pytest.raises(ContinuumError):
        ann_sigma(bc, 0.3)
    # boundary approach reproduces the boundary-spin pair
    S = ann_sigma_inout(3.0)
    for r, tol in ((0.99, 1e-3), (0.999, 1e-4)):
        val = ann_sigma(AnnulusBC(3.0, "wired", "plus"), r) * (
            2 * (1 - r)) ** 0.125
        assert val == pytest.approx(S, rel=tol * 30)
    # plus/minus: odd about the log-centre, signs track the nearest circle
    pm = AnnulusBC(p, "plus", "minus")
    rc = math.exp(-p / 2)
    assert abs(ann_sigma(pm, rc)) < 1e-10
    assert ann_sigma(pm, 0.95) > 0  # near the plus outer circle
    assert ann_sigma(pm, 0.55) < 0  # near the minus inner circle
    assert ann_sigma(AnnulusBC(p, "minus", "plus"), 0.75) == pytest.approx(
        -ann_sigma(pm, 0.75), rel=1e-12)
    # straddle: the +/+ and +/- values bracket the +/free value... recorded
    pf = ann_sigma(AnnulusBC(p, "plus", "free"), 0.75)
    pp = ann_sigma(AnnulusBC(p, "plus", "plus"), 0.75)
    pmv = ann_sigma(pm, 0.75)
    assert pmv < pf < pp


def test_annulus_fermion_kernels():
    p = math.log(2)
    w = 0.8 * cmath.exp(0.5j)
    # wired/wired directly, free/wired through the inversion to wired/free
    for bc in (AnnulusBC(p), AnnulusBC(p, "free", "wired")):
        for d in (1e-3, 1e-5):
            z = w * (1 + d)
            assert (z - w) * ann_fermion(bc, z, w, "f") == pytest.approx(
                2.0, rel=5e-3 if d == 1e-3 else 5e-5)
        z = 0.65 * cmath.exp(1.7j)
        assert ann_fermion(bc, z, w, "f") == pytest.approx(
            -ann_fermion(bc, w, z, "f"), rel=1e-12)


@pytest.mark.parametrize("kernel", [
    lambda kind: hp_fermion("wired", 1j, 2j, kind),
    lambda kind: hp_fermion("spin", 1j, 2j, kind, v=0.5 + 1j),
    lambda kind: hp_fermion("free_arc", 1j, 2j, kind, arc=(-1.0, 1.0)),
    lambda kind: ann_fermion(AnnulusBC(1.0, "wired", "wired"), 0.8, 0.7j,
                             kind),
    lambda kind: ann_fermion(AnnulusBC(1.0, "wired", "free"), 0.8, 0.7j,
                             kind),
    lambda kind: ann_fermion(AnnulusBC(1.0, "free", "wired"), 0.8, 0.7j,
                             kind),
], ids=["hp-wired", "hp-spin", "hp-free_arc", "ann-wired-wired",
        "ann-wired-free", "ann-free-wired"])
def test_unknown_kernel_kind_is_refused(kernel):
    with pytest.raises(ContinuumError, match="'bogus'"):
        kernel("bogus")


@pytest.mark.parametrize("outer, inner", [("bogus", "plus"),
                                          ("wired", "Free")])
def test_unknown_annulus_label_is_refused(outer, inner):
    with pytest.raises(ContinuumError, match="unknown annulus labels"):
        AnnulusBC(1.0, outer, inner)


@pytest.mark.parametrize("outer, inner", [
    ("free", "plus"), ("plus", "free"), ("wired", "free"), ("free", "wired"),
    ("free", "free")])
def test_boundary_spin_pair_refuses_a_free_circle(outer, inner):
    with pytest.raises(ContinuumError, match="two fixed circles"):
        ann_fermion(AnnulusBC(1.0, outer, inner), 0.8, 0.6j, "f",
                    with_spins=True)


_FLIP = {"plus": "minus", "minus": "plus"}


@pytest.mark.parametrize("outer, inner", [
    ("free", "plus"), ("wired", "plus"), ("plus", "free"), ("plus", "wired"),
    ("plus", "plus"), ("plus", "minus")])
def test_annulus_magnetization_global_flip(outer, inner):
    """Flipping every fixed label flips the sign of the magnetization."""
    p = math.log(2)
    bc = AnnulusBC(p, outer, inner)
    flipped = AnnulusBC(p, _FLIP.get(outer, outer), _FLIP.get(inner, inner))
    for v in (0.6, 0.75 * cmath.exp(1.1j), 0.9):
        assert ann_sigma(flipped, v) == pytest.approx(-ann_sigma(bc, v),
                                                      rel=1e-14)


def _loop_monodromy(kernel, z, n_steps=720):
    """Sign picked up by continuous continuation around the annulus hole."""
    prev = kernel(z)
    sign = 1.0
    for k in range(1, n_steps + 1):
        zz = z * cmath.exp(2j * math.pi * k / n_steps)
        raw = kernel(zz)
        if abs(sign * raw - prev) > abs(-sign * raw - prev):
            sign = -sign
        prev = sign * raw
    return sign


def test_annulus_kernel_monodromy():
    """Without spin insertions the pair correlator is single-valued around
    the hole; the boundary-spin pair makes it a spinor."""
    p = math.log(2)
    w = 0.8 * cmath.exp(0.5j)
    z = 0.65 * cmath.exp(1.7j)
    plain = _loop_monodromy(lambda q: ann_fermion(AnnulusBC(p), q, w, "f"), z)
    spinor = _loop_monodromy(
        lambda q: ann_fermion(AnnulusBC(p), q, w, "f", with_spins=True), z)
    assert plain == 1.0
    assert spinor == -1.0


def test_annulus_energy_dual_route():
    p = math.log(2)
    e = 0.82 * cmath.exp(1.1j)
    lhs = ann_energy_onepoint(AnnulusBC(p, "plus", "free"), e)
    rhs = 0.5j * ann_fermion(AnnulusBC(p, "wired", "free"), e, e, "fstar")
    assert lhs == pytest.approx(rhs.real, rel=1e-12)
    assert abs(rhs.imag) < 1e-12
    assert ann_energy_onepoint(AnnulusBC(p, "plus", "free"), e) == \
        pytest.approx(ann_energy_onepoint(AnnulusBC(p, "plus", "free"),
                                          abs(e)), rel=1e-12)
    # +/+ and +/- straddle the wired value at the same radius
    ww = ann_energy_onepoint(AnnulusBC(p, "wired", "wired"), abs(e))
    pp = ann_energy_onepoint(AnnulusBC(p, "plus", "plus"), abs(e))
    pm = ann_energy_onepoint(AnnulusBC(p, "plus", "minus"), abs(e))
    assert min(pp, pm) <= ww <= max(pp, pm)


def test_sle_partition_functions():
    p = math.log(2)
    b1, b2 = cmath.exp(0.4j), cmath.exp(2.1j)
    r = cmath.exp(0.7j)
    for inner in ("free", "plus"):
        a = ann_sle_partition(b1, b2, p, inner)
        b = ann_sle_partition(r * b1, r * b2, p, inner)
        assert a == pytest.approx(b, rel=1e-12)
        assert a > 0
    # divergence with exponent -1 as the marked points collide
    fits = []
    for t in (1e-2, 5e-3, 2.5e-3):
        fits.append(ann_sle_partition(cmath.exp(1j * t), 1.0, p, "free") * t)
    assert fits[0] == pytest.approx(2.0, rel=2e-2)
    assert abs(fits[2] - 2.0) < abs(fits[0] - 2.0)
    # wide annulus: approaches the simply connected kernel (monotone trend)
    vals = [ann_sle_partition(b1, b2, pp, "free") for pp in (1.0, 2.0, 4.0)]
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(2)]
    assert diffs[1] < diffs[0]


def test_transport_rules():
    content = OperatorContent(spins=(1j, 2j), energies=(1 + 1j,),
                              fermions=(Fermion(0.5 + 0.5j, "holo"),))
    ident = transport(3.7, content, lambda z: z, lambda z: 1.0)
    assert ident[1] == pytest.approx(3.7)
    # scaling by two: spins carry 2^{-1/8} each
    spins_only = OperatorContent(spins=(1j, 2j))
    mapped, val = transport(1.0, spins_only, lambda z: 2 * z, lambda z: 2.0)
    assert val == pytest.approx(2.0 ** (-2 / 8))
    assert mapped.spins == (2j, 4j)
    # explicit covariance of the two-point spin function
    base = hp_spin(HalfPlaneBC(), [1j, 2j])
    img_val = hp_spin(HalfPlaneBC(), [2j, 4j])
    fac = covariance_factor(spins_only, lambda z: 2.0)
    assert base == pytest.approx(fac * img_val, rel=1e-13)
    # flat fermions carry weight zero
    flat = OperatorContent(fermions=(Fermion(1.0, "flat"),))
    assert covariance_factor(flat, lambda z: 5.0) == 1.0
    # eta labels transform with the conjugated root of the derivative
    etac = OperatorContent(fermions=(Fermion(1j, "eta", 1.0),))
    mapped, _ = transport(1.0, etac, lambda z: 2 * z, lambda z: 2.0)
    assert mapped.fermions[0].eta == pytest.approx(math.sqrt(2.0))


def test_dobrushin_onepoint():
    assert dobrushin_onepoint((-1e12, 1e12), 1j) == pytest.approx(
        2.0 ** -0.125, rel=1e-6)
    v = 0.3 + 1.2j
    a = dobrushin_onepoint((-1.0, 2.0), v)
    b = dobrushin_onepoint((-1.0, 2.0), v, complement=True)
    assert a == pytest.approx(-b, rel=1e-12)
    # consistency with the coherent plus-boundary one-point: the closed form
    # sits a factor 2^(1/4) below it (recorded, not absorbed)
    full = dobrushin_onepoint((-1e12, 1e12), v)
    coherent = hp_spin(HalfPlaneBC(fixed_is_plus=True), [v])
    assert coherent / full == pytest.approx(2.0 ** 0.25, rel=1e-6)


def test_fusion_extract_framework():
    # pure power law with linear correction recovers both numbers
    ev = lambda h: h ** -0.25 * (1.0 + 0.5 * h + 0.1 * h * h)
    seps = [0.08 * 0.5 ** i for i in range(6)]
    fit = fusion_extract(ev, seps)
    assert fit.exponent == pytest.approx(-0.25, abs=1e-4)
    fit2 = fusion_extract(ev, seps, exponent=-0.25, leading=1.0)
    assert fit2.coefficient == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ContinuumError):
        fusion_extract(ev, [0.1, 0.2])
