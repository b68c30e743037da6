import cmath
import math
import time
from collections import OrderedDict
from math import gcd

import numpy as np
import pytest

from fermatkl.eisenstein import (
    DivergentRegion,
    TruncationSpec,
    classify_index,
    eisenstein_direct,
    eisenstein_direct_all,
    fourier_eval,
    fourier_limit_eval,
    gamma2_phi_m_closed_form,
    inner_sums,
    phi_coefficient,
    phi_m1_exact,
    standard_rep,
)
from fermatkl.fermat import GAMMA1, GAMMA2, GroupId, cusp_reps, gamma2_base, gamma_n
from fermatkl.scattering import gamma2_constants
from fermatkl.sl2 import (
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    Cusp,
    Mat2Z,
    cusp_scaling_matrix,
    is_in_gamma2,
    is_in_gamma_n,
    mobius_point,
)

from character_oracles import (
    STABILIZER_SUMS,
    base_pair_matrix,
    character_column,
    character_lanes,
    gamma2_phi0_closed_form,
    gamma2_phi_m_closed_form_at_s,
    inner_sums_character,
    zeta,
)
from dedekind_oracles import class_invariants, classify_cusp_word_euclid, gamma2_exponent_sums_batch, mod_inverse_batch
from word_oracles import coset_reps

TR_FAST = TruncationSpec(c_max=150, m_max=8, order=20)


def group_cusps(group: GroupId) -> tuple[Cusp, ...]:
    """The standard cusp representatives of a group, in the order of
    classify_index."""
    if group.kind == "gamma1":
        return (CUSP_INF,)
    return tuple(fc.rep for fc in cusp_reps(group.n))


def full_lattice_oracle(z: complex, s: float, radius: int) -> float:
    """Brute-force sum over all nonzero lattice pairs divided by
    2 zeta(2s): equals the coprime-pair Eisenstein value at level 1."""
    total = 0.0
    y = z.imag
    for c in range(-radius, radius + 1):
        for d in range(-radius, radius + 1):
            if c == 0 and d == 0:
                continue
            total += y ** s / abs(c * z + d) ** (2 * s)
    return total / (2 * zeta(2.0 * s))


def test_gamma1_against_full_lattice():
    v, tail = eisenstein_direct(GAMMA1, CUSP_INF, 1j, 2.0, TruncationSpec(c_max=250))
    oracle = full_lattice_oracle(1j, 2.0, 250)
    assert abs(v.real - oracle) < 5e-5
    assert abs(v.imag) < 1e-15


def test_gamma2_large_y_leading_term():
    v, _ = eisenstein_direct(GAMMA2, CUSP_INF, 10j, 2.0, TR_FAST)
    assert abs(v.real - 25.0) / 25.0 < 0.01


def test_gamma_1_equals_gamma2():
    # the level-1 Fermat group is the level-2 group, as one GroupId
    assert gamma_n(1) == GAMMA2 and str(GAMMA2) == "Gamma(2)"
    for bad in (("gamma2",), ("gamma1", 2), ("gamma_n", 0)):
        with pytest.raises(ValueError):
            GroupId(*bad)
    z = 0.3 + 1.0j
    v1, _ = eisenstein_direct(gamma_n(1), CUSP_ZERO, z, 2.0, TR_FAST)
    v2, _ = eisenstein_direct(GAMMA2, CUSP_ZERO, z, 2.0, TR_FAST)
    assert v1 == v2


def test_direct_positive_real():
    for s in (1.5, 2.0, 3.0):
        v, _ = eisenstein_direct(GAMMA2, CUSP_ONE, 0.7 + 1.3j, s, TR_FAST)
        assert v.real > 0 and abs(v.imag) < 1e-14


def test_direct_divergent_region():
    with pytest.raises(DivergentRegion):
        eisenstein_direct(GAMMA2, CUSP_INF, 1j, 1.0, TR_FAST)


def test_direct_tail_honest():
    small = TruncationSpec(c_max=60)
    big = TruncationSpec(c_max=400)
    for z in (1j, 1 + 2j):
        v1, t1 = eisenstein_direct(GAMMA2, CUSP_INF, z, 2.0, small)
        v2, _ = eisenstein_direct(GAMMA2, CUSP_INF, z, 2.0, big)
        assert abs(v1 - v2) <= t1


def test_phi_m1_exact_modes_match_one_mode_calls():
    # each mode of a level-2 or full modular call has the bits of the
    # one-mode closed form, and the level-2 ones those of the general-s
    # form at s = 1, whose zeta(2) from mpmath rounds to pi^2/6
    # 1923 is the first d with d ** -1.0 != 1.0 / d, and 3846 = 2 * 1923
    ms = (*range(1, 13), 24, 35, -6, 1923, 3846)
    for j, k, parity in ((CUSP_INF, CUSP_INF, (0, 1)), (CUSP_ZERO, CUSP_INF, (1, 0)),
                         (CUSP_ONE, CUSP_INF, (1, 1))):
        want = [complex(gamma2_phi_m_closed_form(parity, (m,))[0]) for m in ms]
        got = phi_m1_exact(GAMMA2, j, k, ms)
        full = phi_m1_exact(GAMMA1, CUSP_INF, CUSP_INF, ms)
        assert list(map(_bits, got)) == list(map(_bits, want)), (j, k)
        assert list(map(_bits, got)) == [_bits(complex(phi)) for phi in
                                         gamma2_phi_m_closed_form_at_s(parity, ms, 1.0)], (j, k)
        assert list(map(_bits, full)) == [_bits(phi_m1_exact(GAMMA1, CUSP_INF, CUSP_INF, (m,))[0])
                                          for m in ms]
    with pytest.raises(ValueError):
        phi_m1_exact(GAMMA2, CUSP_INF, CUSP_INF, (1, 0))


def test_phi_counts_are_integers():
    phi0, _ = phi_coefficient(GAMMA2, CUSP_INF, CUSP_INF, 0, 2.0, TruncationSpec(c_max=40))
    (counts,) = inner_sums(GAMMA2, CUSP_INF, CUSP_INF, (0,), 40)
    assert counts.size == 40 and not counts.imag.any()
    total = sum(x * c ** -4.0 for c, x in enumerate(counts.real, start=1))
    assert abs(phi0.real - total) < 1e-15
    # per-c counts match the unit-group sizes
    for c, x in enumerate(counts.real, start=1):
        if c % 2 == 0:
            assert x == sum(1 for d in range(2 * c) if gcd(d, 2 * c) == 1)
        else:
            assert x == 0


def test_phi0_gamma2_closed_form():
    tr = TruncationSpec(c_max=1500)
    for (j, k, diag) in ((CUSP_INF, CUSP_INF, True), (CUSP_ZERO, CUSP_INF, False),
                         (CUSP_ZERO, CUSP_ONE, False)):
        phi0, tail = phi_coefficient(GAMMA2, j, k, 0, 2.0, tr)
        cf = gamma2_phi0_closed_form(diag, 2.0)
        assert abs(phi0 - cf) < 1e-6
        assert abs(phi0 - cf) < tail


def test_phi_m_closed_form_matches_enumeration():
    tr = TruncationSpec(c_max=3000)
    for (j, k) in ((CUSP_INF, CUSP_INF), (CUSP_ZERO, CUSP_INF), (CUSP_ONE, CUSP_INF)):
        gj = cusp_scaling_matrix(j)
        gk = cusp_scaling_matrix(k)
        parity = ((gj.inverse() * gk).c & 1, (gj.inverse() * gk).d & 1)
        for m in (1, 2, 3, 4, 6):
            (cf,) = gamma2_phi_m_closed_form_at_s(parity, (m,), 1.5)
            phim, _ = phi_coefficient(GAMMA2, j, k, m, 1.5, tr)
            assert abs(phim - cf) < 2e-4, (j, k, m)
            # at s = 1 the closed form backs the limit evaluation
            (exact,) = phi_m1_exact(GAMMA2, j, k, (m,))
            approx, _ = phi_coefficient(GAMMA2, j, k, m, 1.0, tr)
            assert abs(exact - approx) < 5e-3


def test_phi_gamma1_zero_mode_closed_form():
    # sum over coprime pairs: phi0 = zeta(2s-1)/zeta(2s)
    phi0, _ = phi_coefficient(GAMMA1, CUSP_INF, CUSP_INF, 0, 2.0, TruncationSpec(c_max=2000))
    assert abs(phi0 - zeta(3.0) / zeta(4.0)) < 1e-6


def test_phi_symmetry_normalized():
    # normalized scattering entries are symmetric
    g = gamma_n(2)
    tr = TruncationSpec(c_max=400)
    reps = cusp_reps(2)
    a, b = reps[0].rep, reps[-1].rep
    p1, _ = phi_coefficient(g, a, b, 0, 2.0, tr)
    p2, _ = phi_coefficient(g, b, a, 0, 2.0, tr)
    assert abs(p1 - p2) < 1e-6


def test_phi_divergent_region():
    with pytest.raises(DivergentRegion):
        phi_coefficient(GAMMA2, CUSP_INF, CUSP_INF, 0, 1.0, TR_FAST)


def test_same_fiber_modes_vanish_off_multiples():
    # same-base pairs only carry Fourier modes divisible by n
    g = gamma_n(3)
    tr = TruncationSpec(c_max=60)
    inf = cusp_reps(3)[-1].rep
    for m in (1, 2, 4, 5):
        phim, _ = phi_coefficient(g, inf, inf, m, 2.0, tr)
        assert abs(phim) < 1e-12
    # the first surviving diagonal mode sits at 2n here
    phi6, _ = phi_coefficient(g, inf, inf, 6, 2.0, tr)
    assert abs(phi6) > 1e-3


def test_fourier_vs_direct_gamma2():
    tr = TruncationSpec(c_max=300, m_max=10)
    for (j, k) in ((CUSP_INF, CUSP_INF), (CUSP_ZERO, CUSP_INF), (CUSP_ONE, CUSP_ZERO)):
        fe = fourier_eval(GAMMA2, j, k, 1j, 2.0, tr)
        gk = cusp_scaling_matrix(k)
        de, _ = eisenstein_direct(GAMMA2, j, mobius_point(gk, 1j), 2.0, tr)
        assert abs(fe - de) < 1e-5, (j, k)


def test_fourier_large_y_dominated_by_delta():
    tr = TruncationSpec(c_max=200, m_max=6)
    v = fourier_eval(GAMMA2, CUSP_INF, CUSP_INF, 50j, 2.0, tr)
    assert abs(v - (50.0 / 2) ** 2) / abs(v) < 1e-6
    w = fourier_eval(GAMMA2, CUSP_ZERO, CUSP_INF, 50j, 2.0, tr)
    assert abs(w) / abs(v) < 1e-4


def test_fourier_limit_large_y_constant_term():
    # value -> 2 pi y + 4 pi Ct - 2 log y at the diagonal
    tr = TruncationSpec(c_max=300, m_max=8)
    ct = gamma2_constants()[2][2].natural
    for y in (12.0, 20.0):
        v = fourier_limit_eval(GAMMA2, CUSP_INF, CUSP_INF, y * 1j, tr)
        expect = 2 * math.pi * y + 4 * math.pi * ct - 2 * math.log(y)
        assert abs(v.real - expect) < 1e-10
        assert abs(v.imag) < 1e-12


def test_fourier_limit_periodicity():
    tr = TruncationSpec(c_max=200, m_max=10)
    g = gamma_n(2)
    inf = cusp_reps(2)[-1].rep
    z = 0.37 + 1.4j
    v1 = fourier_limit_eval(g, inf, inf, z, tr)
    v2 = fourier_limit_eval(g, inf, inf, z + 4, tr)  # width 2n = 4
    assert abs(v1 - v2) < 1e-12
    # finite and real
    w = fourier_limit_eval(g, cusp_reps(2)[0].rep, inf, 1 + 2j, tr)
    assert abs(w.imag) < 1e-10 and math.isfinite(w.real)


def test_sums_at_x_translated_by_the_width_keep_their_bits():
    # E_j(z + b) = E_j(z): the direct buckets, fourier_eval and
    # fourier_limit_eval take x reduced by the width b, exact in floats,
    # so z + k b sums what z sums, however large k
    tr = TruncationSpec(c_max=100, m_max=8)
    z = 0.375 + 1.1j
    for g in (GAMMA2, gamma_n(2), gamma_n(3)):
        def sums(w):
            direct = [(vals.tolist(), tail) for vals, tail in
                      (eisenstein_direct_all(g, w, s, tr) for s in (2.0, 3.0))]
            return (direct, fourier_eval(g, CUSP_ZERO, CUSP_INF, w, 2.0, tr),
                    fourier_limit_eval(g, CUSP_ZERO, CUSP_INF, w, tr))
        at = sums(z)
        for k in (1, -1, 1000, -1000):
            assert sums(z + k * g.width) == at, (g, k)
    # x = 1e20 is a multiple of the width 4: the sum is the one at i
    start = time.perf_counter()
    far = eisenstein_direct_all(gamma_n(2), 1e20 + 1j, 3.0)
    assert time.perf_counter() - start < 1.0
    near = eisenstein_direct_all(gamma_n(2), 1j, 3.0)
    assert far[0].tolist() == near[0].tolist() and far[1] == near[1]


def _fourier_eval_per_mode(group, j, k, z, s, trunc):
    """Fourier assembly from one phi_coefficient call per mode m and -m:
    the reference for the one-pass fourier_eval."""
    from fermatkl.special import bessel_k, gamma_fn

    x, y = z.real, z.imag
    jc, kc = standard_rep(group, j), standard_rep(group, k)
    b = group.width
    val = 0j
    if jc == kc:
        val += (complex(y) / b) ** s
    gs = gamma_fn(complex(s))
    gs_half = gamma_fn(complex(s) - 0.5)
    phi0, _ = phi_coefficient(group, jc, kc, 0, s, trunc)
    val += math.sqrt(math.pi) * gs_half / gs * phi0 * complex(y) ** (1 - s) \
        / (complex(b) ** s * b)
    for m in range(1, trunc.m_max + 1):
        arg = 2.0 * math.pi * m * y / b
        if arg > 700.0:
            break
        kb = bessel_k(complex(s) - 0.5, arg)
        coef = 2.0 * math.pi ** complex(s) * (m / b) ** (complex(s) - 0.5) / gs \
            * math.sqrt(y) * kb / (complex(b) ** s * b)
        for sign in (1, -1):
            phim, _ = phi_coefficient(group, jc, kc, sign * m, s, trunc)
            val += coef * phim * cmath.exp(2j * math.pi * sign * m * x / b)
    return val


def _fourier_limit_per_mode(group, j, k, z, trunc):
    """The limit assembly with one phi(1) evaluation per mode: the closed
    form of the full modular group and level 2, else the lanes."""
    import fermatkl.scattering as scattering

    x, y = z.real, z.imag
    jc, kc = standard_rep(group, j), standard_rep(group, k)
    ct = scattering.natural_constant(group, jc, kc)
    b = group.width
    val = 4.0 * math.pi * (ct - (3.0 / (math.pi * group.index)) * math.log(y))
    if jc == kc:
        val += 4.0 * math.pi * y / b
    m_eff = min(trunc.m_max, math.ceil(b * 40.0 / (2.0 * math.pi * y)))
    acc = 0.0
    for m in range(1, m_eff + 1):
        decay = math.exp(-2.0 * math.pi * m * y / b)
        if decay < 1e-18:
            break
        if group.n == 1:
            (phim,) = phi_m1_exact(group, jc, kc, (m,), trunc)
        else:
            phim, _ = phi_coefficient(group, jc, kc, m, 1.0, trunc)
        acc += 2.0 * (phim * cmath.exp(2j * math.pi * m * x / b)).real * decay
    val += 4.0 * math.pi * (math.pi / (b * b)) * acc
    return complex(val)


def test_fourier_eval_matches_per_mode_assembly():
    # one lane read for every mode, -m rows as conjugates: the same bits
    # as one phi per mode, for every base pair of levels 1 to 4.  The
    # oracles keep the cuts that the assembly leaves to others: at
    # Im z = 12 b and 30 b the top modes pass the Bessel argument 700,
    # where bessel_k_batch gives zero, and at m_max 100 the limit's modes
    # stop at the decay 1e-18, where the oracle also stops at
    # ceil(40 b / (2 pi y)): one mode earlier at Im z = b / (2 pi)
    tr = TruncationSpec(c_max=60, m_max=6)
    tall = TruncationSpec(c_max=30, m_max=12)
    wide = TruncationSpec(c_max=60, m_max=100)
    z = 0.3 + 0.9j
    for n in (1, 2, 3, 4):
        g = gamma_n(n)
        b = g.width
        over = {base: [fc.rep for fc in cusp_reps(n) if gamma2_base(fc.rep) == base]
                for base in (CUSP_ZERO, CUSP_ONE, CUSP_INF)}
        for a, js in enumerate(over.values()):
            for c, ks in enumerate(over.values()):
                # a subcusp other than the first where the base has several
                j, k = js[(a + c) % len(js)], ks[-1 - a % len(ks)]
                for s in (2.0, 1.5 + 0.7j):
                    for at, t in ((z, tr), (0.3 + 12j * b, tall), (-0.7 + 30j * b, tall)):
                        want = _fourier_eval_per_mode(g, j, k, at, s, t)
                        assert _bits(fourier_eval(g, j, k, at, s, t)) == _bits(want), (n, j, k, at, s)
                for at, t in ((z, tr), *((0.3 + 1j * h, wide)
                                         for h in (0.8 * b / (2 * math.pi), b / (2 * math.pi),
                                                   1.3 * b / (2 * math.pi), 0.4))):
                    want = _fourier_limit_per_mode(g, j, k, at, t)
                    assert _bits(fourier_limit_eval(g, j, k, at, t)) == _bits(want), (n, j, k, at)


def _bits(v: complex) -> tuple:
    return v.real.hex(), v.imag.hex()


def test_phi_cache_hits_match_cold_calls(monkeypatch):
    # phi memoized at one z serves another with the bits of a cold call
    from fermatkl import eisenstein

    tr = TruncationSpec(c_max=60, m_max=6)
    z0, z = 0.1 + 1.2j, -0.35 + 0.8j
    for g in (GAMMA1, GAMMA2, *(gamma_n(n) for n in (2, 3, 4, 5))):
        # a pair over two bases, a cusp with itself, and two cusps over
        # one base where the group has them
        cusps = group_cusps(g)
        for j, k in {(cusps[0], cusps[-1]), (cusps[-1], cusps[-1]),
                     (cusps[0], cusps[min(1, len(cusps) - 1)])}:
            def values(at):
                return [_bits(fourier_eval(g, j, k, at, s, tr)) for s in (1.5, 2.0, 1.5 + 0.7j)] \
                    + [_bits(fourier_limit_eval(g, j, k, at, tr))]

            _fresh_store(monkeypatch)
            cold = values(z)
            _fresh_store(monkeypatch)
            values(z0)
            misses = eisenstein._phis.cache_info().misses
            assert values(z) == cold, (g, j, k)
            assert eisenstein._phis.cache_info().misses == misses


def test_warm_fourier_eval_reads_no_lanes(monkeypatch):
    # a second pair evaluation at a new z takes every phi from the cache
    from fermatkl import eisenstein

    def refuse(*args):
        raise AssertionError("lane work on a memoized pair")

    tr = TruncationSpec(c_max=80)
    _fresh_store(monkeypatch)
    cases = [(GAMMA2, CUSP_ZERO, CUSP_INF), (GAMMA2, CUSP_ONE, CUSP_ONE)]
    for n in (2, 3):
        reps = cusp_reps(n)
        cases += [(gamma_n(n), reps[0].rep, reps[-1].rep), (gamma_n(n), reps[n].rep, reps[0].rep)]
    for g, j, k in cases:
        fourier_eval(g, j, k, 0.2 + 1.1j, 2.0, tr)
        fourier_limit_eval(g, j, k, 0.2 + 1.1j, tr)
    with monkeypatch.context() as patch:
        patch.setattr(eisenstein, "_stored", refuse)
        patch.setattr(eisenstein, "_lane_sums", refuse)
        for g, j, k in cases:
            fourier_eval(g, j, k, -0.45 + 1.7j, 2.0, tr)
            fourier_limit_eval(g, j, k, -0.45 + 1.7j, tr)


def test_phi_memo_reads_one_lane_set_per_class(monkeypatch):
    # phi_jk depends only on the class of g_k^-1(j), so a sweep over every
    # cusp pair reads the lanes of each of the 3 n classes once, the full
    # modular group's one class once, with the bits of the per-pair
    # oracles; the limits of the full modular group and level 2 are
    # closed forms and read none
    from fermatkl import eisenstein

    tr = TruncationSpec(c_max=60, m_max=6)
    z = 0.3 + 0.9j
    reads = []
    lane_sums = eisenstein._lane_sums
    monkeypatch.setattr(eisenstein, "_lane_sums", lambda *a: reads.append(1) or lane_sums(*a))
    for g in (GAMMA1, GAMMA2, *(gamma_n(n) for n in (2, 3, 4, 5))):
        classes = 1 if g == GAMMA1 else 3 * g.n
        pairs = [(j, k) for j in group_cusps(g) for k in group_cusps(g)]
        _fresh_store(monkeypatch)
        got = {}
        for s in (2.0, 1.5 + 0.7j):
            reads.clear()
            got[s] = [fourier_eval(g, j, k, z, s, tr) for j, k in pairs]
            assert len(reads) == classes, (g, s)
        reads.clear()
        got["limit"] = [fourier_limit_eval(g, j, k, z, tr) for j, k in pairs]
        assert len(reads) == (0 if g.n == 1 else classes), g
        for (j, k), *vals in zip(pairs, got[2.0], got[1.5 + 0.7j], got["limit"]):
            want = [_fourier_eval_per_mode(g, j, k, z, s, tr) for s in (2.0, 1.5 + 0.7j)]
            want.append(_fourier_limit_per_mode(g, j, k, z, tr))
            assert list(map(_bits, vals)) == list(map(_bits, want)), (g, j, k)


def test_limit_reads_one_lane_set_per_class_at_every_height(monkeypatch):
    # the 1e-18 decay cut keeps fewer modes the higher z is, but the limit
    # takes the phi of all m_max modes, so ten heights of one class read
    # its lanes once; each value has the bits of a limit whose m_max is
    # its own cut, which asks for exactly the modes it sums
    from fermatkl import eisenstein

    g, reps = gamma_n(3), cusp_reps(3)
    j, k = reps[0].rep, reps[-1].rep
    tr = TruncationSpec(c_max=60, m_max=100)
    zs = [0.2 + 0.25j * h for h in range(2, 12)]
    reads = []
    lane_sums = eisenstein._lane_sums
    monkeypatch.setattr(eisenstein, "_lane_sums", lambda *a: reads.append(1) or lane_sums(*a))
    _fresh_store(monkeypatch)
    got = [fourier_limit_eval(g, j, k, z, tr) for z in zs]
    assert len(reads) == 1
    for z, val in zip(zs, got):
        cut = sum(math.exp(-2.0 * math.pi * m * z.imag / g.width) >= 1e-18
                  for m in range(1, tr.m_max + 1))
        assert cut < tr.m_max
        want = fourier_limit_eval(g, j, k, z, TruncationSpec(c_max=60, m_max=cut))
        assert _bits(val) == _bits(want), z


def _phi_oracle(group, j, k, m, s, c_max):
    """phi_{jk,m}(s) from one mode's inner_sums row weighted by c^(-2s):
    the oracle for the memoized phi."""
    from fermatkl.eisenstein import _power_terms

    cs = np.arange(1, c_max + 1, dtype=float)
    (row,) = inner_sums(group, j, k, (m,), c_max)
    return complex((row * _power_terms(cs * cs, s)).sum())


def test_phi_coefficient_matches_inner_sums_oracle(monkeypatch):
    # every mode -M..M at s > 1, and the modes m != 0 at s = 1, has the
    # bits of the weighted inner sums, as do the modes past M, read at
    # the bound |m|; the s = 1 tail has no known bound and is inf
    tr = TruncationSpec(c_max=40, m_max=5)
    modes = range(-tr.m_max, tr.m_max + 1)
    for g in (GAMMA1, GAMMA2, *(gamma_n(n) for n in (2, 3, 4, 5))):
        cusps = group_cusps(g)
        _fresh_store(monkeypatch)
        for j, k in {(cusps[0], cusps[-1]), (cusps[-1], cusps[-1]),
                     (cusps[0], cusps[min(1, len(cusps) - 1)])}:
            for s in (1.5, 2.0, 1.5 + 0.7j, 1.0):
                for m in (*modes, tr.m_max + 2, -tr.m_max - 3):
                    if s == 1.0 and m == 0:
                        continue
                    got, tail = phi_coefficient(g, j, k, m, s, tr)
                    want = _phi_oracle(g, j, k, m, s, tr.c_max)
                    assert _bits(got) == _bits(want), (g, j, k, s, m)
                    assert (tail == math.inf) == (s == 1.0)


def test_phi_readers_share_one_entry_per_class(monkeypatch):
    # after fourier_eval fills a class at s, phi_coefficient's phi_0
    # there reads no lanes, and after one s = 1 read of a class every
    # mode of phi_m1_exact, phi_coefficient and the limit reads none
    from fermatkl import eisenstein

    def refuse(*args):
        raise AssertionError("lane work on a memoized class")

    tr = TruncationSpec(c_max=60, m_max=6)
    z = 0.2 + 1.1j
    for n in (2, 3, 5):
        g, reps = gamma_n(n), cusp_reps(n)
        pairs = ((reps[0].rep, reps[-1].rep), (reps[n].rep, reps[0].rep))
        _fresh_store(monkeypatch)
        for j, k in pairs:
            for s in (2.0, 1.5 + 0.7j):
                fourier_eval(g, j, k, z, s, tr)
            phi_coefficient(g, j, k, 1, 1.0, tr)
        with monkeypatch.context() as patch:
            patch.setattr(eisenstein, "_lane_sums", refuse)
            for j, k in pairs:
                for s in (2.0, 1.5 + 0.7j):
                    phi_coefficient(g, j, k, 0, s, tr)
                phi_m1_exact(g, j, k, range(1, tr.m_max + 1), tr)
                phi_m1_exact(g, j, k, (-2, 3), tr)
                phi_coefficient(g, j, k, -tr.m_max, 1.0, tr)
                fourier_limit_eval(g, j, k, z, tr)


def test_phi_cache_bounded_and_evicted_key_recomputes(monkeypatch):
    # past maxsize distinct keys the oldest goes, and computing it again
    # gives the same bits
    from fermatkl import eisenstein

    _fresh_store(monkeypatch)
    g, reps = gamma_n(2), cusp_reps(2)
    i = eisenstein._lane_class(g, reps[0].rep, reps[-1].rep)
    bound = eisenstein._phis.cache_info().maxsize
    first = eisenstein._phis(g, i, 2, 20, 1.5)
    for t in range(1, bound + 1):
        eisenstein._phis(g, i, 2, 20, 1.5 + t / 64)
    info = eisenstein._phis.cache_info()
    assert info.currsize <= bound and info.misses == bound + 1
    again = eisenstein._phis(g, i, 2, 20, 1.5)
    assert eisenstein._phis.cache_info().misses == info.misses + 1
    assert again is not first and list(map(_bits, again)) == list(map(_bits, first))


def test_classify_index_consistency():
    for n in (2, 3):
        g = gamma_n(n)
        reps = cusp_reps(n)
        for i, fc in enumerate(reps):
            assert classify_index(g, fc.rep.p, fc.rep.q) == i
            assert standard_rep(g, fc.rep) == fc.rep


def test_direct_all_buckets_partition_gamma2():
    # level-n buckets over a level-2 class sum to the level-2 bucket; the
    # sum over some classes gives their buckets of the sum over all bit for
    # bit, in the order asked, and eisenstein_direct that of its own class
    z, s = 0.2 + 1.1j, 2.0
    tr = TruncationSpec(c_max=120)
    vals_2, _ = eisenstein_direct_all(GAMMA2, z, s, tr)
    for n in (1, 2, 3, 4):
        g = gamma_n(n)
        vals_n, tail = eisenstein_direct_all(g, z, s, tr)
        reps = cusp_reps(n)
        for idx, base in enumerate((CUSP_ZERO, CUSP_ONE, CUSP_INF)):
            sub = [i for i, fc in enumerate(reps) if gamma2_base(fc.rep) == base][::-1]
            part, part_tail = eisenstein_direct_all(g, z, s, tr, sub)
            assert part.tolist() == vals_n[sub].tolist() and part_tail == tail
            assert abs(sum(part) - vals_2[idx]) < 1e-12 * abs(vals_2[idx])
        pref = complex(g.width) ** -s
        for i, fc in enumerate(reps):
            assert eisenstein_direct(g, fc.rep, z, s, tr) == (pref * vals_n[i], abs(pref) * tail)
    for bad in ((0, 0), (3,), (-1,)):
        with pytest.raises(ValueError):
            eisenstein_direct_all(GAMMA2, z, s, tr, bad)


def _direct_all_per_c(group, z, s, trunc):
    """Oracle for the buckets of eisenstein_direct_all: one c at a time,
    every row of a c over the translates of the widest window, those
    with |w| > m_cut masked out."""
    from fermatkl import eisenstein

    x, y = z.real, z.imag
    n_classes = len(group_cusps(group))
    vals = np.zeros(n_classes, dtype=complex)
    ys = complex(y) ** s
    vals[classify_index(group, 1, 0)] += ys
    parts = [(i, *eisenstein._class_rows(group, i, trunc.c_max)) for i in range(n_classes)]
    m_cut = trunc.c_max * (abs(x) + y + 3.0)
    for c in range(1, trunc.c_max + 1):
        cx = c * x
        cy2 = (c * y) ** 2
        shifts = {}  # the translates of d for each period step c
        for pos, step, d_col, bounds in parts:
            lo, hi = bounds[c - 1], bounds[c]
            if lo == hi:
                continue
            if step not in shifts:
                P = step * c
                t_lo = math.floor((-m_cut - cx) / P) - 1
                t_hi = math.ceil((m_cut - cx) / P) + 1
                shifts[step] = np.arange(t_lo, t_hi + 1, dtype=np.int64) * P
            w = cx + (d_col[lo:hi][None, :] + shifts[step][:, None]).astype(float)
            keep = np.abs(w) <= m_cut
            mod2 = w * w + cy2
            terms = eisenstein._power_terms(mod2, s)
            vals[pos] += ys * np.where(keep, terms, 0.0).sum()
    return vals


def _strip_bound(z, s, trunc):
    """Bound of the terms past the window |c x + d + t P| <= m_cut of the
    buckets: a c takes each integer d + t P at most once per class, so at
    most y^sigma (m_cut^(-2 sigma) + integral of w^(-2 sigma) past m_cut)
    on each side."""
    y, sigma = z.imag, complex(s).real
    m_cut = trunc.c_max * (abs(z.real) + y + 3.0)
    return trunc.c_max * 2.0 * y ** sigma * (m_cut ** (-2 * sigma)
                                             + m_cut ** (1 - 2 * sigma) / (2 * sigma - 1))


def _direct_all_closed_per_c(group, z, trunc):
    """Oracle for the buckets of eisenstein_direct_all at s = 2: one c at
    a time, each row's translates summed in the textbook form
    -(1/2 beta) d/dbeta of (pi/beta) sinh u/(cosh u - cos v), that is
    pi sinh u/(2 beta^3 D) - pi^2 (1 - cosh u cos v)/(beta^2 D^2) with
    D = cosh u - cos v, u = 2 pi beta and v = 2 pi alpha, alpha = (c x + d)/P
    and beta = y/step.  D and 1 - cosh u cos v are taken by the half-angle
    forms 2 sinh(u/2)^2 + 2 sin(v/2)^2 and 2 cosh u sin(v/2)^2 - 2 sinh(u/2)^2,
    as cosh u - cos v loses 3e-14 of D near a pole at beta = 0.02, and
    v/2 = pi alpha with alpha reduced to [-1/2, 1/2], exactly."""
    from fermatkl import eisenstein

    x, y = z.real, z.imag
    vals = np.zeros(len(group_cusps(group)))
    vals[classify_index(group, 1, 0)] += y * y
    for i in range(vals.size):
        step, d_col, bounds = eisenstein._class_rows(group, i, trunc.c_max)
        beta = y / step
        u = 2 * math.pi * beta
        sh, ch, sh_half2 = math.sinh(u), math.cosh(u), math.sinh(u / 2) ** 2
        for c in range(1, trunc.c_max + 1):
            alpha = (c * x + d_col[bounds[c - 1]:bounds[c]]) / (step * c)
            sin2 = np.sin(math.pi * (alpha - np.rint(alpha))) ** 2
            den = 2 * (sh_half2 + sin2)
            rows = math.pi * sh / (2 * beta ** 3 * den) \
                - math.pi ** 2 * 2 * (ch * sin2 - sh_half2) / (beta ** 2 * den ** 2)
            vals[i] += y * y * rows.sum() / (step * c) ** 4
    return vals


DIRECT_GROUPS = (GAMMA1, GAMMA2, gamma_n(2), gamma_n(3), gamma_n(4), gamma_n(5))
DIRECT_S = (1.5, 2.0, 3.0, 1.5 + 0.7j)
DIRECT_Z = (-2.0 + 0.3j, 0.25 + 1.0j, 1.7 + 0.45j, -0.6 + 3.0j, 2.0 + 1.9j)


def _assert_direct_matches_per_c(c_maxes, zs=DIRECT_Z, groups=DIRECT_GROUPS, tol=1e-12):
    # at s = 2 the buckets sum every translate in closed form: at least the
    # window's sum, at most its omitted strip above it, and within tol of
    # the textbook form; at every other s within tol of the window's sum
    for c_max in c_maxes:
        tr = TruncationSpec(c_max=c_max)
        for g in groups:
            for s in DIRECT_S:
                for z in zs:
                    got, _ = eisenstein_direct_all(g, z, s, tr)
                    # the window is cut where the buckets are summed, at x
                    # reduced by the width; the closed form below is not
                    w = complex(math.remainder(z.real, g.width), z.imag)
                    want = _direct_all_per_c(g, w, s, tr)
                    if s != 2:
                        assert np.all(np.abs(got - want) <= tol * np.abs(want)), (g, c_max, s, z)
                        continue
                    assert np.all(got.imag == 0) and np.all(want.imag == 0)
                    got, want = got.real, want.real
                    assert np.all(want <= got), (g, c_max, z)
                    assert np.all(got <= want + _strip_bound(w, s, tr) + 1e-12 * want), (g, c_max, z)
                    oracle = _direct_all_closed_per_c(g, z, tr)
                    assert np.all(np.abs(got - oracle) <= tol * oracle), (g, c_max, z)


def test_direct_blocks_match_per_c_oracle():
    # every bucket of the blocked kernel against the per-c loop
    _assert_direct_matches_per_c((60, 250))


@pytest.mark.parametrize("block", [1, 64])
def test_direct_small_blocks_match_per_c_oracle(monkeypatch, block):
    # row blocks of one c each, whose rectangles pass the block size, or
    # of a few c's, at every s
    from fermatkl import eisenstein

    monkeypatch.setattr(eisenstein, "_DIRECT_BLOCK", block)
    monkeypatch.setattr(eisenstein, "_PHASE_BLOCK", block)
    _assert_direct_matches_per_c((60,))


def test_direct_matches_per_c_oracle_at_large_x():
    # at |x| up to 7.7 and Im z down to 0.2 the row start d + t_lo P is
    # far from c x: folding c x into the start before the translates are
    # added rounds twice and misses by up to 4.5e-13; at s = 2 alpha takes
    # the exact remainder of x mod step.  The sums reduce x by the width,
    # 2N, so Gamma_8 is the group here that sums at x = -7.7 itself
    _assert_direct_matches_per_c((120,), (5.3 + 0.35j, -7.7 + 0.2j),
                                 (GAMMA2, gamma_n(3), gamma_n(5), gamma_n(8)), 1e-14)


def test_window_near_poles_matches_per_c_oracle():
    # at levels 5 and 7 and Im z down to 0.12 a row's nearest translate
    # dominates its window: the terms, taken from d + t P and c x as the
    # oracle takes them, stay within 1e-14 of it at every s but 2
    for c_max in (60, 120):
        tr = TruncationSpec(c_max=c_max)
        for g in (gamma_n(5), gamma_n(7)):
            for z in (0.2 + 0.15j, -0.3 + 0.12j):
                for s in DIRECT_S:
                    if s == 2:
                        continue
                    got, _ = eisenstein_direct_all(g, z, s, tr)
                    want = _direct_all_per_c(g, z, s, tr)
                    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (g, c_max, z, s)


def test_translate_sums_match_nsum():
    # the closed form of one row over every translate against mpmath's
    # nsum over t in Z, near the poles alpha = 0 and 1 and halfway, on
    # both sides of the series switch at u = 2 pi beta = 1
    from fermatkl import eisenstein

    mpmath = pytest.importorskip("mpmath")
    alphas = (0.0, 1e-7, 0.5 - 1e-6, 0.5, 1 - 1e-9, 1.0)
    with mpmath.mp.workdps(30):
        for beta in (0.01, 0.1, 0.159, 0.16, 1.0, 3.0, 50.0):
            sin2 = np.array([math.sin(math.pi * a) ** 2 for a in alphas])
            got = eisenstein._translate_sums(sin2, eisenstein._translate_coefficients(beta))
            for a, value in zip(alphas, got):
                want = mpmath.nsum(lambda t: ((a + t) ** 2 + beta ** 2) ** -2,
                                   [-mpmath.inf, mpmath.inf])
                assert abs(value - want) <= 1e-13 * want, (beta, a)


def test_direct_closed_form_meets_window_near_s_2():
    # s = 2 sums every translate, s = 2 -+ 1e-9 the window: they agree
    # within the window's strip estimate, by which the tail estimate grows
    # off s = 2
    tr = TruncationSpec(c_max=120)
    for g in (GAMMA2, gamma_n(3)):
        for z in (0.3 + 1.1j, -2.0 + 0.3j):
            at_2, tail = eisenstein_direct_all(g, z, 2.0, tr)
            for s in (2 - 1e-9, 2 + 1e-9):
                near, near_tail = eisenstein_direct_all(g, z, s, tr)
                assert near_tail > tail
                assert np.all(np.abs(at_2 - near) <= near_tail - tail), (g, z, s)


def _plain_coefficients(sign, rate):
    """_translate_coefficients in the plain form [A - B G/E]/E, with
    q = e^(-rate pi beta) and the sign of its second term as given."""
    def coefficients(beta):
        q = math.exp(-rate * math.pi * beta)
        a = 1 - q
        big_a, big_b = math.pi * (1 - q * q) / (2 * beta ** 3), 2 * math.pi ** 2 * q / beta ** 2
        # (A E - sign B G)/E^2, E = a^2 + 4 q sin2, G = 2 (1 + q^2) sin2 - a^2
        return (a * a * (big_a + sign * big_b), 4 * q * big_a - sign * 2 * (1 + q * q) * big_b,
                4 * q, a * a)
    return coefficients


@pytest.mark.parametrize("sign, rate", [(-1, 2), (1, 1)])
def test_closed_form_mutant_fails_cross_path(monkeypatch, sign, rate):
    # the direct sum at s = 2 shares only the class rows with the Fourier
    # side, so the cross path sees an error in its closed form: the second
    # term with its sign flipped, or q = e^(-pi beta), fails the suite's
    # pairs on Gamma(2) and the pair (0, inf) on Gamma_3 (residuals 1e-3 to
    # 0.4), where the plain form passes
    from fermatkl import eisenstein, verify

    tr = TruncationSpec(c_max=400)
    reps = cusp_reps(3)
    cases = ((GAMMA2, CUSP_INF, CUSP_INF), (GAMMA2, CUSP_ZERO, CUSP_INF),
             (gamma_n(3), reps[0].rep, reps[-1].rep))

    def passed(coefficients):
        monkeypatch.setattr(eisenstein, "_translate_coefficients", coefficients)
        return [verify.check_cross_path(g, j, k, 1j, 2.0, tr).passed for g, j, k in cases]

    assert passed(_plain_coefficients(1, 2)) == [True] * 3
    assert passed(_plain_coefficients(sign, rate)) == [False] * 3


def test_direct_sums_on_threads_match_serial():
    # a call's row blocks, rectangles and per-c sums are its own: four
    # threads summing at once, each case in its own order, get the serial
    # bits
    import sys
    import threading

    tr = TruncationSpec(c_max=150)
    cases = [(g, j, z, s) for g in (GAMMA2, gamma_n(3))
             for j in (CUSP_INF, cusp_reps(g.n)[0].rep)
             for z in (0.3 + 0.8j, -2.1 + 0.4j) for s in (2.0, 1.5 + 0.7j)]
    want = [eisenstein_direct(*case, tr) for case in cases]
    bad, old = [], sys.getswitchinterval()
    start = threading.Barrier(4)

    def work(seed):
        start.wait(timeout=60)
        for i in range(2 * len(cases)):
            pos = (seed * 5 + i) % len(cases)
            if eisenstein_direct(*cases[pos], tr) != want[pos]:
                bad.append(cases[pos])

    threads = [threading.Thread(target=_recording(work, bad), args=(t,)) for t in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_direct_working_memory_bounded():
    # a warm direct sum allocates block-sized arrays, none over all rows
    import tracemalloc

    for g, c_max in ((GAMMA2, 500), (gamma_n(3), 250), (gamma_n(5), 250)):
        tr = TruncationSpec(c_max=c_max)
        for j in (CUSP_INF, cusp_reps(g.n)[0].rep):
            for s in (2.0, 3.0, 1.5 + 0.7j):
                eisenstein_direct(g, j, -0.4 + 1.3j, s, tr)
                tracemalloc.start()
                try:
                    eisenstein_direct(g, j, -0.4 + 1.3j, s, tr)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 1 << 20, (g, j, s, peak)


def test_class_rows_read_copies_no_column():
    # a warm read is a prefix of the kept rows and bounds, as views: no
    # column is copied
    import tracemalloc

    from fermatkl import eisenstein

    for i in range(3):
        eisenstein._class_rows(GAMMA2, i, 500)
        tracemalloc.start()
        try:
            eisenstein._class_rows(GAMMA2, i, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, (i, peak)


def test_averaged_translate_relation():
    # width-scaled coset average of Fermat-group series reproduces the
    # level-2 series: N = 2, s = 2, relative error <= 1e-4
    n, s = 2, 2.0
    g = gamma_n(n)
    tr = TruncationSpec(c_max=250)
    for (j, k) in ((CUSP_INF, CUSP_INF), (CUSP_ZERO, Cusp(1, 2))):
        gk = cusp_scaling_matrix(k)
        zz = mobius_point(gk, 1j)
        lhs = 0j
        for rep in coset_reps(n):
            v, _ = eisenstein_direct(g, j, mobius_point(rep, zz), s, tr)
            lhs += v
        lhs /= (2 * n) ** (1 - s)
        v2, _ = eisenstein_direct(GAMMA2, j, zz, s, tr)
        rhs = v2 / 2 ** (1 - s)
        assert abs(lhs - rhs) / abs(rhs) < 1e-4


def test_klf_constant_independent_of_cusp():
    # the additive constant extracted as the difference of the two KLF
    # sides agrees across expansion cusps (1e-5)
    import fermatkl.scattering as scattering
    from fermatkl.qseries import FormLabel, expansion
    from fractions import Fraction

    tr = TruncationSpec(c_max=400, m_max=14)
    z = 1 + 2j
    glabels = {0: "g0", 1: "g1", 2: "ginf"}
    consts = []
    for idx, j in enumerate((CUSP_ZERO, CUSP_ONE, CUSP_INF)):
        lhs = fourier_limit_eval(GAMMA2, j, CUSP_INF, z, tr)
        gv, _ = expansion(FormLabel(glabels[idx]), Fraction(22)).evaluate(z)
        consts.append((lhs + math.log(abs(gv) ** 2 * z.imag ** 2)).real)
    assert max(consts) - min(consts) < 1e-5
    n = 2
    g = gamma_n(n)
    chart = cusp_reps(n)[-1].rep
    fconsts = []
    for fc in (cusp_reps(n)[0], cusp_reps(n)[n], cusp_reps(n)[-1]):
        lhs = fourier_limit_eval(g, fc.rep, chart, z, tr)
        fv, _ = expansion(FormLabel("f", n, fc.kind, fc.index), Fraction(20)).evaluate(z)
        fconsts.append((lhs + math.log(abs(fv) ** 2 * z.imag ** 2) / n ** 2).real)
    assert max(fconsts) - min(fconsts) < 1e-5


def _kappa_sums(g):
    """Exponent sums of g T^2 g^-1, the stabilizer generator of g(inf)."""
    from fermatkl.sl2 import GEN1, gamma2_exponent_sums

    k = g * GEN1 * g.inverse()
    return gamma2_exponent_sums(k.a, k.b, k.c, k.d)


def test_stabilizer_sums_table():
    # the oracle's table keyed by level-2 base against the conjugated
    # stabilizer of every standard representative, and the one base-pair
    # matrix
    for n in range(1, 7):
        for fc in cusp_reps(n):
            base = gamma2_base(fc.rep)
            assert STABILIZER_SUMS[base] == _kappa_sums(cusp_scaling_matrix(fc.rep)), (n, fc)
            assert STABILIZER_SUMS[base] == _kappa_sums(cusp_scaling_matrix(base))
    for jb in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
        for kb in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
            pt = base_pair_matrix(jb, kb)
            assert pt == cusp_scaling_matrix(jb).inverse() * cusp_scaling_matrix(kb)


def _character_column_dedekind(pair, c, d):
    """u of the base pair per lane from the Dedekind-sum exponent sums of
    rho = g_bj M g_bk^-1, with M's top row from d^-1 mod c: the reference
    for the coset-word pass of the character oracle."""
    jb, kb = pair
    gj, gk = cusp_scaling_matrix(jb), cusp_scaling_matrix(kb)
    pa, pb, _, _ = ((x & 1) for x in base_pair_matrix(jb, kb).entries())
    v1, v2 = STABILIZER_SUMS[jb]
    e, f, g_, h = gj.entries()
    ki11, ki12, ki21, ki22 = gk.inverse().entries()
    # a d = 1 (mod c) with the parity of g_bj^-1 g_bk: one of a0, a0 + c
    a = mod_inverse_batch(d, c)
    a = np.where(((a & 1) == pa) & ((((a * d - 1) // c) & 1) == pb), a, a + c)
    b = (a * d - 1) // c
    m11, m12 = e * a + f * c, e * b + f * d
    m21, m22 = g_ * a + h * c, g_ * b + h * d
    r1, r2 = gamma2_exponent_sums_batch(m11 * ki11 + m12 * ki21, m11 * ki12 + m12 * ki22,
                                        m21 * ki11 + m22 * ki21, m21 * ki12 + m22 * ki22)
    return r1 * v2 - r2 * v1


def test_character_column_matches_dedekind_oracle():
    # every base pair over its rows at c_max 1000, and over seeded rows of
    # the pair's parity with c < 2^25 and d = 1, c - 1, c + 1, 2c - 1 among
    # them, where floor quotients would take about c rounds
    from fermatkl import eisenstein as e

    rng = np.random.default_rng(2011)
    bases = (CUSP_ZERO, CUSP_ONE, CUSP_INF)
    for jb in bases:
        for kb in bases:
            pt = base_pair_matrix(jb, kb)
            pc, pd = pt.c & 1, pt.d & 1
            rows = e._enumerate_lanes((2, pc, pd), 1000)
            c, d = rows.c_column(), rows.d.astype(np.int64)
            u = character_column((jb, kb), c.astype(np.int32), d.astype(np.int32))
            assert u.dtype == np.int32
            assert np.array_equal(u, _character_column_dedekind((jb, kb), c, d)), (jb, kb)
            c = 2 * rng.integers(1, 1 << 24, 1500) + pc
            d = np.concatenate([np.ones_like(c), c - 1, c + 1, 2 * c - 1,
                                rng.integers(0, 2 * c)])
            c = np.tile(c, 5)
            keep = (d % 2 == pd) & (np.gcd(c, d) == 1) & (d < 2 * c)
            c, d = c[keep], d[keep]
            assert c.size > 2000
            for special in (np.ones_like(c), c - 1, c + 1, 2 * c - 1):
                assert (d == special).any() == (special[0] % 2 == pd)
            u = character_column((jb, kb), c, d)
            assert np.array_equal(u, _character_column_dedekind((jb, kb), c, d)), (jb, kb)


def test_tau_column_matches_dedekind_oracle():
    # fermat's tau column against the Dedekind-sum classifier, over every
    # row of the three level-2 row sets at c_max 500, and over seeded rows
    # with c < 2^24 and d = 1, c - 1, c + 1, 2c - 1 among them
    from fermatkl import eisenstein as e
    from fermatkl.fermat import tau_column

    for key in ROWS_OF_BASE.values():
        rows = e._enumerate_lanes(key, 500)
        c, d = rows.c_column(), rows.d
        tau = tau_column(c, d)
        assert tau.dtype == np.int32
        assert np.array_equal(tau, class_invariants(-d.astype(np.int64), c)[1]), key
    rng = np.random.default_rng(1111)
    c = rng.integers(1, 1 << 24, 2000)
    d = np.concatenate([np.ones_like(c), c - 1, c + 1, 2 * c - 1, rng.integers(0, 2 * c)])
    c = np.tile(c, 5)
    keep = (np.gcd(c, d) == 1) & (d < 2 * c)
    c, d = c[keep], d[keep]
    for special in (np.ones_like(c), c - 1, c + 1, 2 * c - 1):
        assert (d == special).any()
    assert np.array_equal(tau_column(c, d), class_invariants(-d, c)[1])


def test_row_counts_are_totients():
    # the row column holds exactly the coprime rows, and the bounds from
    # the row counts that the gcd filter keeps split it by c: phi(w c) rows
    # for each c of the row set, which is phi(c), or 2 phi(c) for even c of
    # a level-2 row set
    from fermatkl import eisenstein as e

    phi = [0] + [sum(gcd(i, c) == 1 for i in range(c)) for c in range(1, 601)]
    for key in (ROWS_GAMMA1, *ROWS_OF_BASE.values()):
        w, c0, d0 = key
        for c_max in (1, 2, 37, 300):
            rows = e._enumerate_lanes(key, c_max)
            assert rows.step == w and rows.d.dtype == np.int32 and rows.bounds.dtype == np.int64
            want = [(cv, dv) for cv in range(1, c_max + 1) if cv % w == c0
                    for dv in range(d0, w * cv, w) if gcd(dv, cv) == 1]
            assert list(zip(rows.c_column().tolist(), rows.d.tolist())) == want, (key, c_max)
            assert rows.bounds.tolist() == [sum(cv <= c for cv, _ in want) for c in range(c_max + 1)]
            assert np.diff(rows.bounds).tolist() == [phi[w * c] if c % w == c0 else 0
                                                     for c in range(1, c_max + 1)], (key, c_max)


def test_direct_sums_read_cached_class_rows(monkeypatch):
    # the rows of each class are lifted or filtered once per level, read
    # as prefixes after, and built whole again for a larger c_max
    from fermatkl import eisenstein, fermat

    def refuse(*args):
        raise AssertionError("class rows built again")

    z = 0.3 + 1.1j
    for n in (2, 3):
        g = gamma_n(n)
        _fresh_store(monkeypatch)
        short, _ = eisenstein_direct_all(g, z, 2.0, TruncationSpec(c_max=25))
        store = _fresh_store(monkeypatch)
        full, _ = eisenstein_direct_all(g, z, 2.0, TruncationSpec(c_max=40))
        assert sorted(key for key in store if key[0] == "class") == [("class", n, i) for i in range(3 * n)]
        with monkeypatch.context() as patch:
            for name in ("_build_class_rows", "tau_column", "_enumerate_lanes"):
                patch.setattr(eisenstein, name, refuse)
            patch.setattr(fermat, "coset_word_sums_batch", refuse)
            assert np.array_equal(eisenstein_direct_all(g, z, 2.0, TruncationSpec(c_max=40))[0], full)
            assert np.array_equal(eisenstein_direct_all(g, z, 2.0, TruncationSpec(c_max=25))[0], short)
        eisenstein_direct_all(g, z, 2.0, TruncationSpec(c_max=60))
        for key, entry in store.items():
            assert _reach(entry) == 60
            _assert_one_build(key, entry.rows)


def _phi_items_per_d(group, j, k, c_max):
    """The per-d Fermat enumeration of admissible residues mod 2nc: the
    reference for the lane tables."""
    from fermatkl.sl2 import gamma2_exponent_sums

    gj, gk = cusp_scaling_matrix(j), cusp_scaling_matrix(k)
    pt = gj.inverse() * gk
    pa, pb, pc, pd = pt.a & 1, pt.b & 1, pt.c & 1, pt.d & 1
    n = group.n
    vj, vk = _kappa_sums(gj), _kappa_sums(gk)
    same_base = gamma2_base(j) == gamma2_base(k)
    if not same_base:
        det_inv = pow((vj[0] * vk[1] - vj[1] * vk[0]) % n, -1, n)
    e, f, g_, h = gj.entries()
    ki11, ki12, ki21, ki22 = gk.inverse().entries()
    items = []
    for c in range(1, c_max + 1):
        if (c & 1) != pc:
            items.append(np.empty(0, dtype=np.int64))
            continue
        out = []
        for dv in range(pd, 2 * c, 2):
            if gcd(dv, c) != 1:
                continue
            a0 = pow(dv, -1, c) if c > 1 else 0
            matched = None
            for a in (a0, a0 + c):
                b = (a * dv - 1) // c
                if (a & 1) == pa and (b & 1) == pb:
                    matched = (a, b)
                    break
            if matched is None:
                continue
            a, b = matched
            m11, m12 = e * a + f * c, e * b + f * dv
            m21, m22 = g_ * a + h * c, g_ * b + h * dv
            sums = gamma2_exponent_sums(m11 * ki11 + m12 * ki21, m11 * ki12 + m12 * ki22,
                                        m21 * ki11 + m22 * ki21, m21 * ki12 + m22 * ki22)
            r1, r2 = sums[0] % n, sums[1] % n
            if same_base:
                if (r1 * vj[1] - r2 * vj[0]) % n == 0:
                    out.extend((dv + 2 * c * t) % (2 * n * c) for t in range(n))
            else:
                t = (-vj[1] * (-r1) + vj[0] * (-r2)) * det_inv % n
                out.append((dv + 2 * c * t) % (2 * n * c))
        items.append(np.array(sorted(out), dtype=np.int64))
    return items


def _oracle_sums(items, m, width):
    """Inner sums e(m d/(width c)) over per-c residue arrays."""
    return np.array([np.exp((2j * math.pi * m / (width * c)) * arr).sum()
                     for c, arr in enumerate(items, start=1)])


def _fresh_store(monkeypatch):
    # the memoized phi sums go too, so that the next Fourier call reads
    # the new store's lanes
    from fermatkl import eisenstein

    monkeypatch.setattr(eisenstein, "_TABLES", OrderedDict())
    eisenstein._phis.cache_clear()
    return eisenstein._TABLES


# The keys of the four row sets: the full modular group's, and the
# level-2 parity classes that hold the direct-sum rows of inf, 0 and 1.
ROWS_GAMMA1 = (1, 0, 0)
ROWS_OF_BASE = {CUSP_INF: (2, 0, 1), CUSP_ZERO: (2, 1, 0), CUSP_ONE: (2, 1, 1)}


def _class_buckets(group, c_max):
    """The residues mod width c of every (c, class) bucket of the direct
    sums for c <= c_max, c major, as sorted lists read through the
    store."""
    from fermatkl import eisenstein

    n_classes = len(group_cusps(group))
    out = [[] for _ in range(c_max * n_classes)]
    for i in range(n_classes):
        step, d, bounds = eisenstein._class_rows(group, i, c_max)
        for c in range(1, c_max + 1):
            for dv in d[bounds[c - 1]:bounds[c]].tolist():
                out[(c - 1) * n_classes + i] += range(dv, group.width * c, step * c)
    return [sorted(bucket) for bucket in out]


def _reach(entry) -> int:
    """The c_max that a stored entry was built for."""
    return entry.rows.bounds.size - 1


def _row_set_keys(store) -> set:
    return {key for key in store if key[0] not in ("tau", "class")}


def _one_build(key, c_max: int):
    """The entry key of the store built whole for c_max in an empty store."""
    from fermatkl import eisenstein

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eisenstein, "_TABLES", OrderedDict())
        if key[0] == "tau":
            return eisenstein._tau_rows(key[1], c_max)
        if key[0] == "class":
            return eisenstein._class_rows(gamma_n(key[1]), key[2], c_max)
        return eisenstein._row_set(key, c_max)


def _assert_same_rows(got, want, key):
    assert got.step == want.step, key
    assert got.d.dtype == want.d.dtype == np.int32 and np.array_equal(got.d, want.d), key
    assert got.bounds.dtype == want.bounds.dtype == np.int64, key
    assert np.array_equal(got.bounds, want.bounds), key


def _assert_one_build(key, rows):
    """A stored entry, a row set, tau or class rows, equals one build of
    it from c = 1 in an empty store, and tau the Dedekind-sum
    classifier's."""
    _assert_same_rows(rows, _one_build(key, rows.bounds.size - 1), key)
    if key[0] == "tau":
        tau = class_invariants(-_one_build(key[1], rows.bounds.size - 1).d.astype(np.int64),
                               rows.c_column())[1]
        assert np.array_equal(rows.d, tau), key


def test_batched_fermat_enumeration_matches_per_d_loop():
    for n in (1, 2, 3, 4):
        g = gamma_n(n)
        b = g.width
        modes = (1, 2, n, 2 * n + 1, 3 * n)
        for fj in cusp_reps(n):
            for fk in cusp_reps(n):
                want = _phi_items_per_d(g, fj.rep, fk.rep, 60)
                counts, *pos = inner_sums(g, fj.rep, fk.rep, (0,) + modes, 60)
                assert counts.real.tolist() == [arr.size for arr in want]
                assert not counts.imag.any()
                neg = inner_sums(g, fj.rep, fk.rep, [-m for m in modes], 60)
                vanish = gamma2_base(fj.rep) == gamma2_base(fk.rep)
                for m, got, got_neg in zip(modes, pos, neg):
                    assert np.abs(got - _oracle_sums(want, m, b)).max() < 1e-12, (n, fj, fk, m)
                    assert np.abs(got_neg - _oracle_sums(want, -m, b)).max() < 1e-12, (n, fj, fk, m)
                    # -m is the conjugate of m exactly, the vanishing same-base modes too
                    assert np.array_equal(got_neg, got.conj()), (n, fj, fk, m)
                    if vanish and m % n:
                        assert not got.any()
                # every m mod b c for c <= 12 pins down the residue multiset
                every = inner_sums(g, fj.rep, fk.rep, range(b * 12), 12)
                for m, got in enumerate(every):
                    assert np.abs(got - _oracle_sums(want[:12], m, b)).max() < 1e-12, (n, fj, fk, m)


def _inner_sums_trig(group, j, k, ms, c_max):
    """inner_sums with cos and sin taken over every lane for each mode,
    on the lanes of the character oracle: the reference for the powers of
    the unit phase."""
    c, d, weight = character_lanes(group, j, k, c_max)
    bounds = np.searchsorted(c, np.arange(c_max + 1), side="right")
    counts = np.diff(bounds)
    full = counts > 0
    starts = bounds[:-1][full]
    rows = np.zeros((len(ms), c_max), dtype=complex)
    for row, m in zip(rows, ms):
        if m == 0:
            row[:] = weight * counts
        elif not m % weight:
            theta = (d / c) * (2.0 * math.pi * m / group.width)
            row[full] = weight * (np.add.reduceat(np.cos(theta), starts)
                                  + 1j * np.add.reduceat(np.sin(theta), starts))
    return rows


def test_inner_sums_unit_phase_matches_trig_oracle():
    # the bound of the inner_sums docstring, W L (15 k + L) u, plus the
    # oracle's own: its phase 2 pi m d/(b c) < 2 pi |m| carries 13 |m| u
    unit, c_max = 2.0 ** -53, 500
    worst = 0.0
    groups = [(GAMMA1, {CUSP_INF: [CUSP_INF]})]
    for n in (1, 2, 3, 4):
        groups.append((gamma_n(n), {base: [fc.rep for fc in cusp_reps(n) if gamma2_base(fc.rep) == base]
                                    for base in (CUSP_ZERO, CUSP_ONE, CUSP_INF)}))
    for g, over in groups:
        n = g.n if g.kind == "gamma_n" else 1
        modes = range(-(2 * n + 3), 2 * n + 4)
        for a, js in enumerate(over.values()):
            for b, ks in enumerate(over.values()):
                j, k = js[(a + b) % len(js)], ks[-1 - a % len(ks)]
                same = n > 1 and gamma2_base(j) == gamma2_base(k)
                weight = period = n if same else 1
                got = inner_sums(g, j, k, modes, c_max)
                want = _inner_sums_trig(g, j, k, modes, c_max)
                lanes = want[modes.index(0)].real / weight
                for m, row, ref in zip(modes, got, want):
                    assert np.array_equal(row, got[modes.index(-m)].conj()), (g, j, k, m)
                    if m % period:
                        assert not row.any(), (g, j, k, m)
                        continue
                    bound = weight * lanes * (15 * abs(m) // period + 13 * abs(m) + 2 + 2 * lanes) * unit
                    err = np.abs(row - ref)
                    assert (err <= bound).all(), (g, j, k, m, float((err - bound).max()))
                    worst = max(worst, float(err.max()))
    assert worst < 1e-11


def test_inner_sums_match_character_oracle(monkeypatch):
    # the class rows of g_k^-1(j) against the lanes that the character u
    # of the base pair selects, bit for bit, on every pair of the full
    # modular group, the level-2 group and levels 2, 3, 4, 5 and 7
    _fresh_store(monkeypatch)
    modes = (0, *range(1, 11), *range(-1, -11, -1))
    cases = [(GAMMA1, CUSP_INF, CUSP_INF)]
    for g in (GAMMA2, *(gamma_n(n) for n in (2, 3, 4, 5, 7))):
        reps = [fc.rep for fc in cusp_reps(g.n)]
        cases += [(g, j, k) for j in reps for k in reps]
    assert len(cases) == 937
    for c_max in (37, 250):
        for g, j, k in cases:
            assert np.array_equal(inner_sums(g, j, k, modes, c_max),
                                  inner_sums_character(g, j, k, modes, c_max)), (g, j, k, c_max)


def test_batched_fermat_enumeration_extends(monkeypatch):
    from fermatkl import eisenstein

    for n in (2, 3):
        g = gamma_n(n)
        for j, k in ((cusp_reps(n)[n].rep, cusp_reps(n)[-1].rep),
                     (cusp_reps(n)[-1].rep, cusp_reps(n)[-1].rep)):
            lanes = _fresh_store(monkeypatch)
            # level 2 first (no tau), then level n reads past the reach twice
            inner_sums(GAMMA2, gamma2_base(j), gamma2_base(k), (1,), 40)
            inner_sums(g, j, k, (1,), 80)
            grown = inner_sums(g, j, k, (0, 1, n), 120)
            (key,) = _row_set_keys(lanes)
            # the Fourier class rows are built from tau on each read, not kept
            assert set(lanes) == {key, ("tau", key)}
            table = {name: entry.rows for name, entry in lanes.items()}
            lanes = _fresh_store(monkeypatch)
            fresh = inner_sums(g, j, k, (0, 1, n), 120)
            assert set(lanes) == set(table)
            for name, entry in lanes.items():
                assert _reach(entry) == 120
                _assert_same_rows(table[name], entry.rows, name)
            assert np.array_equal(grown, fresh)


def test_levels_share_one_lane_table(monkeypatch):
    from fermatkl import eisenstein, fermat

    lanes = _fresh_store(monkeypatch)
    calls = []
    for module, name in ((eisenstein, "_enumerate_lanes"), (fermat, "coset_word_sums_batch")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    # the cusps 2 at level 2 and 4 at level 3, both over 0, then the level-2 0
    for n in (2, 3):
        inner_sums(gamma_n(n), cusp_reps(n)[n - 1].rep, CUSP_INF, (1,), 60)
    inner_sums(GAMMA2, CUSP_ZERO, CUSP_INF, (1,), 60)
    zero = ROWS_OF_BASE[CUSP_ZERO]
    assert set(lanes) == {zero, ("tau", zero)}
    assert calls == ["_enumerate_lanes", "coset_word_sums_batch"]


def test_level2_reads_lanes_without_exponent_sums(monkeypatch):
    from fermatkl import eisenstein, fermat

    def refuse(*args):
        raise AssertionError("exponent sums on a level-2 request")

    store = _fresh_store(monkeypatch)
    # the lanes of a pair are those of the class of g_k^-1(j), which the
    # level-1 exit of the classifier reads from parities alone
    for name in ("coset_word_sums_batch", "gamma2_exponent_sums", "_coset_word"):
        monkeypatch.setattr(fermat, name, refuse)
    tr = TruncationSpec(c_max=80)
    for j in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
        for k in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
            for m in (0, 3):
                phi_coefficient(GAMMA2, j, k, m, 2.0, tr)
    assert set(store) == set(ROWS_OF_BASE.values())
    # a cold store: the direct sums compute no tau either
    store = _fresh_store(monkeypatch)
    assert [fermat.classify_rep_index(p, q, 1) for p, q in ((0, 1), (1, 1), (1, 2), (-3, 5))] == [0, 1, 2, 1]
    for j in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
        eisenstein_direct(GAMMA2, j, 0.3 + 1.1j, 2.0, tr)
    assert set(store) == set(ROWS_OF_BASE.values())
    assert all(_reach(entry) == tr.c_max for entry in store.values())


def test_batched_class_table_matches_per_d_loop(monkeypatch):
    from fermatkl import eisenstein
    from fermatkl.fermat import classify_rep_index

    def per_d(d0, c, n):
        # against the Euclidean classifier, which reduces the cusp step by
        # step and shares no exponent-sum code or round table with the tau
        # column; the exact-int classify_rep_index must agree with it too
        index = cusp_reps(n).index(classify_cusp_word_euclid(Cusp(-d0, c), n)[0])
        assert classify_rep_index(-d0, c, n) == index, (d0, c, n)
        return index

    store = _fresh_store(monkeypatch)
    for n in (1, 2, 3, 4, 5):
        g = gamma_n(n)
        want = [[] for _ in range(80 * 3 * n)]
        for c in range(1, 81):
            for d0 in range(2 * n * c):
                if gcd(d0, c) == 1:
                    want[(c - 1) * 3 * n + per_d(d0, c, n)].append(d0)
        assert _class_buckets(g, 80) == want, n
        assert _row_set_keys(store) == set(ROWS_OF_BASE.values())
        for key, entry in store.items():
            rows = entry.rows
            assert rows.d.dtype == np.int32 and rows.bounds.dtype == np.int64, key
            assert rows.bounds[0] == 0 and rows.bounds[-1] == rows.d.size and _reach(entry) == 80, key
            if key in ROWS_OF_BASE.values():
                # rows sorted by c, then by d
                order = np.lexsort((rows.d, rows.c_column()))
                assert np.array_equal(order, np.arange(order.size)), key
            elif key[0] == "tau" or rows.step == 2 * key[1]:
                # tau and the lifted rows of a class over 0 or 1 are one
                # int32 per row of the row set, over its bounds
                base = key[1] if key[0] == "tau" else eisenstein._row_key(gamma_n(key[1]), key[2])
                assert np.array_equal(rows.bounds, store[base].rows.bounds), key
    # an entry read past its reach is built whole again, to the one build
    # at the new c_max, and a prefix read is the one build at its c_max
    for g in (GAMMA1, *(gamma_n(n) for n in (1, 2, 3, 4, 5))):
        store = _fresh_store(monkeypatch)
        eisenstein_direct(g, CUSP_INF, 0.3 + 1.1j, 2.0, TruncationSpec(c_max=100))
        grown = _class_buckets(g, 250)
        for key, entry in store.items():
            assert _reach(entry) == 250
            _assert_one_build(key, entry.rows)
        for i in range(len(group_cusps(g))):
            key = ("class", g.n, i) if g.n > 1 else eisenstein._row_key(g, i)
            _assert_same_rows(eisenstein._class_rows(g, i, 100), _one_build(key, 100), key)
        _fresh_store(monkeypatch)
        assert grown == _class_buckets(g, 250)


def _cells(store) -> dict:
    return {key: entry.cells() for key, entry in store.items()}


def test_phi_cache_evicts_least_recently_used(monkeypatch):
    from fermatkl import eisenstein

    store = _fresh_store(monkeypatch)
    monkeypatch.setattr(eisenstein, "_TABLE_CELLS", 2000)
    g = gamma_n(3)
    reps = cusp_reps(3)
    pairs = [(reps[i].rep, reps[-1].rep) for i in (0, 3, 6)]
    keys = [ROWS_OF_BASE[b] for b in (CUSP_ZERO, CUSP_ONE, CUSP_INF)]
    # the lanes of a pair read a row set and its tau, 851 cells each at
    # c 60 over 0 and 1: the second pair's entries pushed the first's out
    first = [inner_sums(g, j, k, (1,), 60) for j, k in pairs[:2]]
    assert _cells(store) == {keys[1]: 851, ("tau", keys[1]): 851}
    size1 = sum(_cells(store).values())
    inner_sums(g, *pairs[1], (1,), 60)
    inner_sums(g, *pairs[2], (1,), 60)
    assert list(store) == [keys[2], ("tau", keys[2])]
    # a dropped entry is enumerated again to the same sums
    assert np.array_equal(inner_sums(g, *pairs[0], (1,), 60), first[0])
    size0 = sum(_cells(store).values())
    assert size0 + size1 > 2000 >= max(size0, size1)
    # a row set and its tau past the bound are kept while in use, and
    # a second read builds neither again
    inner_sums(g, *pairs[2], (1,), 120)
    big = {key: entry.rows for key, entry in store.items()}
    assert list(big) == [keys[2], ("tau", keys[2])] and sum(_cells(store).values()) > 2000
    inner_sums(g, *pairs[2], (1,), 120)
    assert {key: entry.rows for key, entry in store.items()} == big
    assert all(store[key].rows is rows and _reach(store[key]) == 120 for key, rows in big.items())


def test_class_cache_evicts_least_recently_used(monkeypatch):
    from fermatkl import eisenstein

    store = _fresh_store(monkeypatch)
    monkeypatch.setattr(eisenstein, "_TABLE_CELLS", 1000)
    g = gamma_n(3)
    reps = cusp_reps(3)
    zero, inf = ROWS_OF_BASE[CUSP_ZERO], ROWS_OF_BASE[CUSP_INF]
    class_inf = ("class", 3, classify_index(g, 1, 0))

    # the direct sums and the lanes share the store and its cell bound,
    # an int64 bound two cells: the 190 rows of inf at c 30 and 31 bounds
    # take 252 cells, tau as many, and the 16 rows of c <= 15 that the
    # class inf keeps 48; the Fourier class rows are not kept
    tr = TruncationSpec(c_max=15)
    want = eisenstein_direct(g, CUSP_INF, 0.3 + 1.1j, 2.0, tr)
    _class_buckets(GAMMA1, 20)
    inner_sums(g, CUSP_INF, CUSP_INF, (1,), 30)
    assert _cells(store) == {class_inf: 48, ROWS_GAMMA1: 170, inf: 252, ("tau", inf): 252}
    # a build drops the least recently used entries: the rows of 0 and
    # their tau push out the class rows and the level-1 rows
    lanes = inner_sums(g, reps[0].rep, CUSP_INF, (1,), 30)
    assert list(store) == [inf, ("tau", inf), zero, ("tau", zero)]
    # a read moves an entry to the newest end, so the next build drops
    # the rows of 0, read before those of inf
    inner_sums(g, CUSP_INF, CUSP_INF, (1,), 30)
    _class_buckets(GAMMA1, 20)
    assert list(store) == [("tau", zero), inf, ("tau", inf), ROWS_GAMMA1]
    # a dropped entry is built again to the same sums
    assert np.array_equal(inner_sums(g, reps[0].rep, CUSP_INF, (1,), 30), lanes)
    assert sum(_cells(store).values()) <= 1000
    # class rows past the bound are kept while in use, with the row set
    # and tau that their build read, and their prefix gives the same
    # direct sum without a build
    eisenstein_direct(g, CUSP_INF, 0.3 + 1.1j, 2.0, TruncationSpec(c_max=60))
    assert _cells(store) == {inf: 868, ("tau", inf): 868, class_inf: 374}
    kept = store[class_inf].rows
    assert eisenstein_direct(g, CUSP_INF, 0.3 + 1.1j, 2.0, tr) == want
    assert store[class_inf].rows is kept


def test_lone_table_past_the_bound_keeps_what_was_read(monkeypatch):
    # entries past the bound: a read keeps the entry it read and those
    # that its build read, and drops the rest.  The rows of inf at c 80
    # are 1326, which with the bounds alone pass the bound
    from fermatkl import eisenstein

    store = _fresh_store(monkeypatch)
    monkeypatch.setattr(eisenstein, "_TABLE_CELLS", 1400)
    inf = ROWS_OF_BASE[CUSP_INF]
    tr = TruncationSpec(c_max=40)
    eisenstein_direct(GAMMA2, CUSP_INF, 0.3 + 1.1j, 2.0, TruncationSpec(c_max=80))
    assert _cells(store) == {inf: 1488}
    rows = store[inf].rows

    def read():
        lanes = inner_sums(gamma_n(3), CUSP_INF, CUSP_INF, (1,), 40)
        return lanes, [eisenstein_direct(gamma_n(n), CUSP_INF, 0.3 + 1.1j, 2.0, tr) for n in (3, 2)]

    # the class rows of level 2 went in last: those of level 3 were
    # dropped, and the row set is read as a prefix, not built again
    lanes, direct = read()
    class_2 = ("class", 2, classify_index(gamma_n(2), 1, 0))
    assert _cells(store) == {inf: 1488, ("tau", inf): 428, class_2: 262}
    assert store[inf].rows is rows
    # the dropped class rows are built again to the same sums, on the
    # kept row set and tau
    tau = store[("tau", inf)].rows
    again, direct_again = read()
    assert np.array_equal(again, lanes) and direct_again == direct
    assert list(store) == [inf, ("tau", inf), class_2]
    assert store[inf].rows is rows and store[("tau", inf)].rows is tau
    for key, entry in store.items():
        _assert_one_build(key, entry.rows)


def _recording(work, bad):
    """work with any exception it raises appended to bad: an exception in
    a thread is otherwise only a warning."""
    def run(*args):
        try:
            work(*args)
        except Exception as exc:
            bad.append(exc)
    return run


def test_class_cache_bound_under_threads(monkeypatch):
    import sys
    import threading

    from fermatkl import eisenstein

    # rows at c 40: 346 (inf), 317 (0) and 317 (1), 2452 cells with tau
    # and the bounds, and more with the class rows of levels 2 and 3, so
    # a bound of 2000 drops entries while the threads build them
    groups = [gamma_n(n) for n in (1, 2, 3)]
    _fresh_store(monkeypatch)
    want = {h: _class_buckets(h, 40) for h in groups}
    store = _fresh_store(monkeypatch)
    monkeypatch.setattr(eisenstein, "_TABLE_CELLS", 2000)
    bad, old = [], sys.getswitchinterval()

    def work(seed):
        for i in range(60):
            h = groups[(seed + i) % 3]
            c_max = 1 + (7 * seed + 13 * i) % 40
            if _class_buckets(h, c_max) != want[h][:c_max * 3 * h.n]:
                bad.append((h, c_max))

    threads = [threading.Thread(target=_recording(work, bad), args=(t,)) for t in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    # the cell bound holds, and no build was lost or mixed: each entry
    # is the one build
    assert sum(entry.cells() for entry in store.values()) <= 2000
    assert store and _row_set_keys(store) <= set(ROWS_OF_BASE.values())
    for key, entry in store.items():
        _assert_one_build(key, entry.rows)


def test_phi_cache_bound_under_threads(monkeypatch):
    import sys
    import threading

    from fermatkl import eisenstein

    _fresh_store(monkeypatch)
    g = gamma_n(3)
    reps = cusp_reps(3)
    pairs = [(fj.rep, reps[-1].rep) for fj in reps[::2]]
    want = {p: _phi_items_per_d(g, *p, 50) for p in pairs}
    groups = [gamma_n(n) for n in (1, 2, 3)]
    want_cls = {h: _class_buckets(h, 20) for h in groups}
    store = _fresh_store(monkeypatch)
    monkeypatch.setattr(eisenstein, "_TABLE_CELLS", 3000)
    bad, old = [], sys.getswitchinterval()

    def work(seed):
        for i in range(12):
            p = pairs[(seed + i) % len(pairs)]
            c_max = 30 + 10 * (i % 3)
            (got,) = inner_sums(g, *p, (1,), c_max)
            if np.abs(got - _oracle_sums(want[p][:c_max], 1, g.width)).max() > 1e-12:
                bad.append(p)
            h = groups[(seed + i) % 3]
            c_max = 1 + (7 * seed + 13 * i) % 20
            if _class_buckets(h, c_max) != want_cls[h][:c_max * 3 * h.n]:
                bad.append((h, c_max))

    threads = [threading.Thread(target=_recording(work, bad), args=(t,)) for t in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    # the cell bound holds, and no build was lost or mixed: each entry
    # is the one build
    assert sum(entry.cells() for entry in store.values()) <= 3000
    assert store and _row_set_keys(store) <= set(ROWS_OF_BASE.values())
    for key, entry in store.items():
        _assert_one_build(key, entry.rows)


def test_store_builds_each_entry_once_under_threads(monkeypatch):
    # four threads behind a barrier make the first read of a class entry,
    # the tau it is lifted by and the row set under both, each in its own
    # order: the per-entry locks build each once, and every read has the
    # bits of a serial one
    import sys
    import threading

    from fermatkl import eisenstein

    g, zero = gamma_n(3), ROWS_OF_BASE[CUSP_ZERO]
    reads = [lambda: eisenstein._class_rows(g, 0, 250),
             lambda: eisenstein._tau_rows(zero, 250),
             lambda: eisenstein._row_set(zero, 250)]
    _fresh_store(monkeypatch)
    want = [read() for read in reads]
    store = _fresh_store(monkeypatch)
    calls = []
    for name in ("_build_class_rows", "tau_column", "_enumerate_lanes"):
        real = getattr(eisenstein, name)
        monkeypatch.setattr(eisenstein, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    bad, old = [], sys.getswitchinterval()
    start = threading.Barrier(4)

    def work(seed):
        start.wait(timeout=60)
        for i in range(3):
            pos = (seed + i) % 3
            got = reads[pos]()
            if got.step != want[pos].step or not all(
                    x.dtype == y.dtype and np.array_equal(x, y)
                    for x, y in ((got.d, want[pos].d), (got.bounds, want[pos].bounds))):
                bad.append(pos)

    threads = [threading.Thread(target=_recording(work, bad), args=(t,)) for t in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    assert sorted(calls) == ["_build_class_rows", "_enumerate_lanes", "tau_column"]
    assert set(store) == {("class", 3, 0), ("tau", zero), zero}


def test_lane_arithmetic_in_int64(monkeypatch):
    # characters and class invariants congruent mod n at both ends of the
    # int32 range give the same sums: u + u0, (u + u0) det^-1 and tau - t
    # wrap if formed in int32
    from fermatkl import eisenstein

    n, g = 3, gamma_n(3)
    reps = cusp_reps(n)
    lim = np.iinfo(np.int32)

    def far(col):
        x = col.astype(np.int64)
        return np.where(np.arange(x.size) % 2, lim.max - (lim.max - x) % n,
                        lim.min + (x - lim.min) % n).astype(np.int32)

    def far_tau(store):
        for key in list(store):
            if key[0] == "tau":
                store[key].rows = store[key].rows._replace(d=far(store[key].rows.d))
            elif key[0] == "class":
                # the class rows are built again from the far tau
                del store[key]

    for j, k in ((reps[1].rep, reps[-1].rep), (reps[1].rep, reps[0].rep)):
        lanes = _fresh_store(monkeypatch)
        want = inner_sums(g, j, k, (0, 1, n), 30)
        far_tau(lanes)
        assert np.array_equal(inner_sums(g, j, k, (0, 1, n), 30), want)
    store = _fresh_store(monkeypatch)
    tr = TruncationSpec(c_max=30)
    want, _ = eisenstein_direct_all(g, 0.3 + 1.1j, 2.0, tr)
    far_tau(store)
    assert np.array_equal(eisenstein_direct_all(g, 0.3 + 1.1j, 2.0, tr)[0], want)


def test_four_row_sets_serve_every_table(monkeypatch):
    # the level-2 Fourier pairs, the Fermat lanes and every direct sum read
    # the same four tables, each enumerated once
    from fermatkl import eisenstein

    store = _fresh_store(monkeypatch)
    keys = []
    real = eisenstein._enumerate_lanes
    monkeypatch.setattr(eisenstein, "_enumerate_lanes",
                        lambda key, *args: keys.append(key) or real(key, *args))
    tr = TruncationSpec(c_max=60)
    for j in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
        for k in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
            phi_coefficient(GAMMA2, j, k, 1, 2.0, tr)
    for n in (2, 3):
        reps = cusp_reps(n)
        for j, k in ((reps[-1].rep, reps[-1].rep), (reps[0].rep, reps[-1].rep)):
            inner_sums(gamma_n(n), j, k, (0, 1, n), tr.c_max)
    for g in (GAMMA1, *(gamma_n(n) for n in (1, 2, 3, 4))):
        for j in group_cusps(g):
            eisenstein_direct(g, j, 0.3 + 1.1j, 2.0, tr)
    want = {ROWS_GAMMA1, *ROWS_OF_BASE.values()}
    assert len(keys) == 4 and set(keys) == _row_set_keys(store) == want


@pytest.mark.parametrize("state, field", [(state, field) for state in range(6) for field in range(3)])
def test_tau_map_off_by_one_fails_klf(monkeypatch, state, field):
    # the direct sums, the Fourier lanes and the classifier all read tau
    # through TAU_MAP, so a cross path alone could miss an error in it:
    # each entry plus 1 fails a Kronecker-limit check of the full suite
    from fermatkl import eisenstein, fermat, verify

    mutant = [list(row) for row in fermat.TAU_MAP]
    mutant[state][field] += 1
    mutant = tuple(map(tuple, mutant))
    monkeypatch.setattr(fermat, "TAU_MAP", mutant)
    _fresh_store(monkeypatch)
    try:
        reports = verify.run_suite("full", ns=(2, 3, 4))
    finally:
        # the phi memoized from the mutant map go before later tests
        eisenstein._phis.cache_clear()
    assert any(r.check_id == "klf_fermat" and not r.passed for r in reports)


@pytest.mark.parametrize("table, slot, lane",
                         [("_WALK_PER_J", i, lane) for i in range(6) for lane in (0, 1)]
                         + [("_WALK_FIXED", i, lane) for i in range(12) for lane in (0, 1)]
                         + [("_WALK_NEXT", i, None) for i in range(12)])
def test_round_table_off_by_one_fails_klf(monkeypatch, table, slot, lane):
    # both sides of a cross path read tau, and so the round tables of
    # the coset-word walk, so a cross path alone could miss an error in
    # them: the Kronecker-limit check, whose other side is the
    # theta-product form, fails on an off-by-one in any entry, in r1
    # (lane 0), r2 (lane 1) or the next state mod 6, read by the batch
    # walk alone, while the classifier's exact-int walk reads the true
    # tables
    from fermatkl import eisenstein, fermat, sl2, verify

    fc = cusp_reps(3)[3]
    entries = list(getattr(sl2, table))
    if lane is None:
        entries[slot] = (entries[slot] + 1) % len(sl2.COSET_REPS)
    else:
        entries[slot] = tuple(x + (k == lane) for k, x in enumerate(entries[slot]))
    batch, calls = fermat.coset_word_sums_batch, []

    def mutant_batch(*args):
        calls.append(args)
        with monkeypatch.context() as patch:
            patch.setattr(sl2, table, tuple(entries))
            return batch(*args)

    def klf():
        _fresh_store(monkeypatch)
        return verify.check_klf_fermat(3, fc, 2j)

    assert klf().passed
    monkeypatch.setattr(fermat, "coset_word_sums_batch", mutant_batch)
    try:
        report = klf()
    finally:
        # the phi memoized from the mutant tables go before later tests
        eisenstein._phis.cache_clear()
    assert calls and report.check_id == "klf_fermat" and not report.passed


def test_lane_table_int32_guard(monkeypatch):
    _fresh_store(monkeypatch)
    reps = cusp_reps(4)
    with pytest.raises(OverflowError):
        inner_sums(gamma_n(4), reps[0].rep, reps[-1].rep, (1,), 2 ** 30)
