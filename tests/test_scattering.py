import math

import mpmath
import pytest

from fermatkl import scattering
from fermatkl.eisenstein import TruncationSpec, phi_coefficient
from fermatkl.fermat import GAMMA1, GAMMA2, cusp_reps, fermat_cusp_of_ram, gamma_n
from fermatkl.scattering import (
    LevelMismatch,
    ScatteringEntry,
    fermat_constant,
    gamma1_constant,
    gamma2_constants,
    klf_constant,
    natural_constant,
    scattering_matrix,
    subcusp_relation_residual,
    z_constant,
)
from fermatkl.sl2 import CUSP_INF, CUSP_ONE, CUSP_ZERO, Cusp
from fermatkl.verify import check_scattering_entries

from character_oracles import zeta


def test_gamma2_difference_identity():
    g2 = gamma2_constants()
    assert abs((g2[0][1].natural - g2[0][0].natural) - 2 * math.log(2) / math.pi) < 1e-15


def test_gamma2_symmetry_and_conversion():
    g2 = gamma2_constants()
    vol = GAMMA2.volume
    for i in range(3):
        for j in range(3):
            assert g2[i][j].normalized == g2[j][i].normalized
            assert abs(g2[i][j].natural - g2[i][j].normalized
                       - math.log(2) / vol) < 1e-15


def test_gamma2_against_dirichlet_extrapolation():
    """Independent oracle: the constant term of the natural scattering
    entry extracted from the factored Dirichlet series near s = 1 by
    Richardson extrapolation."""
    def natural_entry(s, diag):
        num = (2.0 / (2.0 ** (2 * s) - 1.0) if diag
               else (2.0 ** (2 * s) - 2.0) / (2.0 ** (2 * s) - 1.0))
        phi0 = num * zeta(2 * s - 1.0) / zeta(2 * s)
        pref = math.sqrt(math.pi) * math.gamma(s - 0.5) / math.gamma(s) / (2.0 ** s * 2.0)
        return pref * phi0

    g2 = gamma2_constants()
    vol = GAMMA2.volume
    for diag, ref in ((True, g2[0][0].natural), (False, g2[0][1].natural)):
        # f(eps) = entry(1+eps) - 1/(vol eps) = Ct + a eps + b eps^2 + ...
        f1 = natural_entry(1 + 0.04, diag) - 1.0 / (vol * 0.04)
        f2 = natural_entry(1 + 0.02, diag) - 1.0 / (vol * 0.02)
        f3 = natural_entry(1 + 0.01, diag) - 1.0 / (vol * 0.01)
        r1 = 2 * f2 - f1
        r2 = 2 * f3 - f2
        rich = (4 * r2 - r1) / 3
        assert abs(rich - ref) < 1e-5


def test_gamma1_constant_value_and_reduction():
    c1 = gamma1_constant()
    assert abs(c1 - 6.0 / math.pi * z_constant()) < 1e-15
    # N = 1 reduction: the Fermat formulas collapse to the level-2 matrix
    m1 = scattering_matrix(1)
    g2 = gamma2_constants()
    for i in range(3):
        for j in range(3):
            assert abs(m1[i][j].normalized - g2[i][j].normalized) < 1e-12
            assert abs(m1[i][j].natural - g2[i][j].natural) < 1e-12
    # regression for the numeric value
    assert abs(c1 - 0.8671324277206647) < 1e-10


def test_constants_against_mpmath():
    # Z is the correctly rounded double of 1 - 12 zeta'(-1) - log(4 pi).
    # The constants built from it, (6/pi) Z, the KLF constants and the
    # three-case natural entries, lie within 4 ulps of their 30-digit
    # values, counted in ulps of the largest term of each closed form:
    # some of them cancel (a level-3 natural is 7e-4 from terms near
    # 3e-2), and a double sum is fixed only to the scale of its terms.
    def within_4_ulps(value, *terms):
        ref = float(sum(terms))
        return abs(value - ref) <= 4 * math.ulp(max(abs(float(t)) for t in terms))

    with mpmath.workdps(30):
        pi, log2 = mpmath.pi, mpmath.log(2)
        z = 1 - 12 * mpmath.zeta(-1, derivative=1) - mpmath.log(4 * pi)
        assert z_constant() == float(z)
        c1 = 6 / pi * z
        assert within_4_ulps(gamma1_constant(), c1)
        for n in range(1, 6):
            logn, pref = mpmath.log(n), mpmath.mpf(1) / (6 * n * n)
            assert within_4_ulps(klf_constant(gamma_n(n)), 4 * z / n ** 2, 4 * log2 / 6 / n ** 2,
                                 -4 * logn / 2 / n ** 2), n
            reps = cusp_reps(n)
            for fj, row in zip(reps, scattering_matrix(n)):
                for fk, entry in zip(reps, row):
                    if fj == fk:
                        extra = (12 * n + 2) * log2 + (6 - 3 * n) * logn
                    else:
                        extra = 2 * log2 + 6 * logn
                        if fj.kind == fk.kind:
                            gap = 2 * mpmath.sin(pi * ((fj.index - fk.index) % n) / n)
                            extra += 3 * n * mpmath.log(gap)
                    assert within_4_ulps(entry.natural, pref * c1, -pref * extra / pi,
                                         mpmath.log(2 * n) / (2 * pi * n * n)), (n, fj, fk)


def test_fermat_same_fiber_extra_term():
    # N=2, index difference 1: |1 - zeta_2| = 2
    a0 = fermat_cusp_of_ram(2, "A", 0)
    a1 = fermat_cusp_of_ram(2, "A", 1)
    b0 = fermat_cusp_of_ram(2, "B", 0)
    same = fermat_constant(2, a0, a1)
    cross = fermat_constant(2, a0, b0)
    assert same.case_tag == "same_fiber(1)"
    assert abs((same.normalized - cross.normalized)
               + (1.0 / 24) * (6.0 / math.pi) * math.log(2)) < 1e-15


def test_fermat_conjugate_symmetry():
    for n in (3, 5):
        reps = cusp_reps(n)
        for fj in reps:
            for fk in reps:
                e1 = fermat_constant(n, fj, fk)
                e2 = fermat_constant(n, fk, fj)
                assert abs(e1.normalized - e2.normalized) < 1e-15


def test_fermat_level_mismatch():
    a = fermat_cusp_of_ram(2, "A", 0)
    b = fermat_cusp_of_ram(3, "A", 0)
    with pytest.raises(LevelMismatch):
        fermat_constant(2, a, b)


def test_matrix_shape_and_distinct_values():
    m2 = scattering_matrix(2)
    assert len(m2) == 6 and all(len(r) == 6 for r in m2)
    vals2 = {round(e.normalized, 12) for r in m2 for e in r}
    assert len(vals2) == 3  # diag, cross, same-fiber; log 2 = log N at N = 2
    m5 = scattering_matrix(5)
    vals5 = {round(e.normalized, 12) for r in m5 for e in r}
    assert len(vals5) == 4  # two distinct |1 - zeta_5^d| gaps
    # each row contains the diagonal value exactly once
    for i, row in enumerate(m2):
        assert [e.case_tag for e in row].count("diag") == 1
        assert row[i].case_tag == "diag"


def test_matrix_symmetric():
    # a same-fiber pair takes the sine at the unordered delta, so both
    # orders give the same bits; the tag keeps the ordered delta
    for n in range(1, 13):
        reps, m = cusp_reps(n), scattering_matrix(n)
        for i, fj in enumerate(reps):
            for j, fk in enumerate(reps):
                e, t = m[i][j], m[j][i]
                assert (e.normalized, e.natural) == (t.normalized, t.natural), (n, i, j)
                if e.case_tag.startswith("same_fiber"):
                    assert e.case_tag == f"same_fiber({(fj.index - fk.index) % n})"


def test_subcusp_consistency():
    for n in range(1, 6):
        assert subcusp_relation_residual(n) < 1e-10


def test_scattering_constants_vs_enumeration():
    """Cross-check one Fermat entry against the truncated Dirichlet sum
    near s = 1: the slowly-convergent zero-mode series gets its generic
    tail rho * c_max^(2-2s)/(2s-2) restored from the empirical count
    density, then Richardson extrapolation in s - 1."""
    from fermatkl.eisenstein import inner_sums

    n = 2
    g = gamma_n(n)
    reps = cusp_reps(n)
    c_max = 1200
    tr = TruncationSpec(c_max=c_max)
    vol = g.volume
    b = 2 * n
    j, k = reps[0].rep, reps[-1].rep
    counts = inner_sums(g, j, k, (0,), c_max)[0].real
    half = c_max // 2
    rho = (counts[half:].sum()
           / sum(range(half + 1, c_max + 1)))

    def entry(s):
        phi0 = phi_coefficient(g, j, k, 0, s, tr)[0].real
        phi0 += rho * c_max ** (2 - 2 * s) / (2 * s - 2)
        return (math.sqrt(math.pi) * math.gamma(s - 0.5) / math.gamma(s)
                * phi0 / (b ** s * b))

    ref = natural_constant(g, j, k)
    f1 = entry(1.10) - 1.0 / (vol * 0.10)
    f2 = entry(1.05) - 1.0 / (vol * 0.05)
    f3 = entry(1.025) - 1.0 / (vol * 0.025)
    r1, r2 = 2 * f2 - f1, 2 * f3 - f2
    rich = (4 * r2 - r1) / 3
    assert abs(rich - ref) < 2e-3


def test_klf_constants():
    z = z_constant()
    assert abs(klf_constant(GAMMA2) - 4 * (z + math.log(2) / 6)) < 1e-15
    assert abs(klf_constant(gamma_n(1)) - klf_constant(GAMMA2)) < 1e-15
    expect = (z + math.log(2) / 6 - math.log(2) / 2)
    assert abs(klf_constant(gamma_n(2)) - expect) < 1e-15
    assert abs(klf_constant(GAMMA1) - 24 * z) < 1e-15


def test_natural_constant_dispatch():
    assert abs(natural_constant(GAMMA1, CUSP_INF, CUSP_INF) - gamma1_constant()) < 1e-15
    # level 2 reads the Fermat formulas at n = 1, whose naturals are those
    # of the factored Dirichlet series: off the diagonal to one ulp, on it
    # to one rounding
    g2, m1 = gamma2_constants(), scattering_matrix(1)
    assert natural_constant(GAMMA2, Cusp(4, 1), Cusp(3, 1)) == m1[0][1].natural
    assert abs(m1[0][1].natural - g2[0][1].natural) <= math.ulp(g2[0][1].natural)
    assert natural_constant(GAMMA2, Cusp(5, 3), CUSP_ONE) == m1[1][1].natural
    assert abs(m1[1][1].natural - g2[1][1].natural) <= 2.3e-16
    g = gamma_n(2)
    # representative independence: equivalent cusps give the same entry
    v1 = natural_constant(g, Cusp(1, 4), Cusp(2, 1))
    v2 = natural_constant(g, CUSP_INF, Cusp(-2, 1))
    assert abs(v1 - v2) < 1e-15


def test_naturals_depend_only_on_the_lane_class():
    # phi_jk sums over the rows of the class of g_k^-1(j), so every pair
    # of a class has, to the bit, the scattering constant of the pair
    # (g_k^-1(j), inf); at levels 1 to 12 the pairs fall into all 3N
    # classes
    from fermatkl.eisenstein import _lane_class

    for n in range(1, 13):
        g, reps, m = gamma_n(n), cusp_reps(n), scattering_matrix(n)
        by_class = {}
        for fj in reps:
            for fk in reps:
                e = fermat_constant(n, fj, fk)
                by_class.setdefault(_lane_class(g, fj.rep, fk.rep), set()).add(
                    (e.normalized, e.natural))
        assert sorted(by_class) == list(range(3 * n)), n
        for i, entries in by_class.items():
            assert entries == {(m[i][-1].normalized, m[i][-1].natural)}, (n, i)


def test_kronecker_limit_mode_0_gives_every_scattering_constant():
    # the q^0 mode of the Kronecker limit formula at the chart of infinity,
    # the verify check scattering_entries: 4 pi phi_j,inf = klf_constant -
    # 2 log|a_j|/N^2, a_j the leading coefficient of f[kind, j], at every
    # cusp, with 4 pi nu_j/N^2 = [j = inf] 4 pi/b for its exponent nu_j and
    # the lane-class relation C_jk = C_(g_k^-1 j, inf) at every pair; at
    # N = 24, j = 1, a_j is 1e-14, which a sum of binomial-sized class
    # terms would leave 7e-10
    for n in (*range(1, 13), 16, 24):
        report = check_scattering_entries(n)
        assert report.passed and report.residual <= 2e-15, (n, report.residual)


def _entry_shifted(entry: ScatteringEntry, shift: float) -> ScatteringEntry:
    return ScatteringEntry(entry.normalized + shift, entry.natural + shift, entry.case_tag)


@pytest.mark.parametrize("mutant", ["same_fiber_delta", "same_fiber_gap", "cross_fiber_log2"])
def test_scattering_entries_fails_on_a_constant_mutant(monkeypatch, mutant):
    # the check sees each per-pair term of fermat_constant on its own: it
    # fails at some level N <= 5 when a same-fiber delta of 1 is read as
    # 2, when the same-fiber term 3 N log|1 - zeta^delta| is dropped, or
    # when a cross-fiber entry takes the diagonal's (12 N + 2) log 2 in
    # place of 2 log 2; the series side is untouched
    true = scattering.fermat_constant

    def constant(n, fj, fk):
        entry = true(n, fj, fk)
        delta = min((fj.index - fk.index) % n, (fk.index - fj.index) % n)
        pref = 1.0 / (6.0 * n * n * math.pi)
        if entry.case_tag.startswith("same_fiber"):
            if mutant == "same_fiber_delta" and delta == 1:
                return true(n, fj, fermat_cusp_of_ram(n, fk.kind, (fj.index - 2) % n))
            if mutant == "same_fiber_gap":
                return _entry_shifted(entry, pref * 3 * n * math.log(2 * math.sin(math.pi * delta / n)))
        if mutant == "cross_fiber_log2" and entry.case_tag == "cross_fiber":
            return _entry_shifted(entry, -pref * 12 * n * math.log(2.0))
        return entry

    assert all(check_scattering_entries(n).passed for n in range(1, 6))
    monkeypatch.setattr(scattering, "fermat_constant", constant)
    assert not all(check_scattering_entries(n).passed for n in range(1, 6))
