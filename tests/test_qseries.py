import cmath
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from fermatkl import qseries
from fermatkl.qseries import (
    POINT_IM_MIN,
    ConvergenceRegion,
    FormLabel,
    FormsAt,
    OrderTooSmall,
    QExpansion,
    ZeroSeries,
    constant,
    expansion,
    leading,
    zeta_power,
)
from fermatkl.sl2 import GEN1, GEN2, Mat2Z, NotInGamma2, S, T
from series_oracles import (
    coset_product_closed_form,
    coset_product_loop,
    coset_product_value,
    f_series_oracle,
    max_abs_coeff_diff,
    rotated,
    series_value,
    slash2_value,
    slash2_value_direct,
)


def r4_counts(bound: int) -> dict[int, int]:
    """Brute-force four-square representation counts."""
    radius = int(math.isqrt(bound)) + 1
    counts: dict[int, int] = {}
    for quad in itertools.product(range(-radius, radius + 1), repeat=4):
        s = sum(v * v for v in quad)
        if s <= bound:
            counts[s] = counts.get(s, 0) + 1
    return counts


def test_theta2_equals_four_square_counts():
    th = expansion(FormLabel("theta2"), Fraction(8))
    counts = r4_counts(16)
    for k in range(0, 17):
        assert th.coeffs.get(k, 0) == counts.get(k, 0)


def test_lambda_sum_identity_exact():
    lam = expansion(FormLabel("lambda"), Fraction(12))
    oml = expansion(FormLabel("one_minus_lambda"), Fraction(12))
    total = lam + oml
    assert all(type(v) is Fraction for v in total.coeffs.values())
    assert max_abs_coeff_diff(total, constant(1, 2, Fraction(12))) == 0.0


def test_lambda_leading():
    e, c = leading(expansion(FormLabel("lambda"), Fraction(6)))
    assert e == Fraction(-1, 2) and abs(c + 1.0 / 16) < 1e-16
    e, c = leading(expansion(FormLabel("one_minus_lambda"), Fraction(6)))
    assert e == Fraction(-1, 2) and abs(c - 1.0 / 16) < 1e-16


def test_x_power_reproduces_lambda_exactly():
    lam = expansion(FormLabel("lambda"), Fraction(8))
    for n in (1, 2, 3, 5):
        x = expansion(FormLabel("x", n), Fraction(8))
        diff = max_abs_coeff_diff(x ** n, lam.with_denom(2 * n))
        assert diff == 0.0


def test_nth_root_round_trip_on_random_series():
    rng = random.Random(7)
    for n in (2, 3, 4):
        coeffs = {0: rng.choice((-1, 1)) * Fraction(2) ** rng.randrange(-3, 4)}
        for k in range(1, 12):
            coeffs[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = QExpansion(2, coeffs, Fraction(6))
        g = f.nth_root(n)
        assert max_abs_coeff_diff(g ** n, f.with_denom(2 * n)) == 0


def test_nth_root_branch_and_leading():
    for n in (2, 3, 5):
        x = expansion(FormLabel("lambda"), Fraction(6)).nth_root(n)
        _, c = leading(x)
        assert abs(abs(c) - 16.0 ** (-1.0 / n)) < 1e-15
        assert abs(c - cmath.exp(1j * math.pi / n) * 16.0 ** (-1.0 / n)) < 1e-15
        _, c1 = leading(rotated(expansion(FormLabel("lambda"), Fraction(6)).nth_root(n),
                                Fraction(2, n)))
        assert abs(c1 / c - cmath.exp(2j * math.pi / n)) < 1e-14


def test_nth_root_trivial_and_errors():
    one = constant(1, 2, Fraction(8))
    root = one.nth_root(4)
    assert max_abs_coeff_diff(root, constant(1, 8, Fraction(8))) == 0.0
    with pytest.raises(ZeroSeries):
        QExpansion(2, {}, Fraction(4)).nth_root(2)


def test_evaluate_basics():
    # a series that expansion did not return names no form, so has no value
    with pytest.raises(TypeError):
        constant(1, 2, Fraction(10)).evaluate(1j)
    lam = expansion(FormLabel("lambda"), Fraction(14))
    oml = expansion(FormLabel("one_minus_lambda"), Fraction(14))
    v1, _ = lam.evaluate(2j)
    v2, _ = oml.evaluate(2j)
    assert abs(v1 - (1 - v2)) < 1e-12
    # lambda(i) = -1 is the classical special value in this normalization
    vi, _ = lam.evaluate(1j)
    assert abs(vi + 1.0) < 1e-10


def test_evaluate_power_consistency():
    for n in (2, 3):
        x = expansion(FormLabel("x", n), Fraction(16))
        vx, tail = x.evaluate(1j)
        vl, _ = expansion(FormLabel("lambda"), Fraction(16)).evaluate(1j)
        assert abs(vx ** n - vl) < 1e-10 + 10 * tail


def test_evaluate_convergence_region():
    lam = expansion(FormLabel("lambda"), Fraction(8))
    with pytest.raises(ConvergenceRegion):
        lam.evaluate(0.5 + 0.001j)


def test_evaluate_is_the_value_of_the_label_at_the_point():
    # an expansion carries its label, and its evaluate is FormsAt's value
    # of that label, bit for bit; a product or power names no form
    labels = _every_label(5)
    for z in (0.3 + 1j, -0.45 + 0.8j, 0.2 + 2.3j):
        at = FormsAt(z)
        for lab in labels:
            s = expansion(lab, Fraction(8))
            assert s.label == lab and s.evaluate(z) == at.value(lab), (str(lab), z)
    x = expansion(FormLabel("x", 3), Fraction(8))
    for s in (x * x, x ** 3, x.power(Fraction(1, 2)), x + x, x.scale(2), x.truncate(4)):
        assert s.label is None
        with pytest.raises(TypeError):
            s.evaluate(1j)
    # the label takes no part in comparisons
    assert x.scale(1) == x


def test_c_forms_at_half_index_dump_exact_zeros():
    # f[C, N/2] is even in q^(1/2): every odd q^(1/2) coefficient of its
    # dump reads exactly 0, summed from the exact terms and rounded once
    for n in (4, 6, 8, 10, 12):
        f = expansion(FormLabel("f", n, "C", n // 2), Fraction(26))
        odd = [line.split("\t", 1)[1] for line in f.dump().split("\n")
               if int(line.split("/")[0]) % f.denom == n]
        assert odd == ["0.0\t0.0"] * 26, n


def test_fermat_relation_coefficientwise():
    for n in (1, 2, 3, 5):
        x = expansion(FormLabel("x", n), Fraction(20))
        y = expansion(FormLabel("y", n), Fraction(20))
        residual = (x ** n) + (y ** n) - 1
        zero = QExpansion(2 * n, {}, residual.order)
        assert max_abs_coeff_diff(residual, zero) < 1e-12


def test_divisor_leading_orders():
    # zero of order n^2 in the local parameter q^(1/2n) at the infinity cusp
    for n in (2, 3):
        e, _ = leading(expansion(FormLabel("f", n, "C", 0), Fraction(n, 2) + 4))
        assert e * 2 * n == n * n
        for kind, j in (("A", 0), ("A", 1), ("B", 0)):
            e, c = leading(expansion(FormLabel("f", n, kind, j), Fraction(6)))
            assert e == 0 and abs(abs(c) - 1.0) < 1e-12


def test_g_form_fields():
    e, c = leading(expansion(FormLabel("g0"), Fraction(8)))
    assert e == 0 and abs(c + 1) < 1e-15
    e, c = leading(expansion(FormLabel("g1"), Fraction(8)))
    assert e == 0 and abs(c - 1) < 1e-15
    e, c = leading(expansion(FormLabel("ginf"), Fraction(8)))
    assert e == Fraction(1, 2) and abs(c - 16) < 1e-15


def test_g_ratio_is_lambda():
    z = 0.3 + 1.5j
    g0, gi, lam = (series_value(expansion(FormLabel(name), Fraction(18)), z)
                   for name in ("g0", "ginf", "lambda"))
    assert abs(g0 / gi - lam) < 1e-11


def test_expansion_label_dispatch_and_order_check():
    assert expansion(FormLabel("theta2"), Fraction(4)).coeffs[0] == 1
    with pytest.raises(OrderTooSmall):
        expansion(FormLabel("f", 3, "C", 0), Fraction(1))
    # a level-2 form takes no level, kind or index; x and y a level only
    for fields in (("f", 2, "D", 0), ("f", 3, "A", 3), ("f", 0, "A", 0), ("x", 0),
                   ("lambda", 5), ("theta2", 2), ("g0", 0), ("ginf", 1, "A"),
                   ("one_minus_lambda", 1, "", 1), ("x", 3, "C", 1), ("y", 2, "", 1)):
        with pytest.raises(ValueError):
            FormLabel(*fields)
    assert FormLabel("lambda", 1) == FormLabel("lambda")


def test_x_and_y_raise_below_their_leading_exponent():
    # x and y lead at q^(-1/2N), not at lambda's q^(-1/2): an order in
    # [-1/2, -1/2N) cannot resolve them
    for n in range(2, 6):
        for name in ("x", "y"):
            lab = FormLabel(name, n)
            for order in (Fraction(-1, 2), Fraction(-1, 2 * n - 1)):
                with pytest.raises(OrderTooSmall):
                    expansion(lab, order)
            assert list(expansion(lab, Fraction(-1, 2 * n)).coeffs) == [-1]


def test_slash_theta2_invariance():
    lab = FormLabel("theta2")
    direct = series_value(expansion(lab, Fraction(20)), 1j)
    assert abs(slash2_value(lab, GEN1, 1j) - direct) < 1e-12
    assert abs(slash2_value(lab, GEN2, 1j) - direct) < 1e-12
    # the direct path agrees where the series converges comfortably
    assert abs(slash2_value_direct(lab, GEN2, 1j, Fraction(40)) - direct) < 1e-10


def test_slash_transformation_table():
    # x -> zeta^-1 x under both generators, y -> zeta^-1 y / y
    for n in (2, 3):
        for lab, gen, mult in ((FormLabel("x", n), GEN1, zeta_power(n, -1)),
                               (FormLabel("x", n), GEN2, zeta_power(n, -1)),
                               (FormLabel("y", n), GEN1, zeta_power(n, -1)),
                               (FormLabel("y", n), GEN2, 1.0)):
            base = series_value(expansion(lab, Fraction(30)), 1j)
            table = slash2_value(lab, gen, 1j)
            assert abs(table - mult * base) < 1e-12
            direct = slash2_value_direct(lab, gen, 1j, Fraction(40))
            assert abs(table - direct) < 1e-8, (n, str(lab))


def test_slash_f_labels_permute():
    # index shifts: A by r1, B by r1 + r2, C by r2
    n = 3
    cases = (("A", GEN1, 1), ("A", GEN2, 0), ("B", GEN1, 1), ("B", GEN2, 1),
             ("C", GEN1, 0), ("C", GEN2, 1))
    for kind, gen, shift in cases:
        lab = FormLabel("f", n, kind, 0)
        tab = slash2_value(lab, gen, 2j)
        expect = series_value(expansion(FormLabel("f", n, kind, shift), Fraction(16)), 2j)
        assert abs(tab - expect) < 1e-12, (kind, shift)


def test_slash_outside_level2_raises():
    for gamma in (T, S, Mat2Z(3, 2, 1, 1)):
        with pytest.raises(NotInGamma2):
            slash2_value(FormLabel("f", 3, "B", 0), gamma, 2j)


def test_coset_product_closed_forms():
    # level 1: single factor, kind B gives -theta^2
    th = series_value(expansion(FormLabel("theta2"), Fraction(20)), 1j)
    assert abs(coset_product_value("B", 1, 1j) + th) < 1e-12
    for n in (1, 2):
        for kind in "ABC":
            for z in (1j, 1 + 2j):
                p = coset_product_value(kind, n, z)
                cf = coset_product_closed_form(kind, n, z, Fraction(20))
                assert abs(p - cf) < 1e-8
    # independence of the index: the product over every representative,
    # started at each f[kind, j]
    for n in range(1, 6):
        for kind in "ABC":
            for z in (1 + 2j, -0.3 + 0.8j):
                p = coset_product_value(kind, n, z)
                for j in range(n):
                    assert abs(p - coset_product_loop(kind, j, n, z)) <= 1e-13 * abs(p), (kind, j, n, z)


def test_dump_format():
    th = expansion(FormLabel("theta2"), Fraction(2))
    lines = th.dump().split("\n")
    assert lines[0] == "0/2\t1.0\t0.0"
    assert all(len(line.split("\t")) == 3 for line in lines)
    for line in lines:
        num_den = line.split("\t")[0]
        assert num_den.endswith("/2")


def test_arithmetic_order_tracking():
    a = QExpansion(2, {0: 1, 1: 1}, Fraction(3, 2))
    b = QExpansion(2, {2: 1}, Fraction(4))
    prod = a * b
    # product order limited by min(3/2 + 1, 4 + 0)
    assert prod.order == Fraction(5, 2)
    inv = a.inverse()
    assert (inv * a).coeffs[0] == 1


def _dump_coeffs(f) -> dict[int, complex]:
    """Coefficients per exponent numerator, read from the dump."""
    out = {}
    for line in f.dump().split("\n"):
        k, re_, im = line.split("\t")
        out[int(k.split("/")[0])] = complex(float(re_), float(im))
    return out


def test_twist_identity_of_a_and_b_forms():
    # f[kind, j](z) = f[kind, 0](z + 2j): the coefficient of q^(k/2N) picks up e(jk/N)
    for n in range(1, 6):
        for kind in "AB":
            c0 = _dump_coeffs(expansion(FormLabel("f", n, kind, 0), Fraction(26)))
            for j in range(1, n):
                cj = _dump_coeffs(expansion(FormLabel("f", n, kind, j), Fraction(26)))
                assert cj.keys() == c0.keys(), (kind, j, n)
                for k, v in c0.items():
                    twist = cmath.exp(2j * math.pi * ((j * k) % n) / n)
                    assert abs(cj[k] - v * twist) <= 1e-12 * abs(v), (kind, j, n, k)


def test_forms_match_mpmath_sum_of_exact_terms():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    old_dps, mp.dps = mp.dps, 50
    try:
        for n in range(1, 6):
            for kind in "ABC":
                for j in range(n):
                    lab = FormLabel("f", n, kind, j)
                    for z in (0.3 + 1j, -0.7 + 1.5j, 0.2 + 2.3j):
                        val = series_value(expansion(lab, Fraction(26)), z)
                        ref = _mp_series_value(mp, _exact_series(lab), z)
                        assert abs(val - ref) <= 1e-10 * abs(ref), (kind, j, n, z)
    finally:
        mp.dps = old_dps


def _every_label(n_max):
    labels = [FormLabel(name) for name in ("theta2", "lambda", "one_minus_lambda", "g0", "g1", "ginf")]
    for n in range(1, n_max + 1):
        labels += [FormLabel("x", n), FormLabel("y", n)]
        labels += [FormLabel("f", n, kind, j) for kind in "ABC" for j in range(n)]
    return labels


def _weighted_terms(s):
    """The (weight, series) pairs of a RadicalSum, or a series of weight 1."""
    return s.terms if hasattr(s, "terms") else ((1, s),)


def _float_sum_bound(s, z):
    """Rounding bound of the float evaluation of an exact series: its
    term count times 2^-53 times the sum of the term moduli."""
    total, count = 0.0, 0
    for weight, t in _weighted_terms(s):
        r = abs(cmath.exp(2j * math.pi * z / t.denom))
        total += abs(weight * t.prefactor) * sum(abs(float(c)) * r ** k
                                                 for k, c in t.coeffs.items())
        count += len(t.coeffs)
    return count * 2.0 ** -53 * total


def test_forms_at_point_match_series_grid():
    # the order-26 series' float sums, where their rounding is below 1e-13;
    # the class terms of the forms with a zero at infinity cancel, so
    # there it is not
    checked = 0
    zs = [complex(x, y) for x in (-1.0, -0.35, 0.0, 0.5, 1.0) for y in (0.6, 0.9, 1.4, 2.2, 3.0)]
    series = {lab: expansion(lab, Fraction(26)) for lab in _every_label(6)}
    for z in zs:
        at = FormsAt(z)
        for lab, s in series.items():
            want = series_value(s, z)
            if _float_sum_bound(s, z) > 1e-13 * abs(want):
                continue
            got, _ = at.value(lab)
            assert abs(got - want) <= 1e-12 * abs(want), (str(lab), z)
            checked += 1
    assert checked > len(zs) * len(series) // 2


_oracle_forms = functools.lru_cache(maxsize=None)(f_series_oracle)


def _exact_series(lab):
    """The order-26 series of a label with exact prefactors: for an f form
    the weight-1 terms of f_series_oracle, where the package weighs its
    terms in floats."""
    if lab.name == "f":
        return _oracle_forms(lab.kind, lab.n, Fraction(26))[lab.j]
    return expansion(lab, Fraction(26))


def _mp_prefactor(mp, t):
    """The radical prefactor 2^pref2 e^(i pi prefh) of a series in mpmath."""
    return (mp.power(2, mp.mpf(t.pref2.numerator) / t.pref2.denominator)
            * mp.expjpi(mp.mpf(t.prefh.numerator) / t.prefh.denominator))


def _mp_series_value(mp, s, z):
    """The exact series summed in mpmath, powers of q^(1/D) built by
    multiplication."""
    w = mp.exp(2j * mp.pi * mp.mpc(z) / s.denom)
    total = mp.mpc(0)
    for weight, t in _weighted_terms(s):
        acc, k_prev, wk = mp.mpc(0), 0, mp.mpc(1)
        for k in sorted(t.coeffs):
            wk *= w ** (k - k_prev)
            k_prev = k
            c = t.coeffs[k]
            acc += mp.mpf(c.numerator) / c.denominator * wk
        total += mp.mpc(weight) * _mp_prefactor(mp, t) * acc
    return complex(total)


def test_forms_at_point_match_mpmath_and_their_estimates_hold():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    old_dps, mp.dps = mp.dps, 50
    try:
        # at 0.1+0.7i the float sum of f[A,0], N = 5 is off by 1.4e-9
        lab = FormLabel("f", 5, "A", 0)
        ref = _mp_series_value(mp, _exact_series(lab), 0.1 + 0.7j)
        assert abs(series_value(expansion(lab, Fraction(26)), 0.1 + 0.7j) - ref) > 1e-10 * abs(ref)
        # near the cusp -1, at -0.9+0.6i, f[B,1] of N = 5 is 8e-9 and its
        # relative error 1.2e-13: there only the estimate is held to
        for z in (0.1 + 0.7j, 1 + 0.6j, -0.45 + 0.8j, 0.3 + 1j, -0.7 + 1.5j, 0.2 + 2.3j, -0.9 + 0.6j):
            at = FormsAt(z)
            for lab in _every_label(5):
                ref = _mp_series_value(mp, _exact_series(lab), z)
                got, est = at.value(lab)
                err = abs(got - ref)
                assert err <= est, (str(lab), z, err, est)
                assert z == -0.9 + 0.6j or err <= 1e-13 * abs(ref), (str(lab), z, err / abs(ref))
    finally:
        mp.dps = old_dps


def _mp_forms_from_jtheta(mp, z, n):
    """f[kind, j] at z for every kind and j, in the closed forms
    theta3^4 (1 - zeta^j/y)^N, theta2^4 (zeta^-j x - 1)^N and
    theta3^4 (zeta^-j x/y - eps)^N, with the thetas from mpmath's jtheta
    at the nome t = e(z/2), not from the series.  x and y take the branch
    of their series, 16^(-1/N) e(-z/2N) (times eps for x) times the
    principal N-th root of a unit that tends to 1 with t."""
    w = mp.mpc(z)
    t = mp.exp(1j * mp.pi * w)
    th2, th3, th4 = (mp.jtheta(k, 0, t) ** 4 for k in (2, 3, 4))
    lam = -th4 / th2
    head = mp.power(16, -mp.mpf(1) / n) * mp.exp(-1j * mp.pi * w / n)
    eps, zeta = mp.expjpi(mp.mpf(1) / n), mp.expjpi(mp.mpf(2) / n)
    x = eps * head * mp.root(-16 * t * lam, n)
    y = head * mp.root(16 * t * (1 - lam), n)
    forms = {}
    for j in range(n):
        forms["A", j] = th3 * (1 - zeta ** j / y) ** n
        forms["B", j] = th2 * (zeta ** -j * x - 1) ** n
        forms["C", j] = th3 * (zeta ** -j * x / y - eps) ** n
    return forms


def test_forms_at_point_beyond_level_5_match_jtheta_and_their_estimates_hold():
    # the levels past the series reference above, at its points
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    old_dps, mp.dps = mp.dps, 50
    try:
        for z in (0.1 + 0.7j, 1 + 0.6j, -0.45 + 0.8j, 0.3 + 1j, -0.7 + 1.5j, 0.2 + 2.3j, -0.9 + 0.6j):
            at = FormsAt(z)
            # past level 8 the base's power amplifies its rounding most
            for n, rel in ((6, 1e-13), (7, 1e-13), (8, 1e-13), (12, 1e-12), (16, 1e-12), (24, 1e-12)):
                for (kind, j), ref in _mp_forms_from_jtheta(mp, z, n).items():
                    got, est = at.value(FormLabel("f", n, kind, j))
                    err = abs(got - complex(ref))
                    assert err <= est, (kind, j, n, z, err, est)
                    assert z == -0.9 + 0.6j or err <= rel * abs(ref), (kind, j, n, z, err / abs(ref))
    finally:
        mp.dps = old_dps


def test_forms_at_point_convergence_region():
    for z in (0.3 + 0.2j, 0.5 + 1e-3j, 1.0 + 0j, 2.0 - 1j):
        with pytest.raises(ConvergenceRegion):
            FormsAt(z)
    v, est = FormsAt(0.4 + POINT_IM_MIN * 1j).value(FormLabel("f", 3, "C", 0))
    assert math.isfinite(abs(v)) and 0 < est < 1e-9 * abs(v)


def test_coefficients_are_exact_only():
    for bad in (1.0, 0.5 + 0j, 2j):
        with pytest.raises(TypeError):
            QExpansion(2, {0: 1, 1: bad}, Fraction(4))
        with pytest.raises(TypeError):
            constant(1, 2, Fraction(4)).scale(bad)
    with pytest.raises(ValueError):
        QExpansion(2, {0: 3, 1: 1}, Fraction(4)).nth_root(2)
    x = expansion(FormLabel("x", 2), Fraction(6))
    with pytest.raises(ValueError):
        x + constant(1, 4, Fraction(6))
    # integer parts of the prefactor fold into the coefficients
    s = QExpansion(2, {0: 3}, Fraction(4), Fraction(5, 2), Fraction(7, 3))
    assert (s.pref2, s.prefh, s.coeffs) == (Fraction(1, 2), Fraction(1, 3), {0: 12})
    assert (x.pref2, x.prefh) == (0, Fraction(1, 2))


def test_forms_weigh_one_set_of_exact_terms_per_kind():
    # every f[kind, j] but f[C, 0] weighs the N + 1 class terms of its
    # kind, the same series for every j; f[C, 0] keeps the one term
    # -theta3^4 (w - 1)^N
    for n in range(1, 6):
        (weight, _), = expansion(FormLabel("f", n, "C", 0), Fraction(8)).terms
        assert weight == -1
        for kind in "ABC":
            forms = [expansion(FormLabel("f", n, kind, j), Fraction(8))
                     for j in range(kind == "C", n)]
            for f in forms:
                assert len(f.terms) == n + 1 and all(c for c, _ in f.terms)
                assert all(t is u for (_, t), (_, u) in zip(f.terms, forms[0].terms))


# SHA-256 prefixes of repr((denom, order, pref2, prefh, sorted coefficients))
# at order 12, as computed by the earlier implementation (which mixed exact
# and complex-float coefficients) with its prefactor put in canonical form.
LEVEL2_DIGESTS = {
    "theta2": "b3ae383e7550ddf5", "lambda": "da88394296b53da1",
    "one_minus_lambda": "5a742cad5ab83e62", "g0": "710e8df05ef7930d",
    "g1": "b3ae383e7550ddf5", "ginf": "998ec4a841f5dba4",
    "x1": "da88394296b53da1", "y1": "5a742cad5ab83e62",
    "x2": "cb8664c5325c13e8", "y2": "593c6f1c36306b49",
    "x3": "b2f8ad03d168fe7f", "y3": "21b5092d8a56af35",
    "x4": "38e6b633e786c956", "y4": "97b343f5f8f9a874",
    "x5": "5fe7b872b4a10ebd", "y5": "ec3df575e61a0f39",
}


def test_level2_and_root_series_unchanged():
    for key, digest in LEVEL2_DIGESTS.items():
        label = FormLabel(key[0], int(key[1])) if key[0] in "xy" else FormLabel(key)
        s = expansion(label, Fraction(12))
        assert 0 <= s.pref2 < 1 and 0 <= s.prefh < 1
        canon = (s.denom, s.order, s.pref2, s.prefh, tuple(sorted(s.coeffs.items())))
        assert hashlib.sha256(repr(canon).encode()).hexdigest()[:16] == digest, key


# The same prefixes over every class term of f[kind, j] at N = 1..5 (all j
# of one kind per key) and over x and y, at order 26, as computed by the
# product-formula and log/exp-root implementation; the f forms are those
# of f_series_oracle, the construction that implementation used.
FERMAT_DIGESTS = {
    "A1": "19bb7e7571e49786", "B1": "632ab3bdc41412f7", "C1": "1bc0c27325b40807",
    "A2": "b647c9cce4162b26", "B2": "5adb72eb96c921ba", "C2": "2abf05a8f2e0ec02",
    "A3": "bd837e5b3bccdbbe", "B3": "21a3a7c80b7fc6a3", "C3": "84782ad84720241e",
    "A4": "9d7f23107e01eeea", "B4": "a03bd80e2c2b4198", "C4": "4790161d7bf19c8f",
    "A5": "8ac7ef23b1cd5a8a", "B5": "1ed994886d1c59ad", "C5": "2992b261d09fd71b",
    "x1": "721002fda530c1c0", "y1": "9a10da8b50f61c42",
    "x2": "a46d4c1b6f765267", "y2": "fe7872c456af8c89",
    "x3": "5b61c8eca84dd125", "y3": "71ec21212c1e002f",
    "x4": "fc33ef090aa4ec3a", "y4": "01a100eacdb266b2",
    "x5": "a1a72fd3a6a87cac", "y5": "b3c6c3da4c6a41fe",
}


def _canon(s):
    return (s.denom, s.order, s.pref2, s.prefh, tuple(sorted(s.coeffs.items())))


def _dump_scale(f) -> dict[int, float]:
    """Per exponent numerator, the term count of f times the sum of the
    moduli that its dump adds: the scale of the rounding of that sum."""
    out: dict[int, float] = {}
    for weight, t in f.terms:
        for k, c in t.coeffs.items():
            out[k] = out.get(k, 0.0) + len(f.terms) * abs(weight * t.prefactor * float(c))
    return out


def test_fermat_forms_match_the_x_and_y_construction():
    # the binomial in the base of one root of a level-2 quotient per kind
    # dumps the coefficients of the construction from x, 1/y and x/y, at
    # every level to 8, to the rounding of the two float sums
    order = Fraction(26)
    for n in range(1, 9):
        for kind in "ABC":
            for j, want in enumerate(f_series_oracle(kind, n, order)):
                got = expansion(FormLabel("f", n, kind, j), order)
                g, w = _dump_coeffs(got), _dump_coeffs(want)
                sg, sw = _dump_scale(got), _dump_scale(want)
                for k in g.keys() | w.keys():
                    diff = abs(g.get(k, 0) - w.get(k, 0))
                    assert diff <= 2 * 2.0 ** -53 * (sg.get(k, 0) + sw.get(k, 0)), (kind, j, n, k)


def test_c_forms_match_mpmath_coefficients_to_order_3():
    # the leading coefficient -(zeta^-j - 1)^N of f[C, j] is 1e-14 at
    # N = 24, j = 1, where a sum of binomial-sized class terms left 7e-10;
    # it is held to 1e-14 at every N to 24.  Every coefficient to q^3 is
    # held to 1e-13 of its 50-digit value from the exact terms of
    # f_series_oracle; one that is exactly 0 (at j = N/2 the form is even
    # in q^(1/2)) to 1e-13 of its dump's scale
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    old_dps, mp.dps = mp.dps, 50
    order = Fraction(3)
    try:
        for n in range(2, 25):
            for j in range(1, n):
                _, a = leading(expansion(FormLabel("f", n, "C", j), Fraction(0)))
                ref = complex(-(mp.expjpi(mp.mpf(-2 * j) / n) - 1) ** n)
                assert abs(a - ref) <= 1e-14 * abs(ref), (n, j)
        for n in (*range(2, 13), 16, 24):
            forms = f_series_oracle("C", n, order)
            for j in range(1, n):
                ref: dict = {}
                for _, t in forms[j].terms:
                    p = _mp_prefactor(mp, t)
                    for k, c in t.coeffs.items():
                        ref[k] = ref.get(k, 0) + p * mp.mpf(c.numerator) / c.denominator
                got = expansion(FormLabel("f", n, "C", j), order)
                g, scale = _dump_coeffs(got), _dump_scale(got)
                for k in g.keys() | ref.keys():
                    r = complex(ref.get(k, 0))
                    assert abs(g.get(k, 0) - r) <= 1e-13 * (abs(r) or scale[k]), (n, j, k)
    finally:
        mp.dps = old_dps


def test_fermat_forms_unchanged():
    order = Fraction(26)
    for key, digest in FERMAT_DIGESTS.items():
        name, n = key[0], int(key[1])
        if name in "xy":
            canon = _canon(expansion(FormLabel(name, n), order))
        else:
            forms = f_series_oracle(name, n, order)
            canon = tuple(tuple(_canon(t) for _, t in f.terms) for f in forms)
        assert hashlib.sha256(repr(canon).encode()).hexdigest()[:16] == digest, key


# -- reference implementations: eta-type products and the log/exp root ---------

def _ref_binomial_factor(denom, step, sign, power, bound):
    """(1 + sign q^(step/denom))^power truncated at exponent bound/denom."""
    coeffs = {0: Fraction(1)}
    c = Fraction(1)
    j = 0
    while (j + 1) * step <= bound:
        j += 1
        c = c * Fraction(power - j + 1, j) * sign
        coeffs[j * step] = c
    return QExpansion(denom, coeffs, Fraction(bound, denom))


def _ref_theta2(order):
    """prod (1-q^n)^4 (1+q^(n-1/2))^8."""
    bound = math.floor(order * 2)
    out = constant(1, 2, order)
    n = 1
    while 2 * n - 1 <= bound:
        out = out * _ref_binomial_factor(2, 2 * n, -1, 4, bound)
        out = out * _ref_binomial_factor(2, 2 * n - 1, +1, 8, bound)
        n += 1
    return out.truncate(order)


def _ref_lambda_product(order, sign):
    """(sign/16) q^(-1/2) prod (1 + sign q^(n-1/2))^8 (1 + q^n)^-8: lambda
    for sign -1, 1 - lambda for sign +1."""
    rel_bound = math.floor((order + Fraction(1, 2)) * 2)
    prod = constant(1, 2, Fraction(rel_bound, 2))
    n = 1
    while 2 * n - 1 <= rel_bound:
        prod = prod * _ref_binomial_factor(2, 2 * n - 1, sign, 8, rel_bound)
        prod = prod * _ref_binomial_factor(2, 2 * n, +1, -8, rel_bound)
        n += 1
    return QExpansion(2, {k - 1: Fraction(sign, 16) * v for k, v in prod.coeffs.items()},
                      order)


def _ref_log1p(h):
    """log(1 + h) for a dense series with h[0] = 0."""
    v = [Fraction(0)] * len(h)
    for m in range(1, len(h)):
        acc = m * h[m]
        for j in range(1, m):
            acc -= (m - j) * v[m - j] * h[j]
        v[m] = acc / m
    return v


def _ref_exp(v):
    """exp(v) for a dense series with v[0] = 0."""
    u = [Fraction(1)] + [Fraction(0)] * (len(v) - 1)
    for m in range(1, len(v)):
        u[m] = sum((j * v[j] * u[m - j] for j in range(1, m + 1)), Fraction(0)) / m
    return u


def _ref_power(f, alpha):
    """f^alpha as c0^alpha q^(alpha e0/D) exp(alpha log(1 + h)) for a leading
    coefficient c0 = +-2^k, on the lattice refined by the denominator of alpha."""
    alpha = Fraction(alpha)
    e0 = min(f.coeffs)
    c0 = f.coeffs[e0]
    rel_bound = math.floor(f.order * f.denom) - e0
    h = [Fraction(0)] * (rel_bound + 1)
    for k, v in f.coeffs.items():
        h[k - e0] = v / c0
    h[0] -= 1
    u = _ref_exp([alpha * x for x in _ref_log1p(h)])
    a = abs(c0.numerator).bit_length() - c0.denominator.bit_length()
    p, d = alpha.numerator, alpha.denominator
    return QExpansion(f.denom * d, {p * e0 + m * d: v for m, v in enumerate(u) if v},
                      Fraction(p * e0 + rel_bound * d, f.denom * d),
                      (f.pref2 + a) * alpha, (f.prefh + (c0 < 0)) * alpha)


# For each memoized series, the cache that holds it and the i-th key of a
# run of distinct keys; x and y are both held by _root_series.
SERIES_CACHE_KEYS = {
    "_level2_series": ("_level2_series", lambda i: ((3, 0, 1), Fraction(i, 2))),
    "x_series": ("_root_series", lambda i: (qseries._LEVEL2_FORMS["lambda"], 2, Fraction(i, 2))),
    "y_series": ("_root_series",
                 lambda i: (qseries._LEVEL2_FORMS["one_minus_lambda"], 3, Fraction(i, 2))),
    "_class_terms": ("_class_terms", lambda i: ("C", 2, Fraction(i, 2))),
}


@pytest.mark.parametrize("name", SERIES_CACHE_KEYS)
def test_series_caches_bounded_and_evicted_entries_rebuild(name):
    # one past its bound the cache drops its oldest entry, and building
    # that again gives the same exact coefficients
    cache, key = SERIES_CACHE_KEYS[name]
    cached = getattr(qseries, cache)
    cached.cache_clear()
    first = cached(*key(1))
    bound = cached.cache_info().maxsize
    for i in range(2, bound + 2):
        cached(*key(i))
    assert cached.cache_info().currsize <= bound
    misses = cached.cache_info().misses
    again = cached(*key(1))
    assert cached.cache_info().misses == misses + 1

    def canon(series):
        # _class_terms holds w0 and a tuple of series, the others one series
        if isinstance(series, tuple):
            return [series[0], *(_canon(t) for t in series[1])]
        return [_canon(series)]

    assert again is not first and canon(again) == canon(first)


def test_level2_forms_match_product_formulas():
    order = Fraction(40)
    theta2, lam, oml = (expansion(FormLabel(name), order)
                        for name in ("theta2", "lambda", "one_minus_lambda"))
    assert _canon(theta2) == _canon(_ref_theta2(order))
    assert _canon(lam) == _canon(_ref_lambda_product(order, -1))
    assert _canon(oml) == _canon(_ref_lambda_product(order, +1))


def test_jacobi_identity_exact():
    order = Fraction(30)
    g0, g1, ginf = (expansion(FormLabel(name), order) for name in ("g0", "g1", "ginf"))
    assert _canon(g1) == _canon(ginf - g0)


def test_power_matches_log_exp_reference():
    rng = random.Random(11)
    for trial in range(12):
        n = 2 + trial % 4
        denom, e0 = rng.choice((1, 2, 3)), rng.randint(-3, 2)
        sparse = rng.choice((1, 2))
        coeffs = {e0: rng.choice((-1, 1)) * Fraction(2) ** rng.randrange(-3, 4)}
        for k in range(e0 + sparse, e0 + 14, sparse):
            if rng.random() < 0.8:
                coeffs[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = QExpansion(denom, coeffs, Fraction(e0 + 13, denom),
                       Fraction(rng.randrange(3), 3), Fraction(rng.randrange(4), 4))
        for alpha in (-1, 4, Fraction(1, n), Fraction(-1, n), Fraction(3, n)):
            assert _canon(f.power(alpha)) == _canon(_ref_power(f, alpha)), (trial, alpha)
        assert _canon(f ** 4) == _canon(f * f * f * f)
        assert _canon(f.inverse()) == _canon(f.power(-1))
        assert (f.power(0).denom, f.power(0).coeffs) == (denom, {0: 1})


def test_power_errors():
    with pytest.raises(ZeroSeries):
        QExpansion(2, {}, Fraction(4)).power(3)
    with pytest.raises(ValueError):
        QExpansion(2, {0: 3, 1: 1}, Fraction(4)).power(Fraction(1, 2))
    with pytest.raises(TypeError):
        constant(1, 2, Fraction(4)).power(0.5)


def test_quarter_turn_roots_of_unity_are_exact():
    # zeta^j is exactly 1, i, -1 or -i where 4 j = 0 (mod N), so the
    # weights of f[C, 4] at level 8, which is even in q^(1/2), leave its
    # odd coefficients exactly 0, where rounded roots left up to 4.4e-10
    for n in range(1, 25):
        for j in range(-n, 2 * n):
            if 4 * j % n == 0:
                assert zeta_power(n, j) == (1, 1j, -1, -1j)[4 * (j % n) // n], (n, j)
    f = expansion(FormLabel("f", 8, "C", 4), Fraction(26))
    odd = [c for k, c in _dump_coeffs(f).items() if 2 * k % f.denom == 0 and 2 * k // f.denom % 2]
    assert len(odd) == 26 and all(c == 0 for c in odd)
