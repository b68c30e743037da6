import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from fermatkl.qseries import (
    ConvergenceRegion,
    FormLabel,
    OrderTooSmall,
    QExpansion,
    ZeroSeries,
    constant,
    coset_product_closed_form,
    coset_product_value,
    eps_root,
    expansion,
    f_series,
    g_series,
    lambda_series,
    nth_root,
    one_minus_lambda_series,
    petersson_norm_sq,
    slash2_value,
    slash2_value_direct,
    theta2_series,
    x_series,
    y_series,
    zeta_power,
)
from fermatkl.sl2 import GEN1, GEN2, Mat2Z, NotInGamma2, S, T


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
    th = theta2_series(Fraction(8))
    counts = r4_counts(16)
    for k in range(0, 17):
        assert th.coeffs.get(k, 0) == counts.get(k, 0)


def test_lambda_sum_identity_exact():
    lam = lambda_series(Fraction(12))
    oml = one_minus_lambda_series(Fraction(12))
    total = lam + oml
    assert total.exact
    assert total.max_abs_coeff_diff(constant(1, 2, Fraction(12))) == 0.0


def test_lambda_leading():
    e, c = lambda_series(Fraction(6)).leading()
    assert e == Fraction(-1, 2) and abs(c + 1.0 / 16) < 1e-16
    e, c = one_minus_lambda_series(Fraction(6)).leading()
    assert e == Fraction(-1, 2) and abs(c - 1.0 / 16) < 1e-16


def test_x_power_reproduces_lambda_exactly():
    for n in (1, 2, 3, 5):
        x = x_series(n, Fraction(8))
        diff = (x ** n).max_abs_coeff_diff(lambda_series(Fraction(8)).with_denom(2 * n))
        assert diff == 0.0


def test_nth_root_round_trip_on_random_series():
    rng = random.Random(7)
    for n in (2, 3, 4):
        coeffs = {0: 1.0 + 0j}
        for k in range(1, 12):
            coeffs[k] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = QExpansion(2, coeffs, Fraction(6))
        g = f.nth_root(n, 0)
        assert (g ** n).max_abs_coeff_diff(f.with_denom(2 * n)) < 1e-12


def test_nth_root_branch_and_leading():
    for n in (2, 3, 5):
        x = nth_root(lambda_series(Fraction(6)), n, 0)
        _, c = x.leading()
        assert abs(abs(c) - 16.0 ** (-1.0 / n)) < 1e-15
        assert abs(c - eps_root(n) * 16.0 ** (-1.0 / n)) < 1e-15
        rotated = nth_root(lambda_series(Fraction(6)), n, 1)
        _, c1 = rotated.leading()
        assert abs(c1 / c - cmath.exp(2j * math.pi / n)) < 1e-14


def test_nth_root_trivial_and_errors():
    one = constant(1, 2, Fraction(8))
    root = one.nth_root(4)
    assert root.max_abs_coeff_diff(constant(1, 8, Fraction(8))) == 0.0
    with pytest.raises(ZeroSeries):
        QExpansion(2, {}, Fraction(4)).nth_root(2)


def test_evaluate_basics():
    one = constant(1, 2, Fraction(10))
    v, tail = one.evaluate(1j)
    assert v == 1 and tail < 1e-20
    lam = lambda_series(Fraction(14))
    oml = one_minus_lambda_series(Fraction(14))
    v1, _ = lam.evaluate(2j)
    v2, _ = oml.evaluate(2j)
    assert abs(v1 - (1 - v2)) < 1e-12
    # lambda(i) = -1 is the classical special value in this normalization
    vi, _ = lam.evaluate(1j)
    assert abs(vi + 1.0) < 1e-10


def test_evaluate_power_consistency():
    for n in (2, 3):
        x = x_series(n, Fraction(16))
        vx, tail = x.evaluate(1j)
        vl, _ = lambda_series(Fraction(16)).evaluate(1j)
        assert abs(vx ** n - vl) < 1e-10 + 10 * tail


def test_evaluate_tail_bound_holds():
    for name in ("theta2", "lambda", "ginf", "g0"):
        for y in (0.8, 1.0, 2.0):
            small = expansion(FormLabel(name), Fraction(10))
            big = expansion(FormLabel(name), Fraction(28))
            z = 0.4 + y * 1j
            v1, tail = small.evaluate(z)
            v2, _ = big.evaluate(z)
            assert abs(v1 - v2) <= tail * (1 + 1e-9) + 1e-290


def test_evaluate_convergence_region():
    lam = lambda_series(Fraction(8))
    with pytest.raises(ConvergenceRegion):
        lam.evaluate(0.5 + 0.001j)
    with pytest.raises(ConvergenceRegion):
        lam.evaluate(2j, y_min=3.0)


def test_fermat_relation_coefficientwise():
    for n in (1, 2, 3, 5):
        x = x_series(n, Fraction(20))
        y = y_series(n, Fraction(20))
        residual = (x ** n) + (y ** n) - 1
        zero = QExpansion(2 * n, {}, residual.order)
        assert residual.max_abs_coeff_diff(zero) < 1e-12


def test_divisor_leading_orders():
    # zero of order n^2 in the local parameter q^(1/2n) at the infinity cusp
    for n in (2, 3):
        fc0 = f_series("C", 0, n, Fraction(n, 2) + 4)
        k, _ = fc0.leading_exact()
        assert k == n * n
        for kind, j in (("A", 0), ("A", 1), ("B", 0)):
            e, c = f_series(kind, j, n, Fraction(6)).leading()
            assert e == 0 and abs(abs(c) - 1.0) < 1e-12


def test_g_form_fields():
    e, c = g_series("g0", Fraction(8)).leading()
    assert e == 0 and abs(c + 1) < 1e-15
    e, c = g_series("g1", Fraction(8)).leading()
    assert e == 0 and abs(c - 1) < 1e-15
    e, c = g_series("ginf", Fraction(8)).leading()
    assert e == Fraction(1, 2) and abs(c - 16) < 1e-15


def test_g_ratio_is_lambda():
    z = 0.3 + 1.5j
    g0, _ = g_series("g0", Fraction(18)).evaluate(z)
    gi, _ = g_series("ginf", Fraction(18)).evaluate(z)
    lam, _ = lambda_series(Fraction(18)).evaluate(z)
    assert abs(g0 / gi - lam) < 1e-11


def test_expansion_label_dispatch_and_order_check():
    assert expansion(FormLabel("theta2"), Fraction(4)).coeffs[0] == 1
    with pytest.raises(OrderTooSmall):
        expansion(FormLabel("f", 3, "C", 0), Fraction(1))
    with pytest.raises(ValueError):
        FormLabel("f", 2, "D", 0)


def test_slash_theta2_invariance():
    lab = FormLabel("theta2")
    direct, _ = expansion(lab, Fraction(20)).evaluate(1j)
    assert abs(slash2_value(lab, GEN1, 1j, Fraction(20)) - direct) < 1e-12
    assert abs(slash2_value(lab, GEN2, 1j, Fraction(20)) - direct) < 1e-12
    # the direct path agrees where the series converges comfortably
    assert abs(slash2_value_direct(lab, GEN2, 1j, Fraction(40)) - direct) < 1e-10


def test_slash_transformation_table():
    # x -> zeta^-1 x under both generators, y -> zeta^-1 y / y
    for n in (2, 3):
        for lab, gen, mult in ((FormLabel("x", n), GEN1, zeta_power(n, -1)),
                               (FormLabel("x", n), GEN2, zeta_power(n, -1)),
                               (FormLabel("y", n), GEN1, zeta_power(n, -1)),
                               (FormLabel("y", n), GEN2, 1.0)):
            base, _ = expansion(lab, Fraction(30)).evaluate(1j)
            table = slash2_value(lab, gen, 1j, Fraction(30))
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
        tab = slash2_value(lab, gen, 2j, Fraction(16))
        expect, _ = expansion(FormLabel("f", n, kind, shift), Fraction(16)).evaluate(2j)
        assert abs(tab - expect) < 1e-12, (kind, shift)


def test_slash_outside_level2_raises():
    for gamma in (T, S, Mat2Z(3, 2, 1, 1)):
        with pytest.raises(NotInGamma2):
            slash2_value(FormLabel("f", 3, "B", 0), gamma, 2j, Fraction(16))


def test_petersson_norm():
    assert petersson_norm_sq(1.0, 1j, 2) == 1.0
    assert petersson_norm_sq(2.0, 2j, 2) == 16.0
    v = 0.3 + 0.4j
    assert abs(petersson_norm_sq(3 * v, 1.7j, 2) - 9 * petersson_norm_sq(v, 1.7j, 2)) < 1e-12


def test_coset_product_closed_forms():
    # level 1: single factor, kind B gives -theta^2
    th, _ = theta2_series(Fraction(20)).evaluate(1j)
    assert abs(coset_product_value("B", 0, 1, 1j, Fraction(20)) + th) < 1e-12
    for n in (1, 2):
        for kind in "ABC":
            for z in (1j, 1 + 2j):
                p = coset_product_value(kind, 0, n, z, Fraction(20))
                cf = coset_product_closed_form(kind, n, z, Fraction(20))
                assert abs(p - cf) < 1e-8
    # independence of the index
    p0 = coset_product_value("C", 0, 2, 1 + 2j, Fraction(20))
    p1 = coset_product_value("C", 1, 2, 1 + 2j, Fraction(20))
    assert abs(p0 - p1) < 1e-10


def test_dump_format():
    th = theta2_series(Fraction(2))
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
    assert (inv * a).coefficient(0) == 1
