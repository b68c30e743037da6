"""Oracles on the exact q-series for the pointwise form values.

The package evaluates forms at a point from theta products
(qseries.FormsAt) only; series_value sums the exact truncated series
instead, and the oracles that take a value at a point read it.
The slash transformation table of the forms under the level-2 group,
and the coefficient reads of the exact series, live here too.  So do
the references for the package's one row per kind and fiber product:
the class terms built from x, 1/y and x/y, and the coset product as a
value, as the N-th power of the fiber product and over every
representative.
"""

import cmath
from fractions import Fraction
from math import comb, pi, prod

from fermatkl.fermat import class_shift
from fermatkl.qseries import (
    FormLabel,
    FormsAt,
    QExpansion,
    RadicalSum,
    constant,
    expansion,
    zeta_power,
)
from fermatkl.sl2 import NotInGamma2, gamma2_exponent_sums


def series_value(series, z: complex) -> complex:
    """The float sum of weight * prefactor * c_k q^(k/D) over the exact
    terms of a QExpansion or RadicalSum at z, in increasing k, with no
    tail or rounding bound."""
    terms = series.terms if isinstance(series, RadicalSum) else ((1, series),)
    total = 0j
    for weight, t in terms:
        w = cmath.exp(2j * pi * z / t.denom)
        acc = 0j
        for k in sorted(t.coeffs):
            acc += float(t.coeffs[k]) * w ** k
        total += weight * (t.prefactor * acc)
    return total


def rotated(t: QExpansion, h) -> QExpansion:
    """t times e^(i pi h) exactly, as a shift of its prefactor."""
    return QExpansion(t.denom, t.coeffs, t.order, t.pref2, t.prefh + Fraction(h))


def max_abs_coeff_diff(f: QExpansion, g: QExpansion) -> float:
    """Largest coefficient difference up to the shared order, taken
    exactly and rounded once; the prefactors must agree."""
    d = f - g
    return abs(d.prefactor) * float(max(map(abs, d.coeffs.values()), default=0))


def _slash_shift(label: FormLabel, r1: int, r2: int) -> tuple[FormLabel, complex]:
    """Transformation of a label under a level-2 word with exponent sums
    (r1, r2): returns (new label, scalar multiplier).

    Table: x -> zeta^-1 x under both generators, y -> zeta^-1 y under g1
    and y -> y under g2; theta^2 and the g-forms are invariant; the
    f-forms permute within their kind."""
    n = label.n
    if label.name == "x":
        return label, zeta_power(n, -(r1 + r2))
    if label.name == "y":
        return label, zeta_power(n, -r1)
    if label.name == "f":
        j = (label.j + class_shift(label.kind, r1, r2)) % n
        return FormLabel("f", n, label.kind, j), 1.0 + 0j
    return label, 1.0 + 0j


def slash2_value(label: FormLabel, gamma, z: complex) -> complex:
    """Value of (f |_k gamma)(z) for gamma in the level-2 group, via the
    transformation table (exact in the multiplier, evaluated at z)."""
    r = gamma2_exponent_sums(*gamma.entries())
    if r is None:
        raise NotInGamma2(f"{gamma} is not in the level-2 group")
    new_label, mult = _slash_shift(label, *r)
    val, _ = FormsAt(z).value(new_label)
    return mult * val


def slash2_value_direct(label, gamma, z, order=Fraction(26)):
    """(f |_k gamma)(z) as (cz+d)^(-k) f(gamma z), the series evaluated at
    the transformed point, k = 2 for theta2, the g forms and f, and 0
    for the functions lambda, 1 - lambda, x and y.  Needs Im(gamma z)
    moderate."""
    weight = 2 if label.name in ("theta2", "g0", "g1", "ginf", "f") else 0
    w = (gamma.a * z + gamma.b) / (gamma.c * z + gamma.d)
    val = series_value(expansion(label, Fraction(order)), w)
    return val * (gamma.c * z + gamma.d) ** (-weight)


def coset_product_closed_form(kind, n, z, order=Fraction(26)):
    """The closed forms (-1)^(N^2) theta^(2N^2) (lambda/(1-lambda))^(N^2),
    (-1)^(N^2) theta^(2N^2), theta^(2N^2) (1-lambda)^(-N^2) of the coset
    products, from the level-2 series."""
    order = Fraction(order)
    th, lam, oml = (series_value(expansion(FormLabel(name), order), z)
                    for name in ("theta2", "lambda", "one_minus_lambda"))
    n2 = n * n
    sign = (-1.0) ** (n2 % 2)
    if kind == "A":
        return sign * th ** n2 * (lam / oml) ** n2
    if kind == "B":
        return sign * th ** n2
    return th ** n2 / oml ** n2


def _root_oracle(radicand: str, n: int, order) -> QExpansion:
    """x = lambda^(1/n) or y = (1-lambda)^(1/n), principal branch."""
    lam = expansion(FormLabel(radicand), Fraction(order) + 1)
    return lam.nth_root(n).truncate(Fraction(order))


def class_terms_oracle(kind: str, n: int, order) -> tuple[QExpansion, ...]:
    """T_0 .. T_(n-1) with f[kind, j] = sum_r zeta^(+-jr) T_r, from the
    binomial expansion in x and y, zeta = e(1/n), eps = e(1/2n):
      A: theta^2 sum_i C(n,i) (-1)^i zeta^(ji) y^-i
      B: ginf sum_i C(n,i) (-1)^(n-i) zeta^(-ji) x^i
      C: theta^2 sum_i C(n,i) (-1)^(n-i) eps^(n-i) zeta^(-ji) (x/y)^i
    with the terms i = 0 and i = n merged into T_0."""
    order = Fraction(order)
    work = order + 2
    x, y = _root_oracle("lambda", n, work), _root_oracle("one_minus_lambda", n, work)
    base = {"A": y.inverse(), "B": x, "C": x * y.inverse()}[kind]
    outer = expansion(FormLabel("ginf" if kind == "B" else "theta2"), work)
    powers = [constant(1, 2 * n, work), base]
    while len(powers) <= n:
        powers.append(powers[-1] * base)
    inner = []
    for i, p in enumerate(powers):
        p = p.scale(comb(n, i) * (-1) ** (i if kind == "A" else n - i))
        inner.append(rotated(p, Fraction(n - i, n)) if kind == "C" else p)
    inner[0] = inner[0] + inner.pop()
    return tuple((outer * t).truncate(order) for t in inner)


def f_series_oracle(kind: str, n: int, order) -> list[RadicalSum]:
    """f[kind, j] for j = 0 .. n-1 from class_terms_oracle, each T_r
    rotated by zeta^(+-jr) and the terms of one prefactor added exactly,
    each of weight 1."""
    sign = 1 if kind == "A" else -1
    terms = class_terms_oracle(kind, n, order)
    forms = []
    for j in range(n):
        by_prefactor: dict = {}
        for r, t in enumerate(terms):
            t = rotated(t, Fraction(2 * sign * j * r, n))
            key = (t.pref2, t.prefh)
            by_prefactor[key] = by_prefactor[key] + t if key in by_prefactor else t
        forms.append(RadicalSum(tuple((1, t) for t in by_prefactor.values())))
    return forms


def coset_product_value(kind: str, n: int, z: complex) -> complex:
    """Product of f[kind, j] |_2 gamma over the n^2 coset representatives
    g1^a g2^b.  Each factor is f[kind, j + class_shift(kind, a, b)], and
    class_shift takes every value mod n exactly n times, so the product
    is (prod_l f[kind, l])^n, whatever j."""
    at = FormsAt(z)
    return prod(at.value(FormLabel("f", n, kind, l))[0] for l in range(n)) ** n


def coset_product_loop(kind: str, j: int, n: int, z: complex) -> complex:
    """Product of f[kind, j] |_2 gamma over the n^2 coset representatives
    g1^a g2^b, each f[kind, j + class_shift(kind, a, b)] at the point."""
    at = FormsAt(z)
    values = [at.value(FormLabel("f", n, kind, l))[0] for l in range(n)]
    out = 1.0 + 0j
    for a in range(n):
        for b in range(n):
            out *= values[(j + class_shift(kind, a, b)) % n]
    return out
