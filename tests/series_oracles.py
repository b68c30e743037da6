"""Oracles on the exact q-series for the pointwise form values.

The package evaluates forms at a point from theta products
(qseries.FormsAt); these evaluate the exact truncated series instead.
The slash transformation table of the forms under the level-2 group,
and the coefficient reads of the exact series, live here too.
"""

from fractions import Fraction

from fermatkl.fermat import class_shift
from fermatkl.qseries import FormLabel, FormsAt, QExpansion, RadicalSum, ZeroSeries, expansion, zeta_power
from fermatkl.sl2 import NotInGamma2, gamma2_exponent_sums


def leading(f) -> tuple[Fraction, complex]:
    """(exponent, coefficient) of the lowest-order term of a QExpansion or
    RadicalSum, the coefficient summed over the terms."""
    terms = f.terms if isinstance(f, RadicalSum) else (f,)
    k = min((k for t in terms for k in t.coeffs), default=None)
    if k is None:
        raise ZeroSeries("series has no retained terms")
    return Fraction(k, terms[0].denom), sum(t.prefactor * complex(t.coeffs[k])
                                            for t in terms if k in t.coeffs)


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
    val, _ = expansion(label, Fraction(order)).evaluate(w)
    return val * (gamma.c * z + gamma.d) ** (-weight)


def coset_product_closed_form(kind, n, z, order=Fraction(26)):
    """The closed forms (-1)^(N^2) theta^(2N^2) (lambda/(1-lambda))^(N^2),
    (-1)^(N^2) theta^(2N^2), theta^(2N^2) (1-lambda)^(-N^2) of the coset
    products, from the level-2 series."""
    order = Fraction(order)
    th, lam, oml = (expansion(FormLabel(name), order).evaluate(z)[0]
                    for name in ("theta2", "lambda", "one_minus_lambda"))
    n2 = n * n
    sign = (-1.0) ** (n2 % 2)
    if kind == "A":
        return sign * th ** n2 * (lam / oml) ** n2
    if kind == "B":
        return sign * th ** n2
    return th ** n2 / oml ** n2
