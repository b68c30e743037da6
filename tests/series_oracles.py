"""Oracles on the exact q-series for the pointwise form values.

The package evaluates forms at a point from theta products
(qseries.FormsAt); these evaluate the exact truncated series instead.
"""

from fractions import Fraction

from fermatkl.qseries import FormLabel, expansion


def slash2_value_direct(label, gamma, z, order=Fraction(26)):
    """(f |_k gamma)(z) as (cz+d)^(-k) f(gamma z), the series evaluated at
    the transformed point.  Needs Im(gamma z) moderate."""
    w = (gamma.a * z + gamma.b) / (gamma.c * z + gamma.d)
    val, _ = expansion(label, Fraction(order)).evaluate(w)
    return val * (gamma.c * z + gamma.d) ** (-label.weight)


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
