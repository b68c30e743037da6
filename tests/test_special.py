import math

import numpy as np
import pytest

from fermatkl.special import (
    NonPositiveArgument,
    PoleAtOne,
    bessel_k,
    digamma,
    gamma_fn,
    zeta,
    zeta_prime,
    zeta_prime_ratio_at_minus1,
)

EULER = 0.57721566490153286060651209008240243104


def zeta_partial_sum_oracle(s: float, terms: int = 400000) -> tuple[float, float]:
    """Partial summation with integral tail bracket, independent of the
    Euler-Maclaurin path."""
    acc = math.fsum(n ** -s for n in range(1, terms + 1))
    hi = terms ** (1 - s) / (s - 1)
    lo = (terms + 1) ** (1 - s) / (s - 1)
    mid = acc + 0.5 * (lo + hi)
    return mid, 0.5 * (hi - lo) + 1e-13


def test_zeta_closed_forms():
    assert abs(zeta(2.0) - math.pi ** 2 / 6) < 1e-14
    assert abs(zeta(0.0) + 0.5) < 1e-15
    assert abs(zeta(-1.0) + 1.0 / 12) < 1e-15
    assert abs(zeta(4.0) - math.pi ** 4 / 90) < 1e-14


def test_zeta_3_against_partial_sum_oracle():
    mid, width = zeta_partial_sum_oracle(3.0)
    assert abs(zeta(3.0) - mid) <= width + 1e-12
    assert abs(zeta(3.0) - 1.2020569031595942854) < 1e-13


def test_zeta_pole():
    with pytest.raises(PoleAtOne):
        zeta(1.0)


def test_zeta_functional_equation_sampled():
    # checked in the direction that keeps the Gamma argument positive
    for s in (-0.9, -0.5, -0.1):
        lhs = zeta(s)
        rhs = (2.0 ** s * math.pi ** (s - 1.0)
               * math.sin(math.pi * s / 2.0) * gamma_fn(1.0 - s) * zeta(1.0 - s))
        assert abs(lhs - rhs) < 1e-12, s
    for s in (2.2, 3.0, 3.8):
        lhs = zeta(1.0 - s)
        rhs = (2.0 ** (1.0 - s) * math.pi ** -s
               * math.sin(math.pi * (1.0 - s) / 2.0) * gamma_fn(s) * zeta(s))
        assert abs(lhs - rhs) < 1e-12, s


def test_zeta_prime_ratio():
    # zeta'(-1) = 1/12 - log A with the Glaisher-Kinkelin constant
    zp_ref = 1.0 / 12 - math.log(1.2824271291006226368753425689)
    ratio = zeta_prime_ratio_at_minus1()
    assert abs(zeta(-1.0) * ratio - zp_ref) < 1e-13
    assert abs(ratio - 12 * abs(zp_ref)) < 1e-11


def test_gamma_values():
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-13
    assert abs(gamma_fn(6.0) - 120.0) < 1e-10
    assert abs(gamma_fn(1.5) - math.sqrt(math.pi) / 2) < 1e-14
    with pytest.raises(NonPositiveArgument):
        gamma_fn(-1.0)


def test_digamma_values():
    assert abs(digamma(1.0) + EULER) < 1e-13
    assert abs(digamma(0.5) + EULER + 2 * math.log(2.0)) < 1e-13
    assert abs(digamma(2.0) - (1.0 - EULER)) < 1e-13
    with pytest.raises(NonPositiveArgument):
        digamma(0.0)


def test_bessel_half_order_closed_form():
    for x in (0.5, 1.0, 2.0, 5.0):
        assert abs(bessel_k(0.5, x) - math.sqrt(math.pi / (2 * x)) * math.exp(-x)) < 1e-13


def test_bessel_symmetry_and_value():
    for nu, x in ((1.5, 2.5), (0.3, 0.9), (2.0, 4.0)):
        assert abs(bessel_k(-nu, x) - bessel_k(nu, x)) < 1e-14
    assert abs(bessel_k(1.0, 2.0) - 0.13986588181652243) < 1e-12
    with pytest.raises(NonPositiveArgument):
        bessel_k(1.0, 0.0)


def test_bessel_recurrence_and_monotone():
    for nu, x in ((1.0, 2.0), (0.7, 1.3), (2.2, 5.0)):
        lhs = bessel_k(nu + 1, x)
        rhs = bessel_k(nu - 1, x) + (2 * nu / x) * bessel_k(nu, x)
        assert abs(lhs - rhs) < 1e-12
    xs = np.linspace(0.5, 6.0, 12)
    vals = [bessel_k(0.8, float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
