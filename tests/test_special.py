import math

import numpy as np
import pytest

from fermatkl.scattering import z_constant
from fermatkl.special import NonPositiveArgument, bessel_k, gamma_fn


def test_zeta_prime_ratio():
    # zeta'(-1) = 1/12 - log A with the Glaisher-Kinkelin constant A, and
    # zeta(-1) = -1/12 times the ratio zeta'(-1)/zeta(-1) = Z + log(4 pi) - 1
    zp_ref = 1.0 / 12 - math.log(1.2824271291006226368753425689)
    ratio = z_constant() + math.log(4.0 * math.pi) - 1.0
    assert abs(-ratio / 12 - zp_ref) < 1e-15
    assert abs(ratio - 12 * abs(zp_ref)) < 1e-14


def test_gamma_values():
    # the package reads Gamma at complex(s); left of Re z = 1/2 by reflection
    assert abs(gamma_fn(0.5 + 0j) - math.sqrt(math.pi)) < 1e-13
    assert abs(gamma_fn(6.0 + 0j) - 120.0) < 1e-10
    assert abs(gamma_fn(1.5 + 0j) - math.sqrt(math.pi) / 2) < 1e-14
    assert abs(gamma_fn(-0.5 + 0j) + 2.0 * math.sqrt(math.pi)) < 1e-13


def test_bessel_half_order_closed_form():
    # 1/2 takes the finite sum; an order one step past it, the quadrature
    for nu in (0.5, math.nextafter(0.5, 1.0)):
        for x in (0.5, 1.0, 2.0, 5.0):
            assert abs(bessel_k(nu, x) - math.sqrt(math.pi / (2 * x)) * math.exp(-x)) < 1e-13


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
