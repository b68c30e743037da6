"""The special functions and the Kronecker-limit constant Z against
mpmath at 30 digits, over the arguments the package evaluates them at."""

import math
import time

import numpy as np
import pytest

from fermatkl import special
from fermatkl.scattering import z_constant
from fermatkl.special import NonPositiveArgument, bessel_k, bessel_k_batch, gamma_fn


@pytest.fixture
def mp():
    """mpmath at 30 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


def rel_err(value, ref) -> float:
    return abs(value - complex(ref)) / abs(complex(ref))


def test_zeta_prime_against_mpmath(mp):
    ref = mp.zeta(-1, derivative=1) / mp.zeta(-1) - mp.log(4 * mp.pi) + 1
    assert rel_err(z_constant(), ref) < 1e-16


def test_gamma_against_mpmath(mp):
    # the real points are the complex(s) the Fourier assembly passes
    for x in (0.1, 0.5, 1.0, 1.5, 2.5, 6.0, 10.3, 25.0):
        assert rel_err(gamma_fn(complex(x)), mp.gamma(x)) < 1e-14, x
    for z in (1.5 + 0.7j, 0.5 + 2j, 2 + 0.5j, 3.25 - 1j, 1.2 + 5j, 0.7 - 0.3j, -0.5 + 0.5j):
        assert rel_err(gamma_fn(z), mp.gamma(z)) < 1e-14, z


def test_bessel_k_against_mpmath(mp):
    # the orders s - 1/2 of the Fourier path, over the arguments it reads:
    # s = 2 and 3 take the finite sum, the rest the quadrature, at real
    # orders past 1 too
    for s in (2.0, 1.5 + 0.7j, 1.2, 3.0, 2.5, 4.2):
        nu = s - 0.5
        for x in np.geomspace(0.2, 690.0, 30):
            assert rel_err(bessel_k(nu, float(x)), mp.besselk(nu, x)) < 1e-12, (s, x)


def test_bessel_k_batch_against_scalar_and_mpmath(mp):
    # one (x, node) grid, each x at its own cut-off, gives the bits of the
    # one-argument calls; a complex order with zero imaginary part takes
    # the real cosh and still returns complex values
    xs = np.geomspace(0.2, 690.0, 30)
    for s in (2.0, 1.5 + 0.7j, 1.2, 3.0, 2.5, 4.2):
        for nu in (s - 0.5, complex(s) - 0.5):
            got = bessel_k_batch(nu, xs)
            assert got.dtype == (complex if isinstance(nu, complex) else float)
            for x, k in zip(xs.tolist(), got.tolist()):
                assert k == bessel_k(nu, x), (nu, x)
                assert rel_err(k, mp.besselk(nu, x)) < 1e-12, (nu, x)
    assert bessel_k_batch(1.5, [700.5, 1e4]).tolist() == [0.0, 0.0]
    assert bessel_k_batch(1.5, []).size == 0
    with pytest.raises(NonPositiveArgument):
        bessel_k_batch(1.5, [1.0, 0.0])


# x over [0.2, 700], where the Fourier path reads K before its zero past 700
_HALF_ORDER_GRID = np.geomspace(0.2, 700.0, 60)


def _half_order_ulps(mp, nu) -> float:
    """Worst |K_nu(x) - mpmath| over _HALF_ORDER_GRID, in ulps of the
    reference."""
    got = bessel_k_batch(nu, _HALF_ORDER_GRID)
    return max(float(abs(mp.mpf(k) - mp.besselk(nu, x)) / math.ulp(float(mp.besselk(nu, x))))
               for x, k in zip(_HALF_ORDER_GRID.tolist(), got.tolist()))


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_half_order_bessel_k_within_4_ulps(mp, nu):
    # K_(n+1/2) from its finite sum, at either sign of the order and at a
    # complex order with zero imaginary part
    assert _half_order_ulps(mp, nu) <= 4.0, nu
    assert bessel_k_batch(-nu, _HALF_ORDER_GRID).tolist() == bessel_k_batch(nu, _HALF_ORDER_GRID).tolist()
    assert bessel_k_batch(complex(nu), _HALF_ORDER_GRID).tolist() == \
        bessel_k_batch(nu, _HALF_ORDER_GRID).astype(complex).tolist()


@pytest.mark.parametrize("n, slot", [(n, slot) for n in range(4) for slot in range(n + 1)])
def test_half_order_coefficient_off_by_one_fails(mp, monkeypatch, n, slot):
    # any one coefficient of the finite sum plus 1 fails the 4-ulp check
    coefficients = list(special._half_order_coefficients(n))
    coefficients[slot] += 1.0
    monkeypatch.setattr(special, "_half_order_coefficients", lambda m: tuple(coefficients))
    assert _half_order_ulps(mp, n + 0.5) > 4.0


def test_orders_past_the_finite_sum_take_the_quadrature(mp):
    # n = 63 is the last order n + 1/2 of the finite sum; past it the
    # quadrature runs, at n = 2^51 too, where the sum would take 2^51 terms
    for nu in (63.5, 64.5):
        assert rel_err(bessel_k(nu, 1.0), mp.besselk(nu, 1.0)) < 1e-12, nu
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        bessel_k(2.0 ** 51 + 0.5, 1.0)
    assert time.perf_counter() - start < 1.0
