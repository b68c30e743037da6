"""The special functions against mpmath at 30 digits, over the
arguments the package evaluates them at."""

import numpy as np
import pytest

from fermatkl.special import (
    NonPositiveArgument,
    bessel_k,
    bessel_k_batch,
    digamma,
    gamma_fn,
    zeta,
    zeta_prime,
    zeta_prime_ratio_at_minus1,
)


@pytest.fixture
def mp():
    """mpmath at 30 significant digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


def rel_err(value, ref) -> float:
    return abs(value - complex(ref)) / abs(complex(ref))


def test_zeta_against_mpmath(mp):
    # s < 0 goes through the reflection; even negative integers are zeros
    for s in [*np.linspace(1.01, 10.0, 60), -0.5, -1.0, -1.5, -2.5, -3.0,
              -5.5, -7.0, -9.5, -15.5]:
        assert rel_err(zeta(float(s)), mp.zeta(s)) < 1e-14, s


def test_zeta_prime_against_mpmath(mp):
    assert rel_err(zeta_prime(2.0), mp.zeta(2, derivative=1)) < 1e-14
    for s in np.linspace(1.05, 8.0, 15):
        assert rel_err(zeta_prime(float(s)), mp.zeta(s, derivative=1)) < 1e-14, s
    ref = mp.zeta(-1, derivative=1) / mp.zeta(-1)
    assert rel_err(zeta_prime_ratio_at_minus1(), ref) < 1e-14


def test_gamma_and_digamma_against_mpmath(mp):
    for x in (0.1, 0.5, 1.0, 1.5, 2.5, 6.0, 10.3, 25.0):
        assert rel_err(gamma_fn(x), mp.gamma(x)) < 1e-14, x
    for z in (1.5 + 0.7j, 0.5 + 2j, 2 + 0.5j, 3.25 - 1j, 1.2 + 5j, 0.7 - 0.3j, -0.5 + 0.5j):
        assert rel_err(gamma_fn(z), mp.gamma(z)) < 1e-14, z
    for x in (0.1, 0.5, 1.0, 1.4616321449683623, 2.0, 3.7, 10.0, 42.5):
        assert abs(digamma(x) - float(mp.digamma(x))) < 1e-14, x


def test_bessel_k_against_mpmath(mp):
    # the orders s - 1/2 of the Fourier path, over the arguments it reads
    for s in (2.0, 1.5 + 0.7j, 1.2, 3.0):
        nu = s - 0.5
        for x in np.geomspace(0.2, 690.0, 30):
            assert rel_err(bessel_k(nu, float(x)), mp.besselk(nu, x)) < 1e-12, (s, x)


def test_bessel_k_batch_against_scalar_and_mpmath(mp):
    # one (x, node) grid, each x at its own cut-off, gives the bits of the
    # one-argument calls; a complex order with zero imaginary part takes
    # the real cosh and still returns complex values
    xs = np.geomspace(0.2, 690.0, 30)
    for s in (2.0, 1.5 + 0.7j, 1.2, 3.0):
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
