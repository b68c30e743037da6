"""The special functions and the Kronecker-limit constant Z against
mpmath at 30 digits, over the arguments the package evaluates them at."""

import numpy as np
import pytest

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
