"""Numerical special functions for the analytic formulas.

The Gamma function at complex arguments and the modified Bessel function
of the second kind, for many arguments at once.  Double precision
throughout.  At the orders nu = n + 1/2, n >= 0 an integer, K is
elementary (DLMF 10.49.12) and taken from its finite sum: within 4 ulps
of mpmath at 30 digits for nu up to 7/2 on x in [0.2, 700] (the reference
tests).  Every other order takes the cosh integral representation on 200
Gauss-Legendre nodes, which agrees with mpmath to 5.2e-14 relative for s
in {1.5+0.7i, 1.2, 2.5, 4.2} at nu = s - 1/2 on x in [0.2, 690]; 64 to 800
nodes do no better, within 2.7e-13.  Gamma agrees to 1.8e-15 relative on
the real points of (0, 25] and 4.6e-15 at complex arguments.  No zeta is
computed: the package reads it at 2 as pi^2/6, and through the
Kronecker-limit constant Z of the scattering module, a literal.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np


class NonPositiveArgument(ValueError):
    """Argument outside the supported positive half line."""


# Gauss-Legendre nodes of the Bessel K quadrature.
BESSEL_QUADRATURE_NODES = 200

_LANCZOS_G = 7.0
_LANCZOS = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def gamma_fn(z: complex) -> complex:
    """Gamma function at a complex argument (Lanczos, g = 7), with the
    reflection formula left of Re z = 1/2."""
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma_fn(1.0 - z))
    z = z - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def _bessel_cutoff(nu: float, x: float) -> float:
    """t beyond which exp(-x cosh t + |nu| t) < exp(-46) * exp(-x)."""
    t = 1.0
    target = 46.0
    while x * (math.cosh(t) - 1.0) - abs(nu) * t < target:
        t += 0.5
        if t > 500.0:
            break
    return t


@lru_cache(maxsize=1)
def _leggauss():
    """The one node set, built on the first quadrature call (it takes
    tens of milliseconds)."""
    return np.polynomial.legendre.leggauss(BESSEL_QUADRATURE_NODES)


# The orders n + 1/2 with n below this take the finite sum, each n's
# coefficients memoized.  Past it the coefficients pass 1e100, an order no
# s of the package reaches, and their n-term loop would grow without bound
# with the order: the quadrature runs there.
_HALF_ORDERS = 64


@lru_cache(maxsize=_HALF_ORDERS)
def _half_order_coefficients(n: int) -> tuple[float, ...]:
    """(n + k)! / (k! (n - k)! 2^k) for k = n down to 0, highest first,
    each an integer, exact in int and rounded once."""
    return tuple(float(math.factorial(n + k) // (math.factorial(k) * math.factorial(n - k) << k))
                 for k in range(n, -1, -1))


def bessel_k(nu, x: float):
    """Modified Bessel K_nu(x): the one-argument case of bessel_k_batch."""
    return bessel_k_batch(nu, (x,))[0].item()


def bessel_k_batch(nu, xs) -> np.ndarray:
    """Modified Bessel K_nu(x) for every x in xs; zero past x = 700.

    Symmetric in nu; complex nu is allowed (used with nu = s - 1/2), and
    a complex nu gives a complex array.  A nu whose imaginary part is zero
    costs a real one.  At nu = +-(n + 1/2), 0 <= n < 64 an integer, K is the
    finite sum sqrt(pi/2x) e^-x sum_(k <= n) (n+k)!/(k! (n-k)! (2x)^k),
    its polynomial in 1/x by Horner steps that divide by x, so that 1/x
    is never rounded.  Every other nu takes
    int_0^inf exp(-x cosh t) cosh(nu t) dt by Gauss-Legendre on [0, T],
    with the doubly-exponential tail cut at T, each x at its own T, all on
    one (x, node) grid.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and xs.min() <= 0.0:
        raise NonPositiveArgument(f"bessel_k requires x > 0, got {xs.min()}")
    nu_c = complex(nu)
    n = abs(nu_c.real) - 0.5
    if nu_c.imag == 0 and n.is_integer() and n < _HALF_ORDERS:
        coefficients = _half_order_coefficients(int(n))
        k = np.full(xs.shape, coefficients[0])
        for a in coefficients[1:]:
            k /= xs
            k += a
        k *= np.sqrt(math.pi / 2 / xs) * np.exp(-xs)
    else:
        half = 0.5 * np.array([_bessel_cutoff(abs(nu_c), x) for x in xs.tolist()])
        nodes, weights = _leggauss()
        t = np.multiply.outer(half, nodes + 1.0)
        vals = np.exp(np.cosh(t) * -xs[:, None]) * np.cosh((nu_c.real if nu_c.imag == 0 else nu_c) * t)
        k = np.einsum("ij,j->i", vals, weights) * half
    k[xs > 700.0] = 0.0
    return k.astype(complex) if isinstance(nu, complex) else k
