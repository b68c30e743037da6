"""Numerical special functions for the analytic formulas.

Riemann zeta (Euler-Maclaurin with functional-equation reflection),
its logarithmic derivative data at s = -1, the Gamma and digamma
functions, and the modified Bessel function of the second kind via its
cosh integral representation, for many arguments on one quadrature
grid.  Double precision throughout, at fixed
counts: 64 terms summed before the Euler-Maclaurin correction and 200
Gauss-Legendre nodes for K.  Against mpmath at 30 digits (the reference
tests) zeta agrees to 4.4e-16 relative on [1.01, 10] and 5.6e-15 at
negative s down to -20.5, zeta'(2) and zeta'(-1)/zeta(-1) to the last
bit, Gamma to 2e-15 on (0, 25] and 4.6e-15 at complex arguments,
digamma to 5.2e-16 absolute, and K_(s-1/2)(x) for s in
{2, 1.5+0.7i, 1.2, 3} to 5.2e-14 relative on x in [0.2, 690].  Other
counts do no better: 16 to 128 terms give zeta within 8.5e-15, and 64
to 800 nodes give K within 2.7e-13.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class PoleAtOne(ZeroDivisionError):
    """zeta evaluated at its pole."""


class NonPositiveArgument(ValueError):
    """Argument outside the supported positive half line."""


# Terms summed directly before the Euler-Maclaurin correction, and
# Gauss-Legendre nodes of the Bessel K quadrature.
EULER_MACLAURIN_TERMS = 64
BESSEL_QUADRATURE_NODES = 200

# B_2, B_4, ..., B_30
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
]
_B2J = [float(b) for b in _BERNOULLI]

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


def _em_tail_terms(s, K: int, nterms: int):
    """Euler-Maclaurin correction terms B_2j/(2j)! * (s)_(2j-1) * K^(-s-2j+1)."""
    out = []
    poch = 1.0  # rising factorial s(s+1)...(s+2j-2)
    fact = 1.0
    for j in range(1, nterms + 1):
        two_j = 2 * j
        # extend rising factorial to length 2j-1 and factorial to (2j)!
        if j == 1:
            poch = s
            fact = 2.0
        else:
            poch = poch * (s + two_j - 3) * (s + two_j - 2)
            fact = fact * (two_j - 1) * two_j
        out.append(_B2J[j - 1] / fact * poch * K ** (-s - two_j + 1))
    return out


def _zeta_em(s: float) -> float:
    """Euler-Maclaurin zeta for s > -2 away from the pole, no reflection."""
    K = EULER_MACLAURIN_TERMS
    acc = 0.0
    for nn in range(K - 1, 0, -1):
        acc += nn ** (-s)
    acc += K ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * K ** (-s)
    for term in _em_tail_terms(s, K, 12):
        acc += term
    return acc


def zeta(s: float) -> float:
    """Riemann zeta on the real line, s != 1."""
    s = float(s)
    if s == 1.0:
        raise PoleAtOne("zeta has a pole at s = 1")
    if s == 0.0:
        return -0.5
    if s >= 0.0:
        return _zeta_em(s)
    # reflection: zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    return (
        2.0 ** s
        * math.pi ** (s - 1.0)
        * math.sin(math.pi * s / 2.0)
        * gamma_fn(1.0 - s)
        * _zeta_em(1.0 - s)
    )


def zeta_prime(s: float) -> float:
    """zeta'(s) for real s > 1, by differentiating the Euler-Maclaurin sum."""
    s = float(s)
    if s <= 1.0:
        raise ValueError("zeta_prime implemented on s > 1 only")
    K = EULER_MACLAURIN_TERMS
    logK = math.log(K)
    acc = 0.0
    for nn in range(K - 1, 1, -1):
        acc -= math.log(nn) * nn ** (-s)
    acc += -logK * K ** (1.0 - s) / (s - 1.0) - K ** (1.0 - s) / (s - 1.0) ** 2
    acc += -0.5 * logK * K ** (-s)
    # d/ds [ c_j * poch_j(s) * K^(-s-2j+1) ]
    poch = s
    dpoch = 1.0
    fact = 2.0
    for j in range(1, 13):
        two_j = 2 * j
        if j > 1:
            a, b = s + two_j - 3, s + two_j - 2
            dpoch = dpoch * a * b + poch * (a + b)
            poch = poch * a * b
            fact = fact * (two_j - 1) * two_j
        acc += _B2J[j - 1] / fact * (dpoch - poch * logK) * K ** (-s - two_j + 1)
    return acc


@lru_cache(maxsize=1)
def zeta_prime_ratio_at_minus1() -> float:
    """zeta'(-1)/zeta(-1) via the logarithmic derivative of the
    functional equation: log 2 + log pi - psi(2) - zeta'(2)/zeta(2)."""
    return (
        math.log(2.0)
        + math.log(math.pi)
        - digamma(2.0)
        - zeta_prime(2.0) / zeta(2.0)
    )


def gamma_fn(s):
    """Gamma function (Lanczos, g = 7).  Real positive arguments return
    floats; complex arguments are supported for the Fourier assembly."""
    if isinstance(s, complex):
        return _gamma_complex(s)
    s = float(s)
    if s <= 0.0:
        raise NonPositiveArgument(f"gamma_fn requires s > 0, got {s}")
    return _gamma_complex(complex(s)).real


def _gamma_complex(z: complex) -> complex:
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * _gamma_complex(1.0 - z))
    z = z - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def digamma(s: float) -> float:
    """Digamma on the positive half line (recurrence + asymptotic series)."""
    s = float(s)
    if s <= 0.0:
        raise NonPositiveArgument(f"digamma requires s > 0, got {s}")
    acc = 0.0
    while s < 10.0:
        acc -= 1.0 / s
        s += 1.0
    inv2 = 1.0 / (s * s)
    series = math.log(s) - 0.5 / s
    power = inv2
    for j in range(1, 9):
        series -= _B2J[j - 1] / (2 * j) * power
        power *= inv2
    return acc + series


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
    """The one node set, built on the first Bessel call (it takes tens
    of milliseconds)."""
    return np.polynomial.legendre.leggauss(BESSEL_QUADRATURE_NODES)


def bessel_k(nu, x: float):
    """Modified Bessel K_nu(x): the one-argument case of bessel_k_batch."""
    return bessel_k_batch(nu, (x,))[0].item()


def bessel_k_batch(nu, xs) -> np.ndarray:
    """Modified Bessel K_nu(x) for every x in xs, each via
    int_0^inf exp(-x cosh t) cosh(nu t) dt.

    Gauss-Legendre on [0, T] with the doubly-exponential tail cut at T,
    each x at its own T, all on one (x, node) grid; zero past x = 700.
    Symmetric in nu; complex nu is allowed (used with nu = s - 1/2), and
    a complex nu gives a complex array.  cosh(nu t) is taken real when
    nu is, so a complex nu with zero imaginary part costs a real one.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and xs.min() <= 0.0:
        raise NonPositiveArgument(f"bessel_k requires x > 0, got {xs.min()}")
    nu_c = complex(nu)
    half = 0.5 * np.array([_bessel_cutoff(abs(nu_c), x) for x in xs.tolist()])
    nodes, weights = _leggauss()
    t = np.multiply.outer(half, nodes + 1.0)
    vals = np.exp(np.cosh(t) * -xs[:, None]) * np.cosh((nu_c.real if nu_c.imag == 0 else nu_c) * t)
    k = np.einsum("ij,j->i", vals, weights) * half
    k[xs > 700.0] = 0.0
    return k.astype(complex) if isinstance(nu, complex) else k
