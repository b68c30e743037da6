"""Truncated q-expansions with fractional exponents.

Series live on the exponent lattice (1/D)Z with an explicit truncation
order; arithmetic never claims coefficients beyond what the operands
determine.  Coefficients are exact rationals, and the constructor
rejects anything else.  An attached radical prefactor 2^a * e^(i pi b),
kept canonical with a, b in [0, 1), makes N-th roots exact up to a
single scalar, which is what makes identities like x^N + y^N = 1 hold
exactly.  Inverses, integer powers and roots are one operation, a
rational power by Miller's recurrence.

The module also provides the concrete forms.  The level-2 ones are
quotients sign theta_num^4/theta_den^4 of Jacobi's theta series, listed
once in _LEVEL2_FORMS: theta^2 = theta3^4, the weight-2 forms G_j, the
hauptmodul lambda = -theta4^4/theta2^4 fixing the three cusps and
1 - lambda = theta3^4/theta2^4.  So x^N + y^N = 1 for the level-N
functions x = lambda^(1/N), y = (1-lambda)^(1/N) is Jacobi's identity
theta3^4 = theta2^4 + theta4^4.  Then come the weight-2 forms attached
to the cusps of the Fermat groups, their slash transformation table, and
Petersson norms.  Those forms mix radicals, so each is a RadicalSum: a
few exact series with distinct prefactors, rounded only when evaluated
or dumped.

The same forms have two representations.  FormsAt gives their values
at a point, with an error estimate, from Jacobi's triple products and
the closed forms of x, y and f in theta: a few dozen complex terms,
which the Kronecker-limit checks, the slash table and the coset
products use.  The exact series serve the q-expansion dumps (qexp) and
the identities checked coefficientwise, and their float evaluation
remains for comparison; in floats the class terms of a form can cancel,
so it is not the path to a value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .fermat import KIND_A, KIND_B, KIND_C, class_shift
from .sl2 import Mat2Z, NotInGamma2, gamma2_exponent_sums

_UNIT = 2.0 ** -53  # float64 unit roundoff, for the rounding bounds


class OrderTooSmall(ValueError):
    """Requested truncation cannot resolve the leading term."""


class ZeroSeries(ValueError):
    """Operation undefined on the identically-truncated-to-zero series."""


class ConvergenceRegion(ValueError):
    """Evaluation point too close to the real axis for a useful bound."""


@dataclass(frozen=True)
class QExpansion:
    """Truncated Laurent-type series sum c_k q^(k/denom).

    ``coeffs`` maps exponent numerators to exact rational coefficients
    (int or Fraction; anything else raises TypeError); ``order`` bounds
    the known exponents: terms with exponent > order are unknown, terms
    absent with exponent <= order are zero.  ``pref2``/``prefh`` encode
    a global scalar 2^pref2 * e^(i pi prefh), both in [0, 1): integer
    parts are folded into the coefficients.
    """

    denom: int
    coeffs: dict
    order: Fraction
    pref2: Fraction = Fraction(0)
    prefh: Fraction = Fraction(0)

    def __post_init__(self):
        if self.denom < 1:
            raise ValueError("denominator must be positive")
        order, pref2, prefh = Fraction(self.order), Fraction(self.pref2), Fraction(self.prefh)
        i2, ih = math.floor(pref2), math.floor(prefh)
        fold = Fraction(2) ** i2 * (-1) ** (ih % 2) if i2 or ih else None
        cleaned = {}
        bound = math.floor(order * self.denom)
        for k, v in self.coeffs.items():
            if not isinstance(v, (Fraction, int)):
                raise TypeError(f"coefficients must be exact rationals, got {type(v).__name__}")
            if v == 0 or k > bound:
                continue
            if fold is not None:
                v = fold * v
            cleaned[k] = v if type(v) is Fraction else Fraction(v)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "pref2", pref2 - i2)
        object.__setattr__(self, "prefh", prefh - ih)
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def prefactor(self) -> complex:
        return 2.0 ** float(self.pref2) * cmath.exp(1j * math.pi * float(self.prefh))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> tuple[Fraction, complex]:
        """(exponent, coefficient) of the lowest-order term."""
        return RadicalSum((self,)).leading()

    def coefficient(self, exponent) -> complex:
        """Coefficient of q^exponent (0 for absent retained exponents)."""
        e = Fraction(exponent)
        num = e * self.denom
        if num.denominator != 1:
            return 0j
        if e > self.order:
            raise OrderTooSmall(f"coefficient of q^{e} beyond truncation {self.order}")
        v = self.coeffs.get(int(num), 0)
        return self.prefactor * complex(v)

    def with_denom(self, new_denom: int) -> "QExpansion":
        if new_denom % self.denom:
            raise ValueError("denominator must be a multiple")
        f = new_denom // self.denom
        if f == 1:
            return self
        return QExpansion(new_denom, {k * f: v for k, v in self.coeffs.items()},
                          self.order, self.pref2, self.prefh)

    def truncate(self, order) -> "QExpansion":
        order = Fraction(order)
        if order >= self.order:
            return self
        bound = order * self.denom
        return QExpansion(self.denom, {k: v for k, v in self.coeffs.items() if k <= bound},
                          order, self.pref2, self.prefh)

    def rotate_halfturns(self, h) -> "QExpansion":
        """Multiply by e^(i pi h) exactly, as a prefactor phase shift."""
        return QExpansion(self.denom, self.coeffs, self.order,
                          self.pref2, self.prefh + Fraction(h))

    # -- ring operations ---------------------------------------------------

    def _aligned(self, other: "QExpansion"):
        d = self.denom * other.denom // gcd(self.denom, other.denom)
        return self.with_denom(d), other.with_denom(d)

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other):
        if not isinstance(other, QExpansion):
            other = constant(other, self.denom, self.order)
        f, g = self._aligned(other)
        if (f.pref2, f.prefh) != (g.pref2, g.prefh):
            raise ValueError("cannot add series with different radical prefactors")
        out = dict(f.coeffs)
        for k, v in g.coeffs.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return QExpansion(f.denom, out, min(f.order, g.order), f.pref2, f.prefh)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, QExpansion):
            other = constant(other, self.denom, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, scalar) -> "QExpansion":
        """Multiply by an exact rational scalar."""
        return QExpansion(self.denom, {k: scalar * v for k, v in self.coeffs.items()},
                          self.order, self.pref2, self.prefh)

    def __mul__(self, other):
        if not isinstance(other, QExpansion):
            return self.scale(other)
        f, g = self._aligned(other)
        if f.is_zero() or g.is_zero():
            return QExpansion(f.denom, {}, min(f.order, g.order))
        ef = min(f.coeffs)
        eg = min(g.coeffs)
        bound_num = min(f.order * f.denom + eg, g.order * g.denom + ef)
        order = Fraction(bound_num, f.denom)
        fk = sorted(f.coeffs.items())
        gk = sorted(g.coeffs.items())
        out: dict = {}
        for k1, v1 in fk:
            if k1 + eg > bound_num:
                break
            for k2, v2 in gk:
                k = k1 + k2
                if k > bound_num:
                    break
                cur = out.get(k)
                out[k] = v1 * v2 if cur is None else cur + v1 * v2
        return QExpansion(f.denom, out, order,
                          f.pref2 + g.pref2, f.prefh + g.prefh)

    def __rmul__(self, other):
        return self.scale(other)

    def power(self, alpha) -> "QExpansion":
        """self^alpha for an int or Fraction alpha, by J.C.P. Miller's
        power recurrence (Knuth, TAOCP Vol. 2, 4.7).

        With self = c0 q^(e0/D) (1 + h), the powered unit series is
        sum u_m q^(m/D) with u_0 = 1 and
        m u_m = sum_(k=1..m) ((alpha+1) k - m) h_k u_(m-k).
        A non-integer alpha needs c0 = +-2^k: the principal value of
        (prefactor * c0)^alpha becomes the radical prefactor, and the
        exponent lattice is refined to D times the denominator of alpha.
        The relative precision of self carries over.
        """
        if not isinstance(alpha, (int, Fraction)):
            raise TypeError("only rational powers are supported")
        if self.is_zero():
            raise ZeroSeries("cannot raise the zero series to a power")
        p, d = alpha.numerator, alpha.denominator
        e0 = min(self.coeffs)
        c0 = self.coeffs[e0]
        if d == 1:
            scale, pref2, prefh = c0 ** p, p * self.pref2, p * self.prefh
        else:
            a, hp = _as_radical(c0)
            scale, pref2, prefh = 1, (self.pref2 + a) * alpha, (self.prefh + hp) * alpha
        rel_bound = math.floor(self.order * self.denom) - e0
        # h lives on multiples of step, and so does the power: recur there
        step = gcd(*(k - e0 for k in self.coeffs)) or 1
        h = sorted(((k - e0) // step, v / c0) for k, v in self.coeffs.items() if k != e0)
        u = [Fraction(1)]
        for m in range(1, rel_bound // step + 1):
            acc = Fraction(0)
            for k, hk in h:
                if k > m:
                    break
                acc += ((p + d) * k - d * m) * hk * u[m - k]
            u.append(acc / (d * m))
        coeffs = {p * e0 + m * step * d: scale * v for m, v in enumerate(u) if v}
        order = Fraction(p * e0 + rel_bound * d, self.denom * d)
        return QExpansion(self.denom * d, coeffs, order, pref2, prefh)

    def inverse(self) -> "QExpansion":
        """Multiplicative inverse as a truncated Laurent series."""
        return self.power(-1)

    def __pow__(self, n) -> "QExpansion":
        return self.power(n)

    def nth_root(self, n: int, branch: int = 0) -> "QExpansion":
        """Series g with g^n = self up to the inherited order.

        The leading coefficient must be +-2^k, so that its root is a
        radical prefactor; the root is the principal one, rotated by
        exp(2 pi i branch / n).  The exponent lattice is refined to
        denom * n.
        """
        if n < 1:
            raise ValueError("root index must be >= 1")
        return self.power(Fraction(1, n)).rotate_halfturns(Fraction(2 * branch, n))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, z: complex) -> tuple[complex, float]:
        """(value, error bound) of the series at a point of the upper
        half plane: the tail and the rounding of the float sum.

        The tail is geometric: the largest retained coefficient magnitude
        near the truncation edge with an empirical growth ratio, against
        |w| = |q^(1/D)| = exp(-2 pi Im z / D).  The rounding is
        2^-53 sum (n + 8 + 8 (1 + |x|) |k|) |c_k w^k| over the n terms, for
        their sum and w = e^x, whose error w^k carries k times.  Where the
        terms cancel it dominates (1.4e-9 relative for f[A,0] at N = 5,
        z = 0.1+0.7i); FormsAt gives the values at a point.
        """
        y = z.imag
        if y <= 0:
            raise ConvergenceRegion("evaluation requires Im z > 0")
        x = 2j * math.pi * z / self.denom
        w = cmath.exp(x)
        r = abs(w)
        p = self.prefactor
        n_err, k_err = len(self.coeffs) + 8, 8 * (1 + abs(x))
        val, rounding = 0j, 0.0
        mags: list[tuple[int, float]] = []
        for k in sorted(self.coeffs):
            c = float(self.coeffs[k])
            term = c * w ** k
            val += term
            rounding += (n_err + k_err * abs(k)) * abs(term)
            mags.append((k, abs(c)))
        val *= p
        if not mags:
            return 0j, 0.0
        k_edge = math.floor(self.order * self.denom)
        window = max(4, self.denom)
        m_all = max(a for _, a in mags)
        hi = [a for k, a in mags if k > k_edge - window]
        lo = [a for k, a in mags if k_edge - 2 * window < k <= k_edge - window]
        m_hi = max(hi, default=0.0)
        m_lo = max(lo, default=0.0)
        # per-unit growth from the two edge windows; dust windows do not count
        growth = 1.0
        floor_mag = 1e-12 * m_all
        if m_hi > floor_mag and m_lo > floor_mag and m_hi > m_lo:
            growth = (m_hi / m_lo) ** (1.0 / window)
        gr = growth * r
        if gr >= 0.98:
            raise ConvergenceRegion(
                f"geometric tail ratio {gr:.3f} too close to 1 at Im z = {y}")
        anchor = m_hi if m_hi > floor_mag else m_all
        tail = abs(p) * anchor * (r ** (k_edge + 1)) * growth / (1.0 - gr)
        return val, tail + abs(p) * _UNIT * rounding

    # -- output ----------------------------------------------------------------

    def dump(self) -> str:
        """Text dump: one line per term, 'numerator/D<TAB>re<TAB>im'."""
        return RadicalSum((self,)).dump()

    def max_abs_coeff_diff(self, other: "QExpansion") -> float:
        """Largest coefficient difference up to the shared order, taken
        exactly and rounded once; the prefactors must agree."""
        d = self - other
        return abs(d.prefactor) * float(max(map(abs, d.coeffs.values()), default=0))


def constant(value, denom: int = 1, order=Fraction(30)) -> QExpansion:
    return QExpansion(denom, {0: value}, Fraction(order))


@dataclass(frozen=True)
class RadicalSum:
    """A form as the sum of exact series with distinct radical
    prefactors on one exponent lattice; rounded only in evaluate and
    dump."""

    terms: tuple[QExpansion, ...]

    @property
    def denom(self) -> int:
        return self.terms[0].denom

    def evaluate(self, z: complex) -> tuple[complex, float]:
        """(sum of the term values, sum of the term error bounds plus the
        rounding of that sum)."""
        val, bound, size = 0j, 0.0, 0.0
        for t in self.terms:
            v, e = t.evaluate(z)
            val += v
            bound += e
            size += abs(v)
        return val, bound + len(self.terms) * _UNIT * size

    def _combined(self) -> dict:
        out: dict = {}
        for t in self.terms:
            p = t.prefactor
            for k, c in t.coeffs.items():
                v = p * complex(c)
                out[k] = out[k] + v if k in out else v
        return out

    def leading(self) -> tuple[Fraction, complex]:
        """(exponent, coefficient) of the lowest-order term."""
        out = self._combined()
        if not out:
            raise ZeroSeries("series has no retained terms")
        k = min(out)
        return Fraction(k, self.denom), out[k]

    def dump(self) -> str:
        """Text dump: one line per exponent, 'numerator/D<TAB>re<TAB>im'."""
        return "\n".join(f"{k}/{self.denom}\t{c.real!r}\t{c.imag!r}"
                         for k, c in sorted(self._combined().items()))


def _as_radical(c: Fraction) -> tuple[Fraction, Fraction]:
    """(a, h) with c = 2^a * e^(i pi h); c must be +-2^k, so that its
    rational powers stay radical-exact."""
    num, den = abs(c.numerator), c.denominator
    if num & (num - 1) or den & (den - 1):
        raise ValueError(f"leading coefficient {c} is not +-2^k")
    return Fraction(num.bit_length() - den.bit_length()), Fraction(int(c < 0))


# ---------------------------------------------------------------------------
# concrete forms
# ---------------------------------------------------------------------------

# The level-2 forms as (theta numerator, theta denominator or 0, sign),
# the thetas named by their index: theta3^4, theta4^4, theta2^4.  Their
# series and their values at a point are both read from this table.
_LEVEL2_FORMS = {"theta2": (3, 0, 1), "g1": (3, 0, 1), "g0": (4, 0, -1), "ginf": (2, 0, 1),
                 "lambda": (4, 2, -1), "one_minus_lambda": (3, 2, 1)}


@dataclass(frozen=True)
class FormLabel:
    """Identifier for the built-in expansions.

    name is a level-2 form of _LEVEL2_FORMS (theta2, lambda,
    one_minus_lambda, g0, g1, ginf) or x, y, f; x, y, f carry a level n,
    f additionally a kind A/B/C and an index j.
    """

    name: str
    n: int = 1
    kind: str = ""
    j: int = 0

    def __post_init__(self):
        if self.name not in (*_LEVEL2_FORMS, "x", "y", "f"):
            raise ValueError(f"unknown form label {self.name!r}")
        if self.name in ("x", "y", "f") and self.n < 1:
            raise ValueError("level must be >= 1")
        if self.name == "f":
            if self.kind not in (KIND_A, KIND_B, KIND_C):
                raise ValueError("f labels need kind A, B or C")
            if not 0 <= self.j < self.n:
                raise ValueError("f index out of range")

    @property
    def weight(self) -> int:
        return 2 if self.name in ("theta2", "g0", "g1", "ginf", "f") else 0

    def __str__(self):
        if self.name == "f":
            return f"f[{self.kind}{self.j},n={self.n}]"
        if self.name in ("x", "y"):
            return f"{self.name}[n={self.n}]"
        return self.name


# Entries kept by the memoized exact series.  A qexp of one f form fills
# at most six level-2 entries and one of each other cache; g0, g1 and
# ginf at one order fill three level-2 entries.
_LEVEL2_CACHE = 32
_SERIES_CACHE = 16


def _theta_fourth_power(index: int, order) -> QExpansion:
    """theta_index^4 for index 3, 4 or 2, as
    t^shift (sum_(k in Z) sign^k t^(k^2 + shift k))^4 in t = q^(1/2).

    By the triple product these are Jacobi's theta series: shift 0 gives
    theta3^4 (sign 1) and theta4^4 (sign -1), shift 1 with sign 1 gives
    theta2^4 = 16 t (sum_(k>=0) t^(k(k+1)))^4."""
    sign, shift = -1 if index == 4 else 1, int(index == 2)
    order = Fraction(order)
    bound = math.floor(2 * order) - shift
    r = math.isqrt(bound) + 1
    coeffs: dict = {}
    for k in range(-r, r + 1):
        e = k * (k + shift)
        if e <= bound:
            coeffs[e] = coeffs.get(e, 0) + sign ** (k % 2)
    fourth = QExpansion(2, coeffs, Fraction(bound, 2)) ** 4
    return QExpansion(2, {e + shift: v for e, v in fourth.coeffs.items()}, order)


@lru_cache(maxsize=_LEVEL2_CACHE)
def _level2_series(form: tuple[int, int, int], order) -> QExpansion:
    """sign theta_num^4/theta_den^4 for an entry of _LEVEL2_FORMS: g1 =
    theta^2 = theta3^4 = prod (1-q^n)^4 (1+q^(n-1/2))^8, g0 = -theta4^4
    and ginf = theta2^4 each vanish at one cusp; lambda = g0/ginf leads
    with -(1/16) q^(-1/2), a simple zero at 0 and a simple pole at inf."""
    num, den, sign = form
    order = Fraction(order)
    if not den:
        return _theta_fourth_power(num, order).scale(sign)
    work = order + 2
    # numerator and denominator are entries of this cache: g0 or g1 over ginf
    quotient = _level2_series((num, 0, sign), work) * _level2_series((den, 0, 1), work).inverse()
    return quotient.truncate(order)


@lru_cache(maxsize=_SERIES_CACHE)
def x_series(n: int, order) -> QExpansion:
    """x = lambda^(1/n), principal branch; leading coefficient
    eps/16^(1/n) at q^(-1/2)."""
    lam = _level2_series(_LEVEL2_FORMS["lambda"], Fraction(order) + 1)
    return lam.nth_root(n, 0).truncate(Fraction(order))


@lru_cache(maxsize=_SERIES_CACHE)
def y_series(n: int, order) -> QExpansion:
    """y = (1-lambda)^(1/n), principal branch."""
    oml = _level2_series(_LEVEL2_FORMS["one_minus_lambda"], Fraction(order) + 1)
    return oml.nth_root(n, 0).truncate(Fraction(order))


def zeta_power(n: int, j: int) -> complex:
    """e^(2 pi i j / n)."""
    return cmath.exp(2j * math.pi * (j % n) / n)


@lru_cache(maxsize=_SERIES_CACHE)
def _class_terms(kind: str, n: int, order) -> tuple[QExpansion, ...]:
    """T_0 .. T_(n-1) with f[kind, j] = sum_r zeta^(+-jr) T_r.

    The binomial expansion of the n-th power, zeta = e(1/n), eps = e(1/2n):
      A: theta^2 sum_i C(n,i) (-1)^i zeta^(ji) y^-i
      B: ginf sum_i C(n,i) (-1)^(n-i) zeta^(-ji) x^i      (ginf = theta^2 y^-n)
      C: theta^2 sum_i C(n,i) (-1)^(n-i) eps^(n-i) zeta^(-ji) (x/y)^i
    T_r collects the terms with i = r mod n (i = 0 and i = n share
    zeta^0 and a rational prefactor); none depends on j.
    """
    work = order + 2
    if kind == "A":
        base = y_series(n, work).inverse()
    elif kind == "B":
        base = x_series(n, work)
    elif kind == "C":
        base = x_series(n, work) * y_series(n, work).inverse()
    else:
        raise ValueError(f"unknown kind {kind!r}")
    outer = _level2_series(_LEVEL2_FORMS["ginf" if kind == "B" else "theta2"], work)
    powers = [constant(1, 2 * n, work), base]
    while len(powers) <= n:
        powers.append(powers[-1] * base)
    inner = []
    for i, p in enumerate(powers):
        p = p.scale(comb(n, i) * (-1) ** (i if kind == "A" else n - i))
        inner.append(p.rotate_halfturns(Fraction(n - i, n)) if kind == "C" else p)
    inner[0] = inner[0] + inner.pop()
    return tuple((outer * t).truncate(order) for t in inner)


def f_series(kind: str, j: int, n: int, order) -> RadicalSum:
    """Weight-2 form vanishing only at the cusp of the given
    ramification kind/index, to order N^2 in the local parameter.

    The form is sum_r zeta^(+-jr) T_r over the exact class terms of
    ``_class_terms``; the root of unity is applied exactly as a
    prefactor rotation and terms whose prefactors coincide are added
    exactly, so f[C,0] (every N) and f[A,0] (N = 1, 2, 4) are single
    exact series."""
    sign = 1 if kind == "A" else -1
    by_prefactor: dict = {}
    for r, t in enumerate(_class_terms(kind, n, Fraction(order))):
        t = t.rotate_halfturns(Fraction(2 * sign * j * r, n))
        key = (t.pref2, t.prefh)
        by_prefactor[key] = by_prefactor[key] + t if key in by_prefactor else t
    return RadicalSum(tuple(by_prefactor.values()))


def expansion(label: FormLabel, order) -> QExpansion | RadicalSum:
    """Truncated expansion at the cusp at infinity for a form label."""
    order = Fraction(order)
    lead = _leading_exponent(label)
    if order < lead:
        raise OrderTooSmall(
            f"order {order} cannot resolve the leading exponent {lead} of {label}")
    if label.name in _LEVEL2_FORMS:
        return _level2_series(_LEVEL2_FORMS[label.name], order)
    if label.name == "x":
        return x_series(label.n, order)
    if label.name == "y":
        return y_series(label.n, order)
    return f_series(label.kind, label.j, label.n, order)


def _leading_exponent(label: FormLabel) -> Fraction:
    if label.name in ("lambda", "one_minus_lambda", "x", "y"):
        return Fraction(-1, 2)
    if label.name == "ginf":
        return Fraction(1, 2)
    if label.name == "f" and label.kind == "C" and label.j == 0:
        return Fraction(label.n, 2)
    return Fraction(0)


# ---------------------------------------------------------------------------
# forms at a point
# ---------------------------------------------------------------------------

# Lowest Im z at which FormsAt evaluates: |t| = e^(-pi Im z) is 0.46 there
# and the products take 47 factors to fall below 2^-53.
POINT_IM_MIN = 0.25


def _expm1(w: complex) -> complex:
    """e^w - 1, accurate relative to |w| rather than to e^w."""
    a, b = w.real, w.imag
    em = math.expm1(a)
    return complex(em * math.cos(b) - 2.0 * math.sin(0.5 * b) ** 2, (em + 1.0) * math.sin(b))


def _log1p(w: complex) -> complex:
    """Principal Log(1 + w) for |w| < 1, accurate relative to |w| rather
    than to 1 + w."""
    a, b = w.real, w.imag
    return complex(0.5 * math.log1p(a * (2.0 + a) + b * b), math.atan2(b, 1.0 + a))


class FormsAt:
    """The built-in forms at one point z of the upper half plane, from
    Jacobi's triple products (Whittaker & Watson, 21.3) in t = e(z/2):

      theta3^4 = prod_(m>=1) (1 - t^2m)^4 (1 + t^(2m-1))^8,
      theta4^4 the same with -t^(2m-1), and
      theta2^4 = 16 t prod_(m>=1) (1 - t^2m)^4 (1 + t^2m)^8.

    Each product is exp of a sum of principal Logs S(+-, parity) of
    1 +- t^k over odd or even k, and the level-2 forms are the theta
    quotients of _LEVEL2_FORMS.
    The roots carry the branch of the exact series, the analytic one
    with value 1 at t = 0 of their unit parts:

      y = 16^(-1/N) e(-z/2N) exp((8/N) (S(+, odd) - S(+, even))),
      x = 16^(-1/N) e(1/2N - z/2N) exp((8/N) (S(-, odd) - S(+, even))).

    The principal N-th root of lambda or of a theta quotient leaves that
    branch at moderate Im z.  f[kind, j] is the binomial closed form of
    its class terms, zeta = e(1/N), eps = e(1/2N):

      A: theta3^4 (1 - zeta^j / y)^N,  B: theta2^4 (zeta^-j x - 1)^N,
      C: theta3^4 (zeta^-j x/y - eps)^N,

    the last with x/y = eps e^d as eps (zeta^-j expm1(d) + zeta^-j - 1),
    which keeps the zero of f[C, 0] at infinity to full relative precision.

    The sums take K = ceil(53 log 2 / (pi Im z)) terms each, so that
    |t|^K <= 2^-53.  value(label) returns (value, estimate): the
    estimate covers the tail past K and the rounding, propagated to first
    order through each exp, quotient and power.  Below Im z = POINT_IM_MIN
    the constructor raises ConvergenceRegion.  The theta products are
    taken once per point, and x and y once per point and level.
    """

    def __init__(self, z: complex):
        z = complex(z)
        if not z.imag >= POINT_IM_MIN:
            raise ConvergenceRegion(
                f"forms are evaluated at Im z >= {POINT_IM_MIN}, not at {z.imag}")
        self.z = z
        count = math.ceil(53.0 * math.log(2.0) / (math.pi * z.imag))
        r = math.exp(-math.pi * z.imag)
        t = cmath.exp(1j * math.pi * z)
        sums = [0j] * 4     # S(+, odd), S(-, odd), S(+, even), S(-, even)
        tk = t
        for k in range(1, count + 1):
            par = 2 * (1 - k % 2)
            sums[par] += _log1p(tk)
            sums[par + 1] += _log1p(-tk)
            tk *= t
        self._plus_odd, self._minus_odd, self._plus_even, minus_even = sums
        # error of each sum: its tail past count, rounding in t^k and in
        # the terms, and the additions
        self._sum_err = (r ** (count + 1) + (count + 8 + abs(math.pi * z)) * _UNIT) / (1 - r) ** 2
        # log theta^4 by theta index, each carrying 12 times _sum_err
        self._logs = {3: 4 * minus_even + 8 * self._plus_odd,
                      4: 4 * minus_even + 8 * self._minus_odd,
                      2: 4 * math.log(2.0) + 1j * math.pi * z + 4 * minus_even + 8 * self._plus_even}
        self._roots = {}

    def _exp(self, log: complex, weight: float) -> tuple[complex, float]:
        """exp(log) with its relative error bound, log carrying weight
        times the error of one sum."""
        return cmath.exp(log), weight * self._sum_err + (2 + abs(log)) * _UNIT

    def _root_values(self, n: int):
        """(x, rel. error, y, rel. error) at level n."""
        if n not in self._roots:
            head = -4.0 * math.log(2.0) / n - 1j * math.pi * self.z / n
            x = self._exp(head + 1j * math.pi / n + 8 * (self._minus_odd - self._plus_even) / n, 16 / n)
            y = self._exp(head + 8 * (self._plus_odd - self._plus_even) / n, 16 / n)
            self._roots[n] = (*x, *y)
        return self._roots[n]

    def value(self, label: FormLabel) -> tuple[complex, float]:
        """(value, error estimate) of the form of label at the point."""
        if label.name in _LEVEL2_FORMS:
            num, den, sign = _LEVEL2_FORMS[label.name]
            if den:
                v, rel = self._exp(self._logs[num] - self._logs[den], 24)
            else:
                v, rel = self._exp(self._logs[num], 12)
            return sign * v, abs(v) * rel
        x, rx, y, ry = self._root_values(label.n)
        if label.name == "x":
            return x, abs(x) * rx
        if label.name == "y":
            return y, abs(y) * ry
        n, kind = label.n, label.kind
        zj = zeta_power(n, -label.j)
        if kind == "C":
            d = 8 * (self._minus_odd - self._plus_odd) / n
            em1 = _expm1(d)
            base = cmath.exp(1j * math.pi / n) * (zj * em1 + (zj - 1))
            err = abs(1 + em1) * (16 / n * self._sum_err + (3 + abs(d)) * _UNIT) + 3 * _UNIT
        else:
            w, rw = (1 / (zj * y), ry) if kind == "A" else (zj * x, rx)
            base = 1 - w if kind == "A" else w - 1
            err = abs(w) * (rw + 2 * _UNIT) + _UNIT
        outer, r_outer = self._exp(self._logs[2 if kind == "B" else 3], 12)
        v = outer * base ** n
        rel = r_outer + n * (err / abs(base) + _UNIT) + _UNIT
        return v, abs(v) * rel


def petersson_norm_sq(value: complex, z: complex, weight: int) -> float:
    """|f(z)|^2 Im(z)^k."""
    if z.imag <= 0:
        raise ValueError("Petersson norm needs Im z > 0")
    return abs(value) ** 2 * z.imag ** weight


# ---------------------------------------------------------------------------
# slash action
# ---------------------------------------------------------------------------

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


def slash2_value(label: FormLabel, gamma: Mat2Z, z: complex) -> complex:
    """Value of (f |_k gamma)(z) for gamma in the level-2 group, via the
    transformation table (exact in the multiplier, evaluated at z)."""
    r = gamma2_exponent_sums(*gamma.entries())
    if r is None:
        raise NotInGamma2(f"{gamma} is not in the level-2 group")
    new_label, mult = _slash_shift(label, *r)
    val, _ = FormsAt(z).value(new_label)
    return mult * val


def coset_product_value(kind: str, j: int, n: int, z: complex) -> complex:
    """Product of f[kind,j] |_2 gamma over the n^2 coset representatives
    g1^a g2^b, assembled from the transformation table."""
    at = FormsAt(z)
    values = [at.value(FormLabel("f", n, kind, l))[0] for l in range(n)]
    out = 1.0 + 0j
    for a in range(n):
        for b in range(n):
            out *= values[(j + class_shift(kind, a, b)) % n]
    return out
