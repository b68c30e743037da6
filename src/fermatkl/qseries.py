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
1 - lambda = theta3^4/theta2^4.  The level-N functions x = lambda^(1/N)
and y = (1-lambda)^(1/N) are principal N-th roots of two of them, so
x^N + y^N = 1 is Jacobi's identity theta3^4 = theta2^4 + theta4^4.  The
weight-2 form f[kind, j] attached to a cusp of a Fermat group takes the
kind's row of _KINDS: an outer theta^4 times (zeta^(+-j) w - 1)^N, w
the principal N-th root of one more theta quotient.  Each is a
RadicalSum, the binomial expansion in the base the form takes at q = 0:
exact series theta^4 (w - w0)^i, w0 the q^0 term of w, each times a
complex weight, rounded once per coefficient when dumped.

The series serve the q-expansion dumps (qexp) and the identities checked
coefficientwise; in floats the class terms of a form can cancel, so
their sum is not the path to a value.  FormsAt gives the values at a
point, with an error estimate, from Jacobi's triple products, reading
the same entries and rows: the log of an n-th root is the log of its
entry's quotient over n.  The Kronecker-limit checks take the logs of
these values, and limitsum sums them into the log of the coset product.
A series that expansion returns carries its label, and its evaluate is
FormsAt's value of that label.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .fermat import KIND_A, KIND_B, KIND_C

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
    parts are folded into the coefficients.  ``label`` names the form of
    a series that expansion returns, and no arithmetic passes it on.
    """

    denom: int
    coeffs: dict
    order: Fraction
    pref2: Fraction = Fraction(0)
    prefh: Fraction = Fraction(0)
    label: FormLabel | None = field(default=None, compare=False)

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

    def __sub__(self, other):
        if not isinstance(other, QExpansion):
            other = constant(other, self.denom, self.order)
        return self + (-other)

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

    def nth_root(self, n: int) -> "QExpansion":
        """Series g with g^n = self up to the inherited order.

        The leading coefficient must be +-2^k, so that its root is a
        radical prefactor; the root is the principal one.  The exponent
        lattice is refined to denom * n.
        """
        if n < 1:
            raise ValueError("root index must be >= 1")
        return self.power(Fraction(1, n))

    # -- value and output -----------------------------------------------------

    def evaluate(self, z: complex) -> tuple[complex, float]:
        """(value, error estimate) at z of the labelled form, from FormsAt."""
        if self.label is None:
            raise TypeError("only a series that expansion returns has a value: its label's")
        return FormsAt(z).value(self.label)

    def dump(self) -> str:
        """Text dump: one line per term, 'numerator/D<TAB>re<TAB>im'."""
        return RadicalSum(((1, self),)).dump()


def constant(value, denom: int = 1, order=Fraction(30)) -> QExpansion:
    return QExpansion(denom, {0: value}, Fraction(order))


@dataclass(frozen=True)
class RadicalSum:
    """A form as a sum of exact series on one exponent lattice, each
    times a complex weight: (weight, series) pairs, rounded once per
    coefficient in dump.  ``label`` is as for QExpansion."""

    terms: tuple[tuple[complex, QExpansion], ...]
    label: FormLabel | None = field(default=None, compare=False)

    @property
    def denom(self) -> int:
        return self.terms[0][1].denom

    evaluate = QExpansion.evaluate

    def dump(self) -> str:
        """Text dump: one line per exponent, 'numerator/D<TAB>re<TAB>im',
        the sum of weight * prefactor * coefficient taken exactly, the
        float weight and prefactor as exact fractions, and rounded once."""
        re_, im = {}, {}
        for c, t in self.terms:
            c, p = complex(c), t.prefactor
            cr, ci, pr, pi = map(Fraction, (c.real, c.imag, p.real, p.imag))
            ur, ui = cr * pr - ci * pi, cr * pi + ci * pr
            for k, a in t.coeffs.items():
                re_[k] = re_.get(k, 0) + ur * a
                im[k] = im.get(k, 0) + ui * a
        return "\n".join(f"{k}/{self.denom}\t{float(re_[k])!r}\t{float(im[k])!r}"
                         for k in sorted(re_))


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

# The level-N functions x and y, each the principal N-th root of an entry.
_ROOTS = {"x": _LEVEL2_FORMS["lambda"], "y": _LEVEL2_FORMS["one_minus_lambda"]}

# One row per kind of Fermat form, (outer, quotient, twist, sign): with
# w the principal N-th root of the level-2 quotient (num, den, sign),
#   f[kind, j] = sign(N) theta_outer^4 (zeta^(twist j) w - 1)^N.
# zeta = e(1/N) and eps = e(1/2N), so w is 1/y, x and x/(eps y), and the
# rows are A: theta3^4 (1 - zeta^j/y)^N, B: theta2^4 (zeta^-j x - 1)^N and
# C: theta3^4 (zeta^-j x/y - eps)^N, the last with eps^N = -1.  The
# series and the values at a point both take the base around its value
# at q = 0, which is 0 for f[C, 0], the form that vanishes at infinity.
_KINDS = {KIND_A: (3, (2, 3, 1), 1, lambda n: (-1) ** n),
          KIND_B: (2, (4, 2, -1), -1, lambda n: 1),
          KIND_C: (3, (4, 3, 1), -1, lambda n: -1)}


@dataclass(frozen=True)
class FormLabel:
    """Identifier for the built-in expansions.

    name is a level-2 form of _LEVEL2_FORMS (theta2, lambda,
    one_minus_lambda, g0, g1, ginf), which takes nothing more, or x, y,
    f; x, y, f carry a level n, f alone a kind A/B/C and an index j.
    """

    name: str
    n: int = 1
    kind: str = ""
    j: int = 0

    def __post_init__(self):
        if self.name not in (*_LEVEL2_FORMS, *_ROOTS, "f"):
            raise ValueError(f"unknown form label {self.name!r}")
        if self.n != 1 and (self.n < 1 or self.name in _LEVEL2_FORMS):
            raise ValueError(f"{self.name} cannot take level {self.n}")
        if self.name != "f":
            if self.kind or self.j:
                raise ValueError(f"{self.name} takes no kind or index")
        elif self.kind not in (KIND_A, KIND_B, KIND_C):
            raise ValueError("f labels need kind A, B or C")
        elif not 0 <= self.j < self.n:
            raise ValueError("f index out of range")

    def __str__(self):
        if self.name == "f":
            return f"f[{self.kind}{self.j},n={self.n}]"
        if self.name in _ROOTS:
            return f"{self.name}[n={self.n}]"
        return self.name


# Entries kept by the memoized exact series.  A qexp of one f form fills
# four level-2 entries, one root and one class-term entry; x or y fills
# three level-2 entries and one root; g0, g1 and ginf at one order fill
# three level-2 entries.
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
def _root_series(form: tuple[int, int, int], n: int, order) -> QExpansion:
    """Principal n-th root of the level-2 quotient of an entry (num, den,
    sign): x and y, and the w of each row of _KINDS."""
    return _level2_series(form, Fraction(order) + 1).nth_root(n).truncate(Fraction(order))


def zeta_power(n: int, j: int) -> complex:
    """e^(2 pi i j / n): exactly 1, i, -1 or -i where 4 j = 0 (mod n), so
    that the series weights there carry no rounding in the part that is
    exactly 0; else with its angle reduced into (-pi, pi], as near 2 pi
    the sine in zeta^-1 - 1 would be taken near pi and lose relative
    precision."""
    r = j % n
    if 4 * r % n == 0:
        return (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))[4 * r // n]
    return cmath.exp(2j * math.pi * (r - n if 2 * r > n else r) / n)


@lru_cache(maxsize=_SERIES_CACHE)
def _class_terms(kind: str, n: int, order) -> tuple[complex, tuple[QExpansion, ...]]:
    """(w0, (T_0 .. T_n)) for the kind's row of _KINDS: w0 is the q^0 term
    of its root w, 1 for kind C and 0 for A and B at n > 1, and
    T_i = theta_outer^4 (w - w0)^i exactly, none depending on j."""
    outer, quotient, _, _ = _KINDS[kind]
    work = order + 2
    w = _root_series(quotient, n, work)
    w0 = w.prefactor * w.coeffs.get(0, 0)
    rest = QExpansion(w.denom, {k: c for k, c in w.coeffs.items() if k}, w.order,
                      w.pref2, w.prefh)
    terms = [_level2_series((outer, 0, 1), work).with_denom(w.denom)]
    while len(terms) <= n:
        terms.append(terms[-1] * rest)
    return w0, tuple(t.truncate(order) for t in terms)


def f_series(kind: str, j: int, n: int, order) -> RadicalSum:
    """Weight-2 form vanishing only at the cusp of the given
    ramification kind/index, to order N^2 in the local parameter.

    With u = zeta^(twist j), the kind's row of _KINDS is
    s theta_outer^4 ((u w0 - 1) + u (w - w0))^N, whose binomial expansion
    weighs the exact term T_i of ``_class_terms`` by
    s C(N, i) (u w0 - 1)^(N-i) u^i.  The base u w0 - 1 is the value of
    u w - 1 at q = 0, so the leading coefficient of every f[C, j], j != 0,
    is the one float product -(u - 1)^N however small.  Terms of weight 0
    are left out: f[C, 0] is the single term -theta3^4 (w - 1)^N."""
    _, _, twist, sign = _KINDS[kind]
    w0, terms = _class_terms(kind, n, Fraction(order))
    base = zeta_power(n, twist * j) * w0 - 1
    weighted = ((sign(n) * comb(n, i) * base ** (n - i) * zeta_power(n, twist * j * i), t)
                for i, t in enumerate(terms))
    return RadicalSum(tuple((c, t) for c, t in weighted if c))


def expansion(label: FormLabel, order) -> QExpansion | RadicalSum:
    """Truncated expansion at the cusp at infinity for a form label,
    carrying the label, so that its evaluate reads FormsAt."""
    order = Fraction(order)
    lead = leading_exponent(label)
    if order < lead:
        raise OrderTooSmall(
            f"order {order} cannot resolve the leading exponent {lead} of {label}")
    if label.name in _LEVEL2_FORMS:
        series = _level2_series(_LEVEL2_FORMS[label.name], order)
    elif label.name in _ROOTS:
        series = _root_series(_ROOTS[label.name], label.n, order)
    else:
        series = f_series(label.kind, label.j, label.n, order)
    return replace(series, label=label)


def leading_exponent(label: FormLabel) -> Fraction:
    """Exponent of the lowest-order term of the label's series at infinity."""
    if label.name in _ROOTS:
        return Fraction(-1, 2 * label.n)
    if label.name in ("lambda", "one_minus_lambda"):
        return Fraction(-1, 2)
    if label.name == "ginf":
        return Fraction(1, 2)
    if label.name == "f" and label.kind == "C" and label.j == 0:
        return Fraction(label.n, 2)
    return Fraction(0)


def leading(f: QExpansion | RadicalSum) -> tuple[Fraction, complex]:
    """(exponent, coefficient) of the lowest-order term of a QExpansion or
    RadicalSum, the coefficient summed over the weighted terms."""
    terms = f.terms if isinstance(f, RadicalSum) else ((1, f),)
    k = min((k for _, t in terms for k in t.coeffs), default=None)
    if k is None:
        raise ZeroSeries("series has no retained terms")
    return Fraction(k, f.denom), sum(c * t.prefactor * complex(t.coeffs[k])
                                     for c, t in terms if k in t.coeffs)


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
    1 +- t^k over odd or even k.  L[i] is log theta_i^4 less the
    4 S(-, even) that all three share, and L[0] = 0.  Every form is read
    from a quotient entry (num, den, sign), as its series is: the
    principal n-th root of sign theta_num^4/theta_den^4, on the branch
    of the series, whose unit part is 1 at t = 0, has the log

      (L[num] - L[den] + i pi [sign < 0]) / n,

    plus 4 S(-, even)/n when den = 0.  That gives the level-2 forms
    (n = 1), x and y (_ROOTS), the outer theta and the w of each row of
    _KINDS.  Every kind takes its base as zeta^(twist j) expm1(log w) +
    (zeta^(twist j) - 1), which keeps the zero of f[C, 0] at infinity to
    full relative precision.

    The sums take K = ceil(53 log 2 / (pi Im z)) terms each, so that
    |t|^K <= 2^-53.  value(label) returns (value, estimate): the
    estimate covers the tail past K and the rounding, propagated to first
    order through each exp, expm1 and power.  Below Im z = POINT_IM_MIN
    the constructor raises ConvergenceRegion.  The theta products are
    taken once per point.
    """

    def __init__(self, z: complex):
        z = complex(z)
        if not z.imag >= POINT_IM_MIN:
            raise ConvergenceRegion(
                f"forms are evaluated at Im z >= {POINT_IM_MIN}, not at {z.imag}")
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
        plus_odd, minus_odd, plus_even, minus_even = sums
        # error of each sum: its tail past count, rounding in t^k and in
        # the terms, and the additions
        self._sum_err = (r ** (count + 1) + (count + 8 + abs(math.pi * z)) * _UNIT) / (1 - r) ** 2
        # L by theta index, each carrying 8 times _sum_err
        self._logs = {0: 0, 3: 8 * plus_odd, 4: 8 * minus_odd,
                      2: 4 * math.log(2.0) + 1j * math.pi * z + 8 * plus_even}
        self._shared = 4 * minus_even

    def _root_log(self, form: tuple[int, int, int], n: int) -> tuple[complex, float]:
        """(log, error bound) of the principal n-th root of the quotient
        of an entry (num, den, sign), on the branch of its series; the
        bound counts 8 sums for each L and 4 for the shared one."""
        num, den, sign = form
        log = self._logs[num] - self._logs[den]
        if sign < 0:
            log += 1j * math.pi
        if not den:
            log += self._shared
        return log / n, (16 if den else 12) / n * self._sum_err

    def value(self, label: FormLabel) -> tuple[complex, float]:
        """(value, error estimate) of the form of label at the point."""
        if label.name != "f":
            form, n = ((_ROOTS[label.name], label.n) if label.name in _ROOTS
                       else (_LEVEL2_FORMS[label.name], 1))
            log, err = self._root_log(form, n)
            v = cmath.exp(log)
            return v, abs(v) * (err + (2 + abs(log)) * _UNIT)
        outer, quotient, twist, sign = _KINDS[label.kind]
        n, zj = label.n, zeta_power(label.n, twist * label.j)
        log, err = self._root_log(quotient, n)
        em1 = _expm1(log)
        base = zj * em1 + (zj - 1)
        err = abs(1 + em1) * (err + (3 + abs(log)) * _UNIT) + 3 * _UNIT
        outer_log, outer_err = self._root_log((outer, 0, 1), 1)
        v = cmath.exp(outer_log) * (sign(n) * base ** n)
        rel = outer_err + (2 + abs(outer_log)) * _UNIT + n * (err / abs(base) + _UNIT) + _UNIT
        return v, abs(v) * rel

