"""Exact arithmetic in PSL(2, Z).

Moebius actions on the upper half plane and on P^1(Q), cusp scaling
matrices, and the free-group word calculus for the level-2 principal
congruence subgroup generated by

    g1 = [1 2; 0 1]     g2 = [1 0; 2 1].

Matrices are identified with their negatives throughout (elements of
PSL rather than SL), so every Mat2Z is kept in a canonical sign form.
All integer arithmetic is arbitrary precision, except in the int64
batch coset_word_sums_batch, which raises OverflowError beyond
BATCH_ENTRY_BOUND.

Exponent sums.  The exponent sums (r1, r2) of the level-2 group are
additive along a word, and one Euclid on a column spells a word.  For a
matrix N with first column (x, y), the Euclid takes q = x/y truncated
toward zero and sets (x, y) = (-y, x - q y), which is (x, y) multiplied
by S T^-q, until y = 0; so N = T^q1 S^-1 T^q2 S^-1 ... T^qn S^-1 T^k.
The walk reads that word left to right through the six cosets
R_s Gamma(2) of COSET_REPS, starting at R_0 = I: with q = 2j + e,
R_s T^q S^-1 = (R_s g1 R_s^-1)^j (R_s T^e S^-1 R_s'^-1) R_s', s' the
coset of R_s T^e S^-1, so a round adds
j r(R_s g1 R_s^-1) + r(R_s T^e S^-1 R_s'^-1) to the sums and moves to
s'.  It ends with the sums phi of gamma and the state s in
N = gamma R_s T^k.  Its round tables come at import from the words
that decompose_gamma2, a nearest-integer Euclid on the first column,
spells for those 18 small products.  Truncated quotients keep |x| and
|y| those of the ordinary Euclid, O(log) rounds.  Floor quotients would
leave the remainder with the sign of y and spell the minus continued
fraction, whose length grows linearly: (c - 1)/c = 1 - 1/(2 - 1/(2 - ...))
takes c rounds.

The walk runs in two number types, with the same rounds and tables.
_coset_word runs it in exact ints on one column, applying each step to
the second column as well, which gives k.  gamma2_exponent_sums walks
N = M^-1 = [d -b; -c a]: as R_s T^k then lies in Gamma(2), R_s is I or
T = R_1, and r(M) = -(phi1 + (s + k)/2, phi2).  coset_word_sums_batch
runs it over int64 rows on the first column (d, -c) of M^-1, its
truncated quotients taken in float64, exact below 2^52, and its sums
packed as phi1 2^32 + phi2 in one int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np


class NotInGamma2(ValueError):
    """Raised when a matrix is not an element of the level-2 group."""


@dataclass(frozen=True)
class Mat2Z:
    """Integer 2x2 matrix of determinant 1, canonical up to sign.

    The sign convention: the first nonzero entry in the order (c, a)
    is positive, so M and -M normalize to the same value.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        if c < 0 or (c == 0 and a < 0):
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2Z":
        return Mat2Z(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "Mat2Z":
        if n < 0:
            return self.inverse() ** (-n)
        result = IDENTITY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self):
        return f"[{self.a} {self.b}; {self.c} {self.d}]"


IDENTITY = Mat2Z(1, 0, 0, 1)
GEN1 = Mat2Z(1, 2, 0, 1)
GEN2 = Mat2Z(1, 0, 2, 1)
T = Mat2Z(1, 1, 0, 1)
S = Mat2Z(0, -1, 1, 0)


@dataclass(frozen=True)
class Cusp:
    """Reduced projective pair (p : q) over Z, a point of P^1(Q).

    Canonical form: gcd(p, q) = 1 and q > 0, or (q, p) = (0, 1) for the
    cusp at infinity.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p == 0 and q == 0:
            raise ValueError("(0 : 0) is not a point of P^1(Q)")
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self):
        if self.q == 0:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


CUSP_ZERO = Cusp(0, 1)
CUSP_ONE = Cusp(1, 1)
CUSP_INF = Cusp(1, 0)


def mobius_apply(m: Mat2Z, c: Cusp) -> Cusp:
    """Action of PSL(2, Z) on P^1(Q): (p : q) -> (ap + bq : cp + dq)."""
    return Cusp(m.a * c.p + m.b * c.q, m.c * c.p + m.d * c.q)


def mobius_point(m: Mat2Z, z: complex) -> complex:
    """Fractional linear action on the upper half plane."""
    if z.imag <= 0:
        raise ValueError("point must lie in the upper half plane")
    return (m.a * z + m.b) / (m.c * z + m.d)


def cusp_scaling_matrix(c: Cusp) -> Mat2Z:
    """Deterministic g in PSL(2, Z) with g(inf) = c.

    The first column is (p, q); the second column is the solution of
    p*d - b*q = 1 with d = p^-1 mod q in [0, q).  The cusp at infinity
    maps to the identity.
    """
    if c.is_infinity:
        return IDENTITY
    p, q = c.p, c.q
    d = pow(p, -1, q)
    return Mat2Z(p, (p * d - 1) // q, q, d)


def is_in_gamma2(m: Mat2Z) -> bool:
    """Level-2 principal congruence test: a, d odd and b, c even."""
    return (m.a & 1) == 1 and (m.d & 1) == 1 and (m.b & 1) == 0 and (m.c & 1) == 0


@dataclass(frozen=True)
class GammaWord:
    """Reduced word in the free generators g1, g2 of the level-2 group.

    ``syllables`` is a tuple of (generator id in {1, 2}, nonzero exponent)
    with adjacent syllables carrying distinct ids.  ``r1`` and ``r2`` are
    the exponent sums over the two generators.
    """

    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 0
        for gen, exp in self.syllables:
            if gen not in (1, 2):
                raise ValueError(f"bad generator id {gen}")
            if exp == 0:
                raise ValueError("zero exponent in reduced word")
            if gen == prev:
                raise ValueError("word is not reduced")
            prev = gen

    @property
    def r1(self) -> int:
        return sum(e for g, e in self.syllables if g == 1)

    @property
    def r2(self) -> int:
        return sum(e for g, e in self.syllables if g == 2)

    def __str__(self):
        if not self.syllables:
            return "e"
        return " ".join(f"g{g}^{e}" if e != 1 else f"g{g}" for g, e in self.syllables)


def word_to_matrix(w: GammaWord) -> Mat2Z:
    m = IDENTITY
    for gen, exp in w.syllables:
        m = m * ((GEN1 if gen == 1 else GEN2) ** exp)
    return m


def exponent_sums(w: GammaWord) -> tuple[int, int]:
    return (w.r1, w.r2)


def decompose_gamma2(m: Mat2Z) -> GammaWord:
    """Unique reduced word w with eval(w) = m up to sign.

    A nearest-integer Euclid on the first column (a, c): while c != 0,
    peel g1^k with k the nearest integer to a/2c when |a| > |c|, else
    g2^k with k the nearest integer to c/2a, which leaves [+-1 b; 0 +-1]
    = g1^(+-b/2).  As a is odd and c even, no quotient is a half-integer
    and the peeled entry ends strictly below the other, so the
    generators alternate, no k is 0 and each step is one syllable of
    the reduced word.  Runs of g1 g2^-1 are syllables too, so the word
    of (q+1)/q takes about q steps, and exponent sums come from
    gamma2_exponent_sums instead.  It spells the classify witness word
    and gives that walk its round tables.
    """
    if not is_in_gamma2(m):
        raise NotInGamma2(f"{m} is not in the level-2 group")
    a, b, c, d = m.entries()
    syll: list[tuple[int, int]] = []
    while c:
        if abs(a) > abs(c):
            # M = g1^k M', M' = [a - 2kc  b - 2kd; c d]
            k = (a + c) // (2 * c)
            a, b = a - 2 * k * c, b - 2 * k * d
            syll.append((1, k))
        else:
            # M = g2^k M', M' = [a b; c - 2ka  d - 2kb]
            k = (c + a) // (2 * a)
            c, d = c - 2 * k * a, d - 2 * k * b
            syll.append((2, k))
    if b:
        syll.append((1, a * b // 2))
    return GammaWord(tuple(syll))


# ---------------------------------------------------------------------------
# exponent sums along the Euclid word of a column
# ---------------------------------------------------------------------------

def _coset_key(m: Mat2Z) -> tuple[int, ...]:
    """m mod 2, which names its coset of the level-2 group."""
    return tuple(x & 1 for x in m.entries())


def _coset_reps() -> tuple[Mat2Z, ...]:
    """One representative of each of the six cosets of the level-2 group,
    the identity first, found breadth first by right multiplication with
    T and S^-1."""
    reps, seen = [IDENTITY], {_coset_key(IDENTITY)}
    for r in reps:
        for g in (T, S.inverse()):
            if _coset_key(r * g) not in seen:
                seen.add(_coset_key(r * g))
                reps.append(r * g)
    return tuple(reps)


COSET_REPS = _coset_reps()
_COSET_INDEX = {_coset_key(r): s for s, r in enumerate(COSET_REPS)}


def coset_index(m: Mat2Z) -> int:
    """The s with m in Gamma(2) COSET_REPS[s]."""
    return _COSET_INDEX[_coset_key(m)]


def _walk_tables():
    """The round tables of the walk: per state s the sums
    r(R_s g1 R_s^-1) of a unit of j, and per 2 s + e, e the parity of the
    quotient q = 2 j + e, the fixed sums r(R_s T^e S^-1 R_next^-1) and
    next, from the words of those 18 products."""
    per_j, fixed, after = [], [], []
    for r in COSET_REPS:
        per_j.append(exponent_sums(decompose_gamma2(r * GEN1 * r.inverse())))
        for e in (0, 1):
            x = r * T ** e * S.inverse()
            after.append(coset_index(x))
            fixed.append(exponent_sums(decompose_gamma2(x * COSET_REPS[after[-1]].inverse())))
    return tuple(per_j), tuple(fixed), tuple(after)


_WALK_PER_J, _WALK_FIXED, _WALK_NEXT = _walk_tables()


def _coset_word(x: int, y: int, u: int = 0, v: int = 0):
    """(phi1, phi2, s, k) with N = gamma COSET_REPS[s] T^k and phi the
    exponent sums of gamma, for N with first column (x, y) and second
    column (u, v), in exact ints; see the module docstring.  k is N's
    only when (u, v) completes a matrix of determinant 1."""
    per_j, fixed, after = _WALK_PER_J, _WALK_FIXED, _WALK_NEXT
    p1 = p2 = s = 0
    while y:
        q = abs(x) // abs(y) if (x < 0) == (y < 0) else -(abs(x) // abs(y))
        x, y, u, v = -y, x - q * y, -v, u - q * v
        i, j = 2 * s + (q & 1), q >> 1
        g1, g2 = per_j[s]
        f1, f2 = fixed[i]
        p1 += j * g1 + f1
        p2 += j * g2 + f2
        s = after[i]
    return p1, p2, s, x * u


def gamma2_exponent_sums(a: int, b: int, c: int, d: int):
    """Exponent sums (r1, r2) for raw entries, or None if not level 2.

    Exact for entries of any size: the walk on the columns of M^-1, as
    the module docstring sets out.  A walk that ends outside Gamma(2) T^k
    raises ArithmeticError.
    """
    if (a & 1) == 0 or (d & 1) == 0 or (b & 1) or (c & 1) or a * d - b * c != 1:
        return None
    phi1, phi2, s, k = _coset_word(d, -c, -b, a)
    if s > 1 or (s + k) & 1:
        raise ArithmeticError(f"the word of [{a} {b}; {c} {d}]^-1 ends in the coset of "
                              f"{COSET_REPS[s]} T^{k}")
    return -phi1 - (s + k) // 2, -phi2


def is_in_gamma_n(m: Mat2Z, n: int) -> bool:
    """Membership in the Fermat-curve group: level 2 with both exponent
    sums divisible by n."""
    if n < 1:
        raise ValueError("level must be a positive integer")
    if not is_in_gamma2(m):
        return False
    r1, r2 = gamma2_exponent_sums(m.a, m.b, m.c, m.d)
    return r1 % n == 0 and r2 % n == 0


# Largest entry coset_word_sums_batch accepts.  Its float64 quotients are
# exact below 2^52.  A round adds at most |j| + 1 <= |q|/2 + 3/2 to each
# |phi_i|, the quotients of the Euclid on (d, c) sum to at most
# max(c, d), and it takes at most 45 rounds, so |phi| <= 2^28 + 68 stays
# below the 2^31 of the packed phi1 2^32 + phi2.
BATCH_ENTRY_BOUND = 1 << 29


def coset_word_sums_batch(c, d):
    """Exponent sums phi = (phi1, phi2) of gamma and the coset state s in
    M^-1 = gamma COSET_REPS[s] T^k, gamma in Gamma(2), for every M with
    bottom row (c, d), as int64 arrays over rows of coprime c >= 1 and
    d >= 0.

    The rounds of _coset_word on the first column (d, -c) of M^-1, over
    all rows at once, reading the walk's tables when it runs; see the
    module docstring.  Raises OverflowError when an entry exceeds
    BATCH_ENTRY_BOUND and ValueError on any other row outside that
    domain.
    """
    c, d = (x.ravel() for x in np.broadcast_arrays(np.asarray(c, dtype=np.int64),
                                                     np.asarray(d, dtype=np.int64)))
    if c.size and max(c.max(), d.max()) > BATCH_ENTRY_BOUND:
        raise OverflowError(f"row entries beyond {BATCH_ENTRY_BOUND}")
    if c.size and (c.min() < 1 or d.min() < 0):
        raise ValueError("rows need c >= 1 and d >= 0")
    # the tables packed as phi1 2^32 + phi2, exact while |phi| < 2^31,
    # which the bound keeps
    per_j, fixed = (np.array([(r1 << 32) + r2 for r1, r2 in table], dtype=np.int64)
                    for table in (_WALK_PER_J, _WALK_FIXED))
    after = np.array(_WALK_NEXT, dtype=np.int64)
    # x and y of the live lanes as float64, whose truncated quotients are
    # exact below 2^52, their states and their packed sums
    idx = np.arange(c.size)
    x, y = d.astype(float), -c.astype(float)
    s, p = np.zeros(c.size, dtype=np.int64), np.zeros(c.size, dtype=np.int64)
    ended = []
    while idx.size:
        qf = np.trunc(x / y)
        x, y = -y, x - qf * y
        q = qf.astype(np.int64)
        i = 2 * s + (q & 1)
        p += (q >> 1) * per_j[s] + fixed[i]
        s = after[i]
        done = y == 0
        if done.any():
            fin = np.flatnonzero(done)
            ended.append((idx[fin], x[fin], p[fin], s[fin]))
            live = np.flatnonzero(~done)
            idx, x, y, s, p = idx[live], x[live], y[live], s[live], p[live]
    lanes, gcds, packed, state = (np.concatenate(v) for v in zip(*ended)) if ended else (idx,) * 4
    if (np.abs(gcds) != 1).any():
        raise ValueError("rows must be coprime")
    phi1, phi2, s = (np.empty(c.size, dtype=np.int64) for _ in range(3))
    phi2[lanes] = ((packed + (1 << 31)) & 0xFFFFFFFF) - (1 << 31)
    phi1[lanes] = (packed - phi2[lanes]) >> 32
    s[lanes] = state
    return phi1, phi2, s
