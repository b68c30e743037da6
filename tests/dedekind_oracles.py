"""Oracles on the Dedekind-sum exponent sums, scalar and batched over
int64 arrays.

The package reads exponent sums and tau, and the character oracle the
characters of the lanes, from one Euclid on a column (the coset-word
walk of the sl2 module); these read them from three Dedekind sums
instead.  The exponent
sums (r1, r2) of gamma = [a b; c d] in the level-2 group, sign-normalised
so that c > 0, come from the eta transformation law (Apostol, Modular
Functions and Dirichlet Series in Number Theory, ch. 3).  With
Y(h, k) = 12k s(h, k),

    6c r1        = 3(a+d) + 6 Y(d, c) - Y(d, 2c) - 8 Y(d, c/2)
    6c (r1 + r2) = 3(a+d) + Y(d, 2c) - 4 Y(d, c/2),

and gamma = g1^(b/2), r = (b/2, 0), when c = 0.  Both divisions are
exact; a remainder raises ArithmeticError.  Y follows from reciprocity
(Rademacher and Grosswald, Dedekind Sums, 1972) as one extended Euclid
pass on (k, h) for coprime 0 <= h < k: with quotients q_1..q_n and the
raw Bezout coefficient x0 of h (not reduced mod k),

    Y(h, k) = k (q_1 - q_2 + ... +- q_n) - 3k [n odd] + h + x0,

and Y(0, 1) = 0.

classify_cusp_word_euclid classifies a cusp without the walk or its
round tables: a Euclidean reduction maps the cusp to its level-2 base
step by step (about q steps on (q+1)/q), the class is read from the
exponent sums of that word, and the witness word is built from it.
"""

import numpy as np

from fermatkl.fermat import _KIND_OF_BASE, FermatCusp, _fermat_cusp, class_shift, gamma2_base
from fermatkl.sl2 import (
    BATCH_ENTRY_BOUND,
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    Cusp,
    GammaWord,
    NotInGamma2,
    word_from_syllables,
)

from word_oracles import round_half_down


def _dedekind_y(h: int, k: int) -> int:
    """Y(h, k) = 12k s(h, k) for coprime 0 <= h < k (Y(0, 1) = 0)."""
    r0, r1 = k, h
    x0, x1 = 0, 1
    alt, sign = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        alt += sign * q
        sign = -sign
    # sign < 0 exactly when the number of quotients is odd
    return k * alt - (3 * k if sign < 0 else 0) + h + x0


def gamma2_exponent_sums_dedekind(a: int, b: int, c: int, d: int):
    """Exponent sums (r1, r2) for raw entries, or None if not level 2.

    Exact for entries of any size.  See the module docstring for the
    formula.
    """
    if (a & 1) == 0 or (d & 1) == 0 or (b & 1) or (c & 1) or a * d - b * c != 1:
        return None
    if c < 0 or (c == 0 and a < 0):
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        return b // 2, 0
    half = c // 2
    y_c, y_2c, y_half = (_dedekind_y(d % k, k) for k in (c, 2 * c, half))
    r1, e1 = divmod(3 * (a + d) + 6 * y_c - y_2c - 8 * y_half, 6 * c)
    s, e2 = divmod(3 * (a + d) + y_2c - 4 * y_half, 6 * c)
    if e1 or e2:
        raise ArithmeticError(f"exponent-sum numerators of [{a} {b}; {c} {d}] "
                              f"are not divisible by 6c")
    return r1, s - r1


def _euclid_batch(k: np.ndarray, h: np.ndarray):
    """Extended Euclid on (k, h) lane by lane, for 0 <= h < k.

    Returns the alternating quotient sums q_1 - q_2 + ..., whether the
    number of quotients is odd, and the raw Bezout coefficient x0 with
    x0 h = gcd (mod k).  Finished lanes are dropped from the working
    arrays, so every live lane is at the same step.
    """
    alt = np.zeros(k.size, dtype=np.int64)
    odd = np.zeros(k.size, dtype=bool)
    x_out = np.zeros(k.size, dtype=np.int64)
    idx = np.flatnonzero(h)
    r0, r1 = k[idx], h[idx]
    x0, x1 = np.zeros(idx.size, dtype=np.int64), np.ones(idx.size, dtype=np.int64)
    acc = np.zeros(idx.size, dtype=np.int64)
    step = 0
    while idx.size:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        acc = acc - q if step & 1 else acc + q
        step += 1
        done = r1 == 0
        if done.any():
            lanes = idx[done]
            alt[lanes] = acc[done]
            odd[lanes] = step & 1
            x_out[lanes] = x0[done]
            live = ~done
            idx, r0, r1, x0, x1, acc = idx[live], r0[live], r1[live], x0[live], x1[live], acc[live]
    return alt, odd, x_out


def mod_inverse_batch(h, k) -> np.ndarray:
    """h^-1 mod k in [0, k) for int64 arrays of coprime h and k >= 1."""
    k = np.asarray(k, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64) % k
    return _euclid_batch(k, h)[2] % k


def gamma2_exponent_sums_batch(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Exponent sums (r1, r2) of level-2 matrices given as int64 arrays.

    The formula of gamma2_exponent_sums_dedekind, one lane per matrix.  For
    c <= 2^29 every Y(h, k) with k <= 2c obeys |Y| <= k^2 <= 2^60, and
    both numerators stay below 12 c^2 + 6 * 2^29 < 2^63.  Raises
    OverflowError when an entry exceeds BATCH_ENTRY_BOUND in magnitude
    and NotInGamma2 when a lane is not a level-2 matrix.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in (a, b, c, d)))
    for x in (a, b, c, d):
        if x.size and (x.max() > BATCH_ENTRY_BOUND or x.min() < -BATCH_ENTRY_BOUND):
            raise OverflowError(f"matrix entries beyond {BATCH_ENTRY_BOUND} overflow int64")
    bad = ((a & 1) == 0) | ((d & 1) == 0) | ((b & 1) == 1) | ((c & 1) == 1) | (a * d - b * c != 1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NotInGamma2(f"[{a[i]} {b[i]}; {c[i]} {d[i]}] is not in the level-2 group")
    sign = np.where((c < 0) | ((c == 0) & (a < 0)), -1, 1)
    a, b, c, d = a * sign, b * sign, c * sign, d * sign
    r1 = b // 2
    r2 = np.zeros_like(r1)
    pos = np.flatnonzero(c)
    if pos.size:
        ap, cp, dp = a[pos], c[pos], d[pos]
        k = np.concatenate((cp, 2 * cp, cp // 2))
        h = np.concatenate((dp, dp, dp)) % k
        alt, odd, x0 = _euclid_batch(k, h)
        y_c, y_2c, y_half = np.split(k * alt - 3 * k * odd + h + x0, 3)
        t = 3 * (ap + dp)
        q1, e1 = np.divmod(t + 6 * y_c - y_2c - 8 * y_half, 6 * cp)
        q2, e2 = np.divmod(t + y_2c - 4 * y_half, 6 * cp)
        if e1.any() or e2.any():
            raise ArithmeticError("exponent-sum numerators are not divisible by 6c")
        r1[pos] = q1
        r2[pos] = q2 - q1
    return r1, r2


def classify_rep_index_dedekind(p: int, q: int, n: int) -> int:
    """fermat.classify_rep_index from the exponent sums of a level-2 M
    with M(base) = (p : q), which a modular inverse builds, in exact ints;
    see class_invariants for M."""
    c = Cusp(p, q)
    p, q, base, t = c.p, c.q, gamma2_base(c), 0
    if n > 1 and p and q:
        if base == CUSP_INF:
            y = pow(p, -1, 2 * q)
            m = (p, (p * y - 1) // q, q, y)
        else:
            a = pow(q, -1, 2 * abs(p))
            lower = (a * q - 1) // p
            m = (a, p, lower, q) if base == CUSP_ZERO else (a, p - a, lower, q - lower)
        r1, r2 = gamma2_exponent_sums_dedekind(*m)
        t = (r2 if base == CUSP_INF else r1 + r2 if base == CUSP_ONE else r1) % n
    if base == CUSP_INF:
        return 2 * n + (t - 1 if t else n - 1)
    return (base == CUSP_ONE) * n + t


def _cusp_reduction_steps(c: Cusp) -> tuple[Cusp, list[tuple[int, int]]]:
    """Euclidean reduction of a cusp to its level-2 base.

    Returns (base, steps) where applying g_gen^e for the listed steps in
    order maps c to base.  It takes about q steps on cusps like
    (q+1)/q.
    """
    p, q = c.p, c.q
    steps: list[tuple[int, int]] = []
    while True:
        if q == 0 or p == 0:
            break
        ap, aq = abs(p), abs(q)
        if ap == aq:
            # coprime, so (p, q) = (+-1, +-1)
            if p * q > 0:
                break
            # (-1 : 1) -> (1 : 1) via g1
            steps.append((1, 1))
            p += 2 * q
            break
        if ap > aq:
            e = -round_half_down(p, 2 * q)
            steps.append((1, e))
            p += 2 * e * q
        else:
            e = -round_half_down(q, 2 * p)
            steps.append((2, e))
            q += 2 * e * p
    return Cusp(p, q), steps


# Stabilizer generator words of the three base cusps in the level-2 group.
_STAB_WORD = {
    CUSP_ZERO: ((2, 1),),            # g2 fixes 0
    CUSP_ONE: ((2, 1), (1, -1)),     # g2 g1^-1 fixes 1
    CUSP_INF: ((1, 1),),             # g1 fixes inf
}


def _class_invariant(base: Cusp, r1: int, r2: int) -> tuple[int, int, int]:
    """(invariant, free sum, generator of the standard representative)
    for a level-2 matrix with exponent sums (r1, r2) mapping base to the
    cusp.  The invariant is the class_shift of the base's kind; the free
    sum is the one a power of the base's stabilizer can change."""
    free, gen = (r1, 2) if base == CUSP_INF else (r2, 1)
    return class_shift(_KIND_OF_BASE[base], r1, r2), free, gen


def classify_cusp_word_euclid(c: Cusp, n: int) -> tuple[FermatCusp, GammaWord]:
    """The class of a cusp and a witness word by Euclidean reduction of
    the cusp: the oracle for fermat.classify_cusp and the word
    decompose_gamma2(classify_cusp(c, n)[1]) that the classify command
    prints.

    Returns (fc, w) where fc is the standard representative data and w
    is a word in the Fermat group with w(fc.rep) = c.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    base, steps = _cusp_reduction_steps(c)
    # rho = g_{s1}^{-e1} ... g_{sm}^{-em} maps base to c.
    rho = word_from_syllables([(g, -e) for g, e in steps])
    t_inv, comp, std_gen = _class_invariant(base, rho.r1, rho.r2)
    t_inv %= n
    # Witness w = rho * stab^t * std^-1 with t chosen to kill the free
    # exponent sum mod n.
    stab = list(_STAB_WORD[base]) * ((-comp) % n)
    w_word = word_from_syllables(list(rho.syllables) + stab + [(std_gen, -t_inv)])
    return _fermat_cusp(base, t_inv, n), w_word


def class_invariants(p, q) -> tuple[np.ndarray, np.ndarray]:
    """(base, tau) over int64 arrays of coprime p, q with q >= 1: base 0,
    1 or 2 for the level-2 base 0, 1 or infinity of (p : q), and tau its
    class invariant, not reduced mod any level.  tau is read from the
    exponent sums of a level-2 M with M(base) = (p : q): base infinity, M = [p (py-1)/q; q y]
    with y = p^-1 mod 2q; bases 0 and 1, a = q^-1 mod 2|p| and
    c = (aq-1)/p, with M = [a p; c q] and M = [a p-a; c q-c].  (0 : 1) is
    the base 0.
    """
    p, q = np.broadcast_arrays(np.asarray(p, dtype=np.int64), np.asarray(q, dtype=np.int64))
    at_inf = (q & 1) == 0
    at_one = ((p & 1) == 1) & ~at_inf
    at_zero = p == 0
    p = np.where(at_zero, 1, p)  # placeholder: those lanes get the identity below
    inv = mod_inverse_batch(np.where(at_inf, p, q), np.where(at_inf, 2 * q, 2 * np.abs(p)))
    lower = (inv * q - 1) // p
    a = np.where(at_inf, p, inv)
    b = np.where(at_inf, (p * inv - 1) // q, np.where(at_one, p - inv, p))
    c = np.where(at_inf, q, lower)
    d = np.where(at_inf, inv, np.where(at_one, q - lower, q))
    a, b, c, d = (np.where(at_zero, x, y) for x, y in ((1, a), (0, b), (0, c), (1, d)))
    r1, r2 = gamma2_exponent_sums_batch(a, b, c, d)
    tau = np.where(at_inf, r2, np.where(at_one, r1 + r2, r1))
    return np.where(at_inf, 2, at_one.astype(np.int64)), tau


def classify_rep_indices(p, q, n: int) -> np.ndarray:
    """fermat.classify_rep_index over arrays of coprime p, q with q >= 1,
    from class_invariants; at level 1 the parity base alone is the
    class."""
    p, q = np.broadcast_arrays(np.asarray(p, dtype=np.int64), np.asarray(q, dtype=np.int64))
    if n == 1:
        return np.where(q & 1, p & 1, 2)
    base, t = class_invariants(p, q)
    t %= n
    return np.where(base == 2, 2 * n + np.where(t > 0, t - 1, n - 1), base * n + t)
