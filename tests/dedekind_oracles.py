"""Oracles on the Dedekind-sum exponent sums, batched over int64 arrays.

The package reads tau and the characters of the lane tables from one
Euclid on the column of a row (sl2.coset_word_sums_batch); these read
them from the exponent sums of an explicit level-2 matrix instead, by
the Dedekind-sum formula of the sl2 module docstring run lane by lane.
"""

import numpy as np

from fermatkl.sl2 import BATCH_ENTRY_BOUND, NotInGamma2


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

    The formula of sl2.gamma2_exponent_sums, one lane per matrix.  For
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


def class_invariants(p, q) -> tuple[np.ndarray, np.ndarray]:
    """(base, tau) over int64 arrays of coprime p, q with q >= 1: base 0,
    1 or 2 for the level-2 base 0, 1 or infinity of (p : q), and tau its
    class invariant, not reduced mod any level.  tau is read as
    fermat.classify_rep_index reads it, from the exponent sums of a
    level-2 M with M(base) = (p : q): base infinity, M = [p (py-1)/q; q y]
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
