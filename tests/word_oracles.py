"""Oracle on the reduced words of the level-2 group.

The package spells the word of a matrix in g1, g2 by a nearest-integer
Euclid on its first column (sl2.decompose_gamma2); this spells it by a
1-norm ping-pong instead: at each step it peels the power of g1 or g2
from the left whose shift most lowers the 1-norm of the entries.  The
tests build words from raw syllable lists, and the coset
representatives of the Fermat groups as words, here too.
"""

from fermatkl.sl2 import GEN1, GEN2, GammaWord, Mat2Z, NotInGamma2, is_in_gamma2


def word_from_syllables(raw: list[tuple[int, int]]) -> GammaWord:
    """Reduce a raw syllable list (merge adjacent ids, drop zeros)."""
    out: list[tuple[int, int]] = []
    for gen, exp in raw:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return GammaWord(tuple(out))


def coset_reps(n: int) -> tuple[Mat2Z, ...]:
    """The n^2 coset representatives g1^a g2^b of the level-n Fermat
    group in the level-2 group, (a, b) lexicographic."""
    return tuple(GEN1 ** a * GEN2 ** b for a in range(n) for b in range(n))


def round_half_down(num: int, den: int) -> int:
    """Nearest integer to num/den (den != 0), halves rounded down."""
    if den < 0:
        num, den = -num, -den
    q, r = divmod(num, den)
    if 2 * r > den:
        q += 1
    return q


def _best_shift(u: int, v: int, c: int, d: int) -> tuple[int, int]:
    """k minimizing |u - 2kc| + |v - 2kd| over integers, with the norm."""
    cands = {0}
    if c:
        k0 = round_half_down(u, 2 * c)
        cands.update((k0 - 1, k0, k0 + 1))
    if d:
        k0 = round_half_down(v, 2 * d)
        cands.update((k0 - 1, k0, k0 + 1))
    best_k, best_n = 0, abs(u) + abs(v)
    for k in cands:
        n = abs(u - 2 * k * c) + abs(v - 2 * k * d)
        if n < best_n or (n == best_n and abs(k) < abs(best_k)):
            best_k, best_n = k, n
    return best_k, best_n


def decompose_gamma2_ping_pong(m: Mat2Z) -> GammaWord:
    """Unique reduced word w with eval(w) = m up to sign.

    Continued-fraction style ping-pong reduction: peels generator powers
    from the left while the 1-norm strictly decreases; deterministic
    because the peeled exponent is the greedy minimizer of the row
    1-norm.
    """
    if not is_in_gamma2(m):
        raise NotInGamma2(f"{m} is not in the level-2 group")
    a, b, c, d = m.entries()
    syll: list[tuple[int, int]] = []
    while True:
        if c == 0:
            if a < 0:
                b = -b
            # a = d = 1 and b even: the word tail g1^(b/2).
            syll.append((1, b // 2))
            break
        if b == 0:
            if a < 0:
                c, d = -c, -d
            syll.append((2, c // 2))
            break
        size = abs(a) + abs(b) + abs(c) + abs(d)
        k1, n1 = _best_shift(a, b, c, d)
        k2, n2 = _best_shift(c, d, a, b)
        new1 = n1 + abs(c) + abs(d)
        new2 = n2 + abs(a) + abs(b)
        if new1 < size and (new1 <= new2 or k2 == 0) and k1 != 0:
            # M = g1^k1 * M'; peel from the left.
            syll.append((1, k1))
            a, b = a - 2 * k1 * c, b - 2 * k1 * d
        elif new2 < size and k2 != 0:
            syll.append((2, k2))
            c, d = c - 2 * k2 * a, d - 2 * k2 * b
        else:
            raise NotInGamma2(f"word reduction stalled at [{a} {b}; {c} {d}]")
    return word_from_syllables(syll)
