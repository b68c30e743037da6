"""Oracle for the Fourier lanes from the character u of a level-2 base
pair.

The package reads the lanes of phi_{jk} at level N as the class rows of
g_k^-1(j), from the tau column.  These read them from a second integer
per row instead.  A standard cusp representative j has scaling matrix
g_j = h_j g_bj, with b_j in {0, 1, inf} its level-2 base and h_j a power
of g1 or g2, so g_j^-1 Gamma(2) g_k = g_bj^-1 Gamma(2) g_bk: the lanes
(c, d mod 2c) of j and k are the level-2 rows with the parities of the
bottom row of g_bj^-1 g_bk.  The exponent sums r of rho = g_j M g_k^-1
are those of the base-pair rho plus r(h_j) - r(h_k), and the stabilizer
vector v_j of exponent sums of g_j T^2 g_j^-1 depends only on b_j.  So
the character u = r1 v2 - r2 v1 of the base pair decides every level N:
with u0 the shift that h_j and h_k add,

* same base (b_j = b_k): a lane is admissible exactly when
  u + u0 = 0 (mod N), and then all N lifts d + 2ct mod 2Nc are, read as
  one lane of weight and mode period N;
* different bases: the lane lifts to the one residue d + 2ct with
  t = (u + u0) det^-1 (mod N), det = v_j x v_k.

The level-2 modes also have closed forms at every s, the factored
Dirichlet series of gamma2_phi0_closed_form and
gamma2_phi_m_closed_form_at_s, over the zeta of mpmath, and the modes of
the full modular group at s = 1 are sigma_-1(m)/zeta(2), gamma1_phi_m1.
"""

from functools import lru_cache

import mpmath
import numpy as np

from fermatkl import eisenstein as e
from fermatkl.fermat import gamma2_base
from fermatkl.sl2 import (
    COSET_REPS,
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    GEN1,
    GEN2,
    T,
    NotInGamma2,
    coset_index,
    coset_word_sums_batch,
    cusp_scaling_matrix,
    gamma2_exponent_sums,
)


def base_pair_matrix(jb, kb):
    """g_bj^-1 g_bk for the level-2 bases b_j and b_k: the parities of
    its bottom row are those of the pair's rows."""
    return cusp_scaling_matrix(jb).inverse() * cusp_scaling_matrix(kb)


# Exponent sums of g_b T^2 g_b^-1, the stabilizer generator of the
# level-2 base b; g_j T^2 g_j^-1 of a standard representative j has
# those of its base.
STABILIZER_SUMS = {CUSP_ZERO: (0, -1), CUSP_ONE: (-1, 1), CUSP_INF: (1, 0)}


@lru_cache(maxsize=None)
def character_map(pair):
    """(coef, ends) that give u of the base pair (b_j, b_k) from the
    output (phi, s) of coset_word_sums_batch on the first column (d, -c)
    of M^-1, M with bottom row (c, d), as
    coef[0, s] phi1 + coef[1, s] phi2 + coef[2, s].  ends[s] is False
    where no row of the pair's parity ends in state s.  Write
    M^-1 = gamma R_s T^k with R_s = COSET_REPS[s].

    u = r1 v2 - r2 v1, r the exponent sums of rho = g_bj M g_bk^-1 for
    the M in g_bj^-1 Gamma(2) g_bk and v those of the stabilizer
    generator of b_j; the other choices of M's top row move r along v,
    which leaves u unchanged.  M^-1 lies in Gamma(2) g_bk^-1 g_bj, the
    coset of R_t.  The one e in {0, 1} that puts R_s T^e there gives
    M'^-1 = gamma' R_t with gamma' = gamma (R_s T^e R_t^-1), the inverse
    of M' = T^(k-e) M of the pair, and phi' = phi + r(R_s T^e R_t^-1).
    Then rho'^-1 = g_bk M'^-1 g_bj^-1 = (g_bk gamma' g_bk^-1)(g_bk R_t g_bj^-1),
    so r(rho'^-1) = A phi' + K, A with the sums of g_bk g1 g_bk^-1 and
    g_bk g2 g_bk^-1 as columns and K those of g_bk R_t g_bj^-1, and
    u = v1 r2 - v2 r1 of r(rho'^-1).  No R_s T^e lies in that coset
    where no row of the pair's parity ends.
    """
    coef = np.zeros((3, len(COSET_REPS)), dtype=np.int64)
    ends = np.zeros(len(COSET_REPS), dtype=bool)
    jb, kb = pair
    gj, gk = cusp_scaling_matrix(jb), cusp_scaling_matrix(kb)
    t = coset_index(gk.inverse() * gj)
    rt_inv = COSET_REPS[t].inverse()
    v1, v2 = STABILIZER_SUMS[jb]
    alpha = [v1 * r2 - v2 * r1 for r1, r2 in
             (gamma2_exponent_sums(*(gk * g * gk.inverse()).entries()) for g in (GEN1, GEN2))]
    k1, k2 = gamma2_exponent_sums(*(gk * COSET_REPS[t] * gj.inverse()).entries())
    coef[0], coef[1] = alpha
    for s, rep in enumerate(COSET_REPS):
        for tail in (rep, rep * T):
            if coset_index(tail) == t:
                w1, w2 = gamma2_exponent_sums(*(tail * rt_inv).entries())
                coef[2, s] = alpha[0] * w1 + alpha[1] * w2 + v1 * k2 - v2 * k1
                ends[s] = True
    coef.flags.writeable = ends.flags.writeable = False
    return coef, ends


def character_column(pair, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u of the base pair over rows (c, d) of its parity, as int32;
    NotInGamma2 when a row has another parity."""
    coef, ends = character_map(pair)
    phi1, phi2, s = coset_word_sums_batch(c.astype(np.int64), d.astype(np.int64))
    if not ends[s].all():
        raise NotInGamma2(f"rows outside the parity class of the pair {pair}")
    a1, a2, b = coef.take(s, axis=1)
    return e._int32(a1 * phi1 + a2 * phi2 + b, pair)


@lru_cache(maxsize=16)
def _rows_with_character(pair, c_max: int):
    """The rows of the pair's parity for c <= c_max and their u."""
    pt = base_pair_matrix(*pair)
    rows = e._enumerate_lanes((2, pt.c & 1, pt.d & 1), c_max)
    c = rows.c_column()
    return c, rows.d, character_column(pair, c, rows.d)


def character_lanes(group, j, k, c_max: int):
    """Lanes (c, d', weight) of phi_{jk} for c <= c_max through u, as the
    module docstring sets out: the weight is also the mode period."""
    jc, kc = e.standard_rep(group, j), e.standard_rep(group, k)
    n, jb, kb = group.n, gamma2_base(jc), gamma2_base(kc)
    if n == 1:
        pt = base_pair_matrix(jb, kb)
        key = e._GAMMA1_ROWS if group.kind == "gamma1" else (2, pt.c & 1, pt.d & 1)
        rows = e._enumerate_lanes(key, c_max)
        return rows.c_column(), rows.d, 1
    c, d, u = _rows_with_character((jb, kb), c_max)
    gj, gk = cusp_scaling_matrix(jc), cusp_scaling_matrix(kc)
    hj = gamma2_exponent_sums(*(gj * cusp_scaling_matrix(jb).inverse()).entries())
    hk = gamma2_exponent_sums(*(gk * cusp_scaling_matrix(kb).inverse()).entries())
    v1, v2 = STABILIZER_SUMS[jb]
    # int64 before any arithmetic: int32 arrays against Python or numpy
    # scalars promote differently under numpy 1.x and 2.x
    u = u.astype(np.int64) + (hj[0] - hk[0]) * v2 - (hj[1] - hk[1]) * v1
    if jb == kb:
        keep = u % n == 0
        return c[keep], d[keep], n
    w1, w2 = STABILIZER_SUMS[kb]
    det_inv = pow((v1 * w2 - v2 * w1) % n, -1, n)
    return c, d + 2 * c.astype(np.int64) * (u * det_inv % n), 1


def inner_sums_character(group, j, k, ms, c_max: int) -> np.ndarray:
    """inner_sums on the lanes of character_lanes, as Rows whose step
    gives the weight: width / step."""
    c, d, weight = character_lanes(group, j, k, c_max)
    bounds = np.searchsorted(c, np.arange(c_max + 1), side="right")
    return e._lane_sums(group.width, e.Rows(group.width // weight, d, bounds), list(ms))


def zeta(s: float) -> float:
    """Riemann zeta at real s != 1, from mpmath, rounded to a double."""
    return float(mpmath.zeta(s))


def gamma2_phi0_closed_form(diag: bool, s) -> float:
    """Factored Dirichlet series of the level-2 zero modes:
    2/(2^(2s)-1) * zeta(2s-1)/zeta(2s) on the diagonal and
    (2^(2s)-2)/(2^(2s)-1) * zeta(2s-1)/zeta(2s) off it."""
    w = 2.0 * s
    num = zeta(w - 1.0) / zeta(w)
    if diag:
        return 2.0 / (2.0 ** w - 1.0) * num
    return (2.0 ** w - 2.0) / (2.0 ** w - 1.0) * num


def gamma2_phi_m_closed_form_at_s(pair_parity: tuple[int, int], ms, s: float) -> list[float]:
    """Exact phi_{jk,m}(s) of the level-2 group for each m in ms, all
    nonzero, with zeta(2s) taken once: the general-s form of the
    package's closed form at s = 1.

    pair_parity = (c, d) parities of the admissible pairs: (0, 1) for
    diagonal entries, (1, 0) and (1, 1) for the two off-diagonal types.
    Obtained by factoring the Ramanujan-sum Dirichlet series through the
    2-adic part of m.
    """
    if 0 in ms:
        raise ValueError("the closed form takes nonzero modes only")
    w = 2.0 * s
    zw = zeta(w)

    def phi(m):
        divs = divisors(m)
        if pair_parity == (0, 1):
            d2 = sum(d ** (1.0 - w) for d in divs if d % 4 == 2)
            d4 = sum(d ** (1.0 - w) for d in divs if d % 4 == 0)
            return (-d2 / (1.0 - 2.0 ** -w) + 2.0 ** w * d4) / zw
        base = sum(d ** (1.0 - w) for d in divs if d % 2 == 1) / (zw * (1.0 - 2.0 ** -w))
        return -base if pair_parity == (1, 1) and m % 2 else base
    return [phi(m) for m in ms]


def gamma1_phi_m1(ms) -> list[float]:
    """phi_m(1) of the full modular group for each m in ms, all nonzero:
    sigma_-1(m)/zeta(2), the 1/d added in ascending d."""
    if 0 in ms:
        raise ValueError("the closed form takes nonzero modes only")
    return [sum(1.0 / d for d in divisors(m)) / zeta(2.0) for m in ms]


def divisors(m: int) -> list[int]:
    """The positive divisors of m, ascending."""
    return [d for d in range(1, abs(m) + 1) if m % d == 0]
