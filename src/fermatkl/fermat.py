"""Cusp combinatorics of the Fermat-curve groups.

The level-N Fermat group is the kernel of the exponent-sum map
(level 2 group) -> (Z/N)^2 on the free generators g1, g2.  It is normal
in PSL(2, Z) of index 6N^2 with 3N cusps of common width 2N.  At N = 1
the kernel is the whole level-2 group, so GAMMA2 is gamma_n(1) and its
cusps 0, 1, inf are the level-1 representatives.  This module provides
the representative system and cusp classification.  A cusp and the ramification point under it of the
degree-N^2 Belyi map of the Fermat curve x^N + y^N = 1 are one object
and one record, FermatCusp.  The class invariants of cusps and of
lattice rows both live here, read through the one TAU_MAP from the
coset-word walk of the sl2 module: classify_rep_index reads a cusp's
from the exact-int walk, and tau_column the unreduced invariant of
(-d : c) over rows (c, d) from the int64 batch walk.  The witness of a
cusp's class, a matrix of the group that maps the representative to the
cusp, passes a level-N membership test and so certifies the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi

import numpy as np

from .sl2 import (
    COSET_REPS,
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    Cusp,
    Mat2Z,
    T,
    _coset_word,
    coset_word_sums_batch,
    cusp_scaling_matrix,
    gamma2_exponent_sums,
    is_in_gamma_n,
)


@dataclass(frozen=True)
class GroupId:
    """PSL(2,Z) itself or a Fermat group; level 1 is the level-2 group."""

    kind: str  # "gamma1" | "gamma_n"
    n: int = 1

    def __post_init__(self):
        if self.kind not in ("gamma1", "gamma_n"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.n < 1 or (self.kind == "gamma1" and self.n != 1):
            raise ValueError(f"no {self.kind} group of level {self.n}")

    @property
    def index(self) -> int:
        """Index in PSL(2, Z)."""
        return 1 if self.kind == "gamma1" else 6 * self.n * self.n

    @property
    def width(self) -> int:
        """Common cusp width."""
        return 1 if self.kind == "gamma1" else 2 * self.n

    @property
    def volume(self) -> float:
        """Hyperbolic volume pi * index / 3."""
        return pi * self.index / 3.0

    def __str__(self):
        if self.kind == "gamma1":
            return "Gamma(1)"
        return "Gamma(2)" if self.n == 1 else f"Gamma_{self.n}"


def gamma_n(n: int) -> GroupId:
    return GroupId("gamma_n", n)


GAMMA1 = GroupId("gamma1")
GAMMA2 = gamma_n(1)


KIND_A = "A"  # over 0 under the Belyi map
KIND_B = "B"  # over 1
KIND_C = "C"  # over infinity

_BASE_OF_KIND = {KIND_A: CUSP_ZERO, KIND_B: CUSP_ONE, KIND_C: CUSP_INF}
_KIND_OF_BASE = {base: kind for kind, base in _BASE_OF_KIND.items()}


def class_shift(kind: str, r1: int, r2: int) -> int:
    """Shift of the class invariant of a cusp of the given kind under a
    level-2 matrix with exponent sums (r1, r2): r1 for kind A (over 0),
    r1 + r2 for B (over 1) and r2 for C (over infinity)."""
    if kind == KIND_A:
        return r1
    if kind == KIND_B:
        return r1 + r2
    return r2


@dataclass(frozen=True)
class FermatCusp:
    """A cusp of the level-n Fermat group and the ramification point of
    the Belyi map under it, which are one object.

    ``rep`` is the representative from the standard system
    S_0 = {0, 2, ..., 2n-2}, S_1 = {1, 3, ..., 2n-1},
    S_inf = {1/2, ..., 1/(2n-2), inf}.  ``kind``/``index`` name the
    ramification point, with symbolic coordinates: kind A is
    (0 : zeta^j : 1), kind B is (zeta^j : 0 : 1) and kind C is
    (eps * zeta^j : 1 : 0), where j is the index, zeta = e^(2 pi i / n)
    and eps = e^(pi i / n).  Only the exponent data is stored.
    """

    n: int
    kind: str
    index: int
    rep: Cusp

    def __str__(self):
        return f"{self.rep}"

    @property
    def beta_image(self) -> Cusp:
        """Image under the Belyi map: the level-2 base 0, 1 or inf."""
        return _BASE_OF_KIND[self.kind]

    def coords(self) -> str:
        z = f"zeta^{self.index}" if self.index else "1"
        if self.kind == KIND_A:
            return f"(0 : {z} : 1)"
        if self.kind == KIND_B:
            return f"({z} : 0 : 1)"
        e = f"eps*{z}" if self.index else "eps"
        return f"({e} : 1 : 0)"


def _fermat_cusp(base: Cusp, t: int, n: int) -> FermatCusp:
    """The cusp of class invariant t over the given level-2 base, with
    its standard representative and its ramification point.

    Correspondence 2n-2j <-> A_j, 2n-2j+1 <-> B_j, 1/(2n-2j) <-> C_j,
    anchored at 0 <-> (0:1:1), 1 <-> (1:0:1), inf <-> (eps:1:0); each
    family reduces to index (n - t) mod n in the class invariant t.
    """
    t %= n
    if base == CUSP_ZERO:
        rep = Cusp(2 * t, 1)
    elif base == CUSP_ONE:
        rep = Cusp(2 * t + 1, 1)
    else:
        rep = CUSP_INF if t == 0 else Cusp(1, 2 * t)
    return FermatCusp(n, _KIND_OF_BASE[base], (n - t) % n, rep)


# Levels whose cusp representatives stay memoized; a level past them is
# rebuilt on its next call.
_LEVEL_CACHE = 16


@lru_cache(maxsize=_LEVEL_CACHE)
def cusp_reps(n: int) -> tuple[FermatCusp, ...]:
    """The 3n cusps in the standard order S_0, S_1, S_inf.

    The last element of S_inf is stored as the cusp at infinity
    (1/(2n) is equivalent to it via g2^n).
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    out = [_fermat_cusp(CUSP_ZERO, t, n) for t in range(n)]
    out += [_fermat_cusp(CUSP_ONE, t, n) for t in range(n)]
    out += [_fermat_cusp(CUSP_INF, t, n) for t in range(1, n)]
    out.append(_fermat_cusp(CUSP_INF, 0, n))
    return tuple(out)


def fermat_cusp_of_ram(n: int, kind: str, j: int) -> FermatCusp:
    """The cusp whose ramification point has the given kind and index."""
    return _fermat_cusp(_BASE_OF_KIND[kind], (n - j) % n, n)


def gamma2_base(c: Cusp) -> Cusp:
    """Level-2 class of a cusp by parity of the reduced pair."""
    podd, qodd = c.p & 1, c.q & 1
    if podd and qodd:
        return CUSP_ONE
    if podd:
        return CUSP_INF
    return CUSP_ZERO


def classify_rep_index(p: int, q: int, n: int) -> int:
    """Index of the class of (p : q) in the cusp_reps(n) ordering.

    The invariant is read through TAU_MAP from the coset-word walk on the
    column (p, q), in exact ints: O(log q) rounds for entries of any
    size."""
    c = Cusp(p, q)
    base, t = gamma2_base(c), 0
    # at level 1 the invariant mod 1 is 0: the level-2 base is the class
    if n > 1:
        phi1, phi2, s, _ = _coset_word(c.p, c.q)
        a1, a2, b = TAU_MAP[s]
        t = (a1 * phi1 + a2 * phi2 + b) % n
    if base == CUSP_ZERO:
        return t
    if base == CUSP_ONE:
        return n + t
    # S_inf block: reps 1/2 ... 1/(2n-2) then inf (t = 0) last.
    return 2 * n + (t - 1 if t else n - 1)


# Rows per block of a tau column, whose Euclid rounds pay a
# fixed cost per numpy call that small blocks would multiply.
_COLUMN_BLOCK = 1 << 13


def tau_column(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The class invariant tau of (-d : c), unreduced, over rows (c, d)
    of coprime c >= 1 and d >= 0, as int32: classify_rep_index's
    invariant before its reduction mod n, read through TAU_MAP from
    coset_word_sums_batch block by block into one preallocated column.
    OverflowError when tau leaves int32."""
    coef = np.transpose(TAU_MAP)
    col = np.empty(c.size, dtype=np.int32)
    for lo in range(0, c.size, _COLUMN_BLOCK):
        phi1, phi2, s = coset_word_sums_batch(c[lo:lo + _COLUMN_BLOCK], d[lo:lo + _COLUMN_BLOCK])
        a1, a2, b = coef.take(s, axis=1)
        tau = a1 * phi1 + a2 * phi2 + b
        if np.abs(tau).max(initial=0) > np.iinfo(np.int32).max:
            raise OverflowError("tau overflows int32")
        col[lo:lo + s.size] = tau
    return col


def classify_cusp(c: Cusp, n: int) -> tuple[FermatCusp, Mat2Z]:
    """Class fc of a cusp in the level-n Fermat group, read by
    classify_rep_index, and the witness w = g_c T^k g_rep^-1 in the group
    with -n < k <= n, g_c and g_rep the scaling matrices of c and fc.rep.
    Those matrices for k in Z map fc.rep to c, and the stabilizer of
    fc.rep in the group is g_rep T^(2n) g_rep^-1, so one k in the window
    gives w; if none does, fc is wrong and the call raises
    ArithmeticError.  So w certifies the class, in O(n log q) steps."""
    fc = cusp_reps(n)[classify_rep_index(c.p, c.q, n)]
    g_c, g_rep_inv = cusp_scaling_matrix(c), cusp_scaling_matrix(fc.rep).inverse()
    for k in range(1 - n, n + 1):
        w = g_c * T ** k * g_rep_inv
        if is_in_gamma_n(w, n):
            return fc, w
    raise ArithmeticError(f"no witness in {gamma_n(n)} maps {fc.rep} to {c}")


def _tau_map() -> tuple[tuple[int, int, int], ...]:
    """TAU_MAP: per coset state s, (a1, a2, b) with the class invariant
    of N(inf) = a1 phi1 + a2 phi2 + b, for N = gamma R_s T^k and phi the
    exponent sums of gamma, R_s = COSET_REPS[s].  The level-1 witness
    eps_s of R_s(inf) is R_s T^j g^-1 for some j, g the scaling matrix of
    its level-2 base, so gamma eps_s maps that base to N(inf) and the
    invariant is the class_shift of its kind at phi + r(eps_s).  Another
    j changes eps_s by a stabilizer of the base, which moves no
    class_shift.  Level 1 reads parities only, not TAU_MAP."""
    out = []
    for rep in COSET_REPS:
        fc, eps = classify_cusp(Cusp(rep.a, rep.c), 1)
        r = gamma2_exponent_sums(*eps.entries())
        out.append((class_shift(fc.kind, 1, 0), class_shift(fc.kind, 0, 1), class_shift(fc.kind, *r)))
    return tuple(out)


TAU_MAP = _tau_map()
