"""Numerical Eisenstein series.

Three computation paths that the verification layer plays against each
other:

* direct lattice-point summation over coprime pairs (c, d) bucketed by
  the cusp class of (d : c),
* Fourier coefficients phi_{jk,m}(s) by constructive enumeration of the
  double-coset admissible pairs, and
* the regularized value at s = 1 assembled from closed-form scattering
  constants plus the m != 0 coefficients.

Every Fermat group is the kernel of a character on the level-2 group,
so its double-coset sums are level-2 sums with one integer weight per
lane.  A standard cusp representative j has scaling matrix
g_j = h_j g_bj with b_j in {0, 1, inf} its level-2 base and h_j a power
of g1 or g2.  Hence g_j^-1 Gamma(2) g_k = g_bj^-1 Gamma(2) g_bk: the
candidates (c, d mod 2c), the lanes, depend only on the base pair, and
one table of lanes per base pair serves the level-2 group and every
level N.  The exponent sums r of rho = g_j M g_k^-1 are those of the
base-pair rho plus r(h_j) - r(h_k), and the stabilizer vector v_j of
exponent sums of g_j T^2 g_j^-1 depends only on b_j.  So the integer
column u = r1 v2 - r2 v1, computed once per table, decides every level:
with u0 the shift that h_j and h_k add,

* same base (b_j = b_k): a lane is admissible exactly when
  u + u0 = 0 (mod N), and then all N lifts d + 2ct mod 2Nc are; their
  inner sum is N e(m d/(2Nc)) when N | m and 0 otherwise, which is what
  makes the same-fiber Fourier modes supported on multiples of N;
* different bases: the lane lifts to the one residue d + 2ct with
  t = (u + u0) det^-1 (mod N), det = v_j x v_k.

The level-2 group, which is level N = 1, reads the lanes unfiltered,
and the full modular group has a table of its own (every c, d mod c).
The direct sums read class tables of the same shape, one per group:
every d0 in [0, width c) coprime to c with the class of (-d0 : c),
each (c, class) bucket a contiguous slice.  Both kinds hold int32
columns sorted by c, so a prefix serves any c_max below the one
enumerated.  They come from one block enumeration, are extended on
demand and share one store bounded by a least-recently-used row count;
u is only computed when a level N > 1 first reads a lane table.  The
sums r come from the Dedekind-sum formula of the sl2 module in int64
batches of _ENUM_BLOCK lanes.

Each side of a Fourier-against-direct comparison is one pass over its
data.  inner_sums reads, shifts and filters the lanes once per call and
returns a row of per-c sums for every mode asked for; the row of -m is
the complex conjugate of the row of m, so fourier_eval reads the modes
0..m_eff once and conjugates.  The direct sum fetches its group's class
table once, walks c through the bucket bounds and sums only the class
buckets asked for; eisenstein_direct asks for its own class.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from . import scattering
from .fermat import (
    GAMMA2,
    FermatCusp,
    GroupId,
    classify_rep_index,
    classify_rep_indices,
    cusp_reps,
    gamma2_base,
)
from .sl2 import (
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    Cusp,
    Mat2Z,
    cusp_scaling_matrix,
    gamma2_exponent_sums,
    gamma2_exponent_sums_batch,
    mod_inverse_batch,
)
from .special import bessel_k, gamma_fn, zeta


class DivergentRegion(ValueError):
    """Series evaluation requested outside Re s > 1."""


class TruncationUnsound(ValueError):
    """Tail estimate exceeds the requested tolerance."""


@dataclass(frozen=True)
class TruncationSpec:
    c_max: int = 500
    m_max: int = 10
    order: int = 26

    def __post_init__(self):
        if self.c_max < 1 or self.m_max < 1 or self.order < 1:
            raise ValueError("truncation parameters must be >= 1")


DEFAULT_TRUNCATION = TruncationSpec()


@dataclass(frozen=True)
class PhiTerm:
    group: GroupId
    cusp_j: Cusp
    cusp_k: Cusp
    m: int
    s: complex
    partial_sum: complex
    c_reached: int
    tail_estimate: float


def as_cusp(x) -> Cusp:
    if isinstance(x, FermatCusp):
        return x.rep
    if isinstance(x, Cusp):
        return x
    raise TypeError(f"expected a cusp, got {type(x)!r}")


def group_cusps(group: GroupId) -> tuple[Cusp, ...]:
    if group.kind == "gamma1":
        return (CUSP_INF,)
    return tuple(fc.rep for fc in cusp_reps(group.n))


def classify_index(group: GroupId, p: int, q: int) -> int:
    """Index of the class of (p : q) in the group_cusps ordering."""
    if group.kind == "gamma1":
        return 0
    return classify_rep_index(p, q, group.n)


def standard_rep(group: GroupId, c) -> Cusp:
    """Standard representative of the class of a cusp."""
    c = as_cusp(c)
    return group_cusps(group)[classify_index(group, c.p, c.q)]


# ---------------------------------------------------------------------------
# direct summation
# ---------------------------------------------------------------------------

def _power_terms(mod2: np.ndarray, s) -> np.ndarray:
    if isinstance(s, complex) and s.imag != 0:
        return np.exp(-s * np.log(mod2))
    return np.power(mod2, -float(complex(s).real))


def eisenstein_direct_all(group: GroupId, z: complex, s,
                          trunc: TruncationSpec = DEFAULT_TRUNCATION,
                          classes=None):
    """Raw class-bucketed sums over coprime pairs, without the width
    prefactor: the bucket of class j is the sum over (c,d) with (d:c) in
    class j of y^s / |cz+d|^(2s).

    A pair (c, d) with bottom row (c, d) of gamma_j^-1 sigma belongs to
    the class of sigma^-1(S_j) = (-d : c); the sign matters between the
    subcusps of a Fermat group even though the level-2 parity classes
    cannot see it.  classes lists the distinct group_cusps indices to
    sum, every class by default; the pairs of the other classes are
    skipped, not summed.  Returns (buckets, tail_estimate) with one
    bucket per requested class in the order given.  The tail estimate
    bounds every class.
    """
    sigma = complex(s).real
    if sigma <= 1:
        raise DivergentRegion("direct summation requires Re s > 1")
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("z must lie in the upper half plane")
    n_classes = len(group_cusps(group))
    wanted = range(n_classes) if classes is None else list(classes)
    slot = {i: pos for pos, i in enumerate(wanted)}
    if len(slot) != len(wanted) or not all(0 <= i < n_classes for i in slot):
        raise ValueError(f"classes must be distinct indices below {n_classes}")
    vals = np.zeros(len(slot), dtype=complex)
    ys = complex(y) ** s
    # the c = 0 pair (0, 1): cusp (1 : 0)
    pos = slot.get(classify_index(group, 1, 0))
    if pos is not None:
        vals[pos] += ys
    _, d_col, _, starts = _read_table(group, trunc.c_max)
    # bucket bounds of the asked-for classes, one row per c
    edges = starts[:trunc.c_max * n_classes + 1]
    los = edges[:-1].reshape(-1, n_classes)[:, list(slot)].tolist()
    his = edges[1:].reshape(-1, n_classes)[:, list(slot)].tolist()
    m_cut = trunc.c_max * (abs(x) + y + 3.0)
    for c, row_lo, row_hi in zip(range(1, trunc.c_max + 1), los, his):
        P = group.width * c
        cx = c * x
        cy2 = (c * y) ** 2
        t_lo = math.floor((-m_cut - cx) / P) - 1
        t_hi = math.ceil((m_cut - cx) / P) + 1
        t = np.arange(t_lo, t_hi + 1, dtype=np.int64) * P
        for pos, lo, hi in zip(slot.values(), row_lo, row_hi):
            if lo == hi:
                continue
            w = cx + (d_col[lo:hi][None, :] + t[:, None]).astype(float)
            keep = np.abs(w) <= m_cut
            mod2 = w * w + cy2
            terms = _power_terms(mod2, s)
            vals[pos] += ys * np.where(keep, terms, 0.0).sum()
    # omitted-d strip plus c > c_max tail
    tail_d = trunc.c_max * 2.0 * y ** sigma * m_cut ** (1 - 2 * sigma) / (2 * sigma - 1)
    tail_c = 4.0 * y ** (1 - sigma) * trunc.c_max ** (2 - 2 * sigma) / (2 * sigma - 2)
    tail_c += 2.0 * (y * trunc.c_max) ** (-2 * sigma) * y ** sigma * trunc.c_max
    return vals, tail_d + tail_c


def eisenstein_direct(group: GroupId, j, z: complex, s,
                      trunc: TruncationSpec = DEFAULT_TRUNCATION):
    """E_j(z, s) = width^(-s) * sum over the class-j coprime pairs.

    Only the class of j is summed; the tail estimate is that of
    eisenstein_direct_all, which bounds every class.
    """
    jc = as_cusp(j)
    (val,), tail = eisenstein_direct_all(group, z, s, trunc, (classify_index(group, jc.p, jc.q),))
    b = group.width
    pref = complex(b) ** (-s)
    return pref * val, abs(pref) * tail


# ---------------------------------------------------------------------------
# tables of lanes and of classes
# ---------------------------------------------------------------------------

class _Table:
    """Rows (c, d) of one key for c = 1..c_done as int32 columns sorted
    by c, and a third int32 column x.

    A lane table, keyed by a base pair, holds lanes; x is the character
    column u, filled in when a level N > 1 first asks for it.  A class
    table, keyed by its group, holds every d0 in [0, width c) coprime to
    c; x is the class index of (-d0 : c), the rows of a c are sorted by
    x and then by d0, and rows starts[i] to starts[i + 1] with
    i = (c - 1) * classes + x are the bucket of (c, x).
    """

    def __init__(self):
        self.c_done = 0
        self.c = self.d = np.empty(0, dtype=np.int32)
        self.x = None
        self.starts = np.zeros(1, dtype=np.int64)
        self.lock = threading.Lock()


# Tables of both kinds in least recently used order.  Past _TABLE_ROWS
# rows in all the oldest tables are dropped; the table just asked for
# always stays.  2^20 rows (12 MB of int32 columns) hold the 736k rows
# that verify --suite full --ns 1,2,3 reads, and the level-3 and level-2
# class tables at c_max 500 that one level-3 sum relation reads in turn
# (609k rows; a smaller bound would rebuild both on every such call).
_TABLES: OrderedDict = OrderedDict()
_TABLE_LOCK = threading.Lock()
_TABLE_ROWS = 1 << 20

# Candidates per vectorised block of the row enumeration, and lanes per
# block of the character column.  The working arrays of a block peak
# near 1 MB at this size; larger blocks raise peak memory for little
# speed.
_ENUM_BLOCK = 2048

# Exponent sums of g_b T^2 g_b^-1, the stabilizer generator of the
# level-2 base b; g_j T^2 g_j^-1 of a standard representative j has
# those of its base.
_STABILIZER_SUMS = {CUSP_ZERO: (0, -1), CUSP_ONE: (-1, 1), CUSP_INF: (1, 0)}


def _base_pair_matrix(jb: Cusp, kb: Cusp) -> Mat2Z:
    """g_bj^-1 g_bk for the level-2 bases b_j and b_k."""
    return cusp_scaling_matrix(jb).inverse() * cusp_scaling_matrix(kb)


def _enumerate_lanes(key, c_lo: int, c_hi: int) -> np.ndarray:
    """Rows of a table key for c = c_lo..c_hi as stacked int32 columns.

    Key (1, inf, inf) is the full modular group: every c, d = 0..c-1.
    Key (2, b_j, b_k) is a level-2 base pair: c and d in [0, 2c) with
    the parities of the bottom row of g_bj^-1 g_bk.  Either way a c has
    c candidates, of which those with gcd(c, d) = 1 are lanes (c, d).
    A group key is a class table, with width c candidates per c and rows
    (c, d, x) as _Table sets out.  The candidates are processed in
    blocks of about _ENUM_BLOCK, each holding whole c's.
    """
    classes = isinstance(key, GroupId)
    step, span, d0 = (1, key.width, 0) if classes else (key[0], 1, 0)
    if step * span * c_hi > np.iinfo(np.int32).max:
        raise OverflowError(f"table rows up to c = {c_hi} overflow int32")
    cs = np.arange(c_lo, c_hi + 1, dtype=np.int64)
    if step == 2:
        pt = _base_pair_matrix(key[1], key[2])
        d0, cs = pt.d & 1, cs[(cs & 1) == (pt.c & 1)]
    cols = [np.empty((3 if classes else 2, 0), dtype=np.int32)]
    block_of = (np.cumsum(span * cs) - 1) // _ENUM_BLOCK
    for blk in np.split(cs, np.flatnonzero(np.diff(block_of)) + 1):
        if blk.size == 0:
            continue
        counts = span * blk
        c = np.repeat(blk, counts)
        d = d0 + step * (np.arange(c.size) - np.repeat(np.cumsum(counts) - counts, counts))
        keep = np.gcd(d, c) == 1
        rows = [c[keep], d[keep]]
        if classes:
            x = np.zeros_like(rows[0]) if key.kind == "gamma1" else \
                classify_rep_indices(-rows[1], rows[0], key.n)
            order = np.lexsort((x, rows[0]))
            rows = [r[order] for r in (*rows, x)]
        cols.append(np.stack(rows).astype(np.int32))
    return np.concatenate(cols, axis=1)


def _character_column(key: tuple, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """u = r1 v2 - r2 v1 per lane of a level-2 base pair, as int32.

    r are the exponent sums of rho = g_bj M g_bk^-1 for the
    M = [a b; c d] in g_bj^-1 Gamma(2) g_bk, and v those of the
    stabilizer generator of b_j.  The other choices of M's top row move
    r along v, which leaves u unchanged.
    """
    _, jb, kb = key
    gj, gk = cusp_scaling_matrix(jb), cusp_scaling_matrix(kb)
    pa, pb, _, _ = ((x & 1) for x in _base_pair_matrix(jb, kb).entries())
    v1, v2 = _STABILIZER_SUMS[jb]
    e, f, g_, h = gj.entries()
    ki11, ki12, ki21, ki22 = gk.inverse().entries()
    parts = [np.empty(0, dtype=np.int64)]
    for lo in range(0, c.size, _ENUM_BLOCK):
        cb = c[lo:lo + _ENUM_BLOCK].astype(np.int64)
        db = d[lo:lo + _ENUM_BLOCK].astype(np.int64)
        # a d = 1 (mod c) with the parity of g_bj^-1 g_bk: one of a0, a0 + c
        a = mod_inverse_batch(db, cb)
        a = np.where(((a & 1) == pa) & ((((a * db - 1) // cb) & 1) == pb), a, a + cb)
        b = (a * db - 1) // cb
        m11, m12 = e * a + f * cb, e * b + f * db
        m21, m22 = g_ * a + h * cb, g_ * b + h * db
        r1, r2 = gamma2_exponent_sums_batch(m11 * ki11 + m12 * ki21, m11 * ki12 + m12 * ki22,
                                            m21 * ki11 + m22 * ki21, m21 * ki12 + m22 * ki22)
        parts.append(r1 * v2 - r2 * v1)
    u = np.concatenate(parts)
    if u.size and np.abs(u).max() > np.iinfo(np.int32).max:
        raise OverflowError("character column overflows int32")
    return u.astype(np.int32)


def _extend(key, table: _Table, c_max: int) -> None:
    """Rows c_done + 1..c_max appended to the table of key."""
    c_lo = table.c_done + 1
    c, d, *x = _enumerate_lanes(key, c_lo, c_max)
    if isinstance(key, GroupId):
        n = len(group_cusps(key))
        counts = np.bincount((c.astype(np.int64) - c_lo) * n + x[0], minlength=(c_max - c_lo + 1) * n)
        table.starts = np.concatenate((table.starts, table.starts[-1] + np.cumsum(counts)))
    elif table.x is not None:
        x = [_character_column(key, c, d)]
    cols = [c, d, *x]
    if table.c_done:
        cols = [np.concatenate(pair) for pair in zip((table.c, table.d, table.x), cols)]
    table.c, table.d, table.x = cols if x else (*cols, None)
    table.c_done = c_max


def _read_table(key, c_max: int, characters: bool = False):
    """Columns (c, d, x, starts) of the table of key, extended to c_max
    first, with the character column of a lane table filled in if
    characters is set.  Then the oldest other tables are dropped while
    the store holds more than _TABLE_ROWS rows."""
    with _TABLE_LOCK:
        table = _TABLES.setdefault(key, _Table())
        _TABLES.move_to_end(key)
    with table.lock:
        if table.c_done < c_max:
            _extend(key, table, c_max)
        if characters and table.x is None:
            table.x = _character_column(key, table.c, table.d)
        cols = table.c, table.d, table.x, table.starts
    with _TABLE_LOCK:
        total = sum(t.c.size for t in _TABLES.values())
        for other in list(_TABLES):
            if total <= _TABLE_ROWS:
                break
            if other != key:
                total -= _TABLES.pop(other).c.size
    return cols


# ---------------------------------------------------------------------------
# double-coset enumeration of Fourier coefficients
# ---------------------------------------------------------------------------

def inner_sums(group: GroupId, j, k, ms, c_max: int) -> np.ndarray:
    """Inner sums of phi_{jk,m} for each mode m in ms and c = 1..c_max,
    as a complex array of shape (len(ms), c_max).

    Entry [i, c-1] sums e(m d'/(b c)) over the admissible d' mod b c of
    the double coset, b the width and m = ms[i]; at m = 0 it counts
    them.  The level-N sums read the lanes of the base pair through the
    character u + u0 (mod N), as the module docstring sets out.  One call
    reads the lanes, shifts and filters them once for every mode; the
    modes then cost cos and sin over the lanes each.  The row of -m is
    the complex conjugate of the row of m.
    """
    ms = list(ms)
    jc, kc = standard_rep(group, j), standard_rep(group, k)
    if group.kind == "gamma1":
        key, n = (1, CUSP_INF, CUSP_INF), 1
    else:
        key, n = (2, gamma2_base(jc), gamma2_base(kc)), group.n
    c, d, u, _ = _read_table(key, c_max, n > 1)
    stop = int(np.searchsorted(c, c_max, side="right"))
    c, d = c[:stop], d[:stop]
    weight, period = 1, 1
    if n > 1:
        _, jb, kb = key
        gj, gk = cusp_scaling_matrix(jc), cusp_scaling_matrix(kc)
        hj = gamma2_exponent_sums(*(gj * cusp_scaling_matrix(jb).inverse()).entries())
        hk = gamma2_exponent_sums(*(gk * cusp_scaling_matrix(kb).inverse()).entries())
        v1, v2 = _STABILIZER_SUMS[jb]
        # int64 before any arithmetic: int32 arrays against Python or
        # numpy scalars promote differently under numpy 1.x and 2.x
        u = u[:stop].astype(np.int64) + (hj[0] - hk[0]) * v2 - (hj[1] - hk[1]) * v1
        if jb == kb:
            # the n lifts d + 2ct all survive or none do, and their phases
            # sum to n e(m d/(2nc)) when n | m and to 0 otherwise
            keep = u % n == 0
            c, d, weight, period = c[keep], d[keep], n, n
        else:
            w1, w2 = _STABILIZER_SUMS[kb]
            det_inv = pow((v1 * w2 - v2 * w1) % n, -1, n)
            d = d + 2 * c.astype(np.int64) * (u * det_inv % n)
    # lanes are sorted by c: per-c segments from their boundaries
    bounds = np.searchsorted(c, np.arange(c_max + 1), side="right")
    counts = np.diff(bounds)
    full = counts > 0
    starts = bounds[:-1][full]
    rows = np.zeros((len(ms), c_max), dtype=complex)
    if any(m and not m % period for m in ms):
        ratio = d / c
        theta = np.empty_like(ratio)

    def per_c(trig, m):
        # trig of the phases of mode m summed per c; one lane-length
        # buffer, filled anew for cos and for sin
        np.multiply(ratio, 2.0 * math.pi * m / group.width, out=theta)
        return np.add.reduceat(trig(theta, out=theta), starts)

    for row, m in zip(rows, ms):
        if m == 0:
            row[:] = weight * counts
        elif not m % period:
            sums = np.zeros(c_max, dtype=complex)
            sums[full] = per_c(np.cos, m) + 1j * per_c(np.sin, m)
            row[:] = weight * sums
    return rows


def phi_coefficient(group: GroupId, j, k, m: int, s,
                    trunc: TruncationSpec = DEFAULT_TRUNCATION,
                    tol: float | None = None) -> PhiTerm:
    """phi_{jk,m}(s) truncated at c <= c_max, with a tail estimate.

    Weights the per-c sums of inner_sums by c^(-2s).  Requires
    Re s > 1, or s = 1 with m != 0 where the bounded inner sums give
    conditional convergence.
    """
    sigma = complex(s).real
    if sigma < 1 or (sigma == 1 and m == 0):
        raise DivergentRegion("phi requires Re s > 1, or s = 1 with m != 0")
    jc = standard_rep(group, j)
    kc = standard_rep(group, k)
    rows = inner_sums(group, jc, kc, (m,), trunc.c_max)
    (total,) = _phi_sums(rows, s)
    b = group.width
    if sigma > 1:
        tail = b * trunc.c_max ** (2 - 2 * sigma) / (2 * sigma - 2)
    else:
        # bounded inner sums: geometric-free 1/c^2 tail at the observed scale
        tail = max(float(np.abs(rows).max()), float(2 * b)) / trunc.c_max
    if tol is not None and sigma > 1 and tail > tol:
        raise TruncationUnsound(f"tail estimate {tail:.3e} exceeds tolerance {tol:.3e}")
    return PhiTerm(group, jc, kc, m, complex(s), total, trunc.c_max, tail)


def _phi_sums(rows: np.ndarray, s) -> list[complex]:
    """Truncated phi of each row of inner sums: the sum over c of
    row[c-1] c^(-2s)."""
    cs = np.arange(1, rows.shape[1] + 1, dtype=float)
    weights = _power_terms(cs * cs, s)
    return [complex((row * weights).sum()) for row in rows]


def gamma2_phi0_closed_form(diag: bool, s) -> float:
    """Factored Dirichlet series of the level-2 zero modes:
    2/(2^(2s)-1) * zeta(2s-1)/zeta(2s) on the diagonal and
    (2^(2s)-2)/(2^(2s)-1) * zeta(2s-1)/zeta(2s) off it."""
    w = 2.0 * s
    num = zeta(w - 1.0) / zeta(w)
    if diag:
        return 2.0 / (2.0 ** w - 1.0) * num
    return (2.0 ** w - 2.0) / (2.0 ** w - 1.0) * num


def _divisors(m: int) -> list[int]:
    m = abs(m)
    out = []
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.append(i)
            if i != m // i:
                out.append(m // i)
        i += 1
    return sorted(out)


def gamma2_phi_m_closed_form(pair_parity: tuple[int, int], m: int, s: float) -> float:
    """Exact value of phi_{jk,m}(s) for the level-2 group, m != 0.

    pair_parity = (c, d) parities of the admissible pairs: (0, 1) for
    diagonal entries, (1, 0) and (1, 1) for the two off-diagonal types.
    Obtained by factoring the Ramanujan-sum Dirichlet series through the
    2-adic part of m.
    """
    if m == 0:
        raise ValueError("use gamma2_phi0_closed_form for m = 0")
    w = 2.0 * s
    zw = zeta(w)
    divs = _divisors(m)
    if pair_parity == (0, 1):
        d2 = sum(d ** (1.0 - w) for d in divs if d % 4 == 2)
        d4 = sum(d ** (1.0 - w) for d in divs if d % 4 == 0)
        return (-d2 / (1.0 - 2.0 ** -w) + 2.0 ** w * d4) / zw
    odd = sum(d ** (1.0 - w) for d in divs if d % 2 == 1)
    base = odd / (zw * (1.0 - 2.0 ** -w))
    if pair_parity == (1, 0):
        return base
    return base * (-1.0 if m % 2 else 1.0)


def phi_m1_exact(group: GroupId, j, k, ms,
                 trunc: TruncationSpec = DEFAULT_TRUNCATION) -> list[complex]:
    """phi_{jk,m}(1) for each m in ms, all nonzero: closed form where
    available (full modular group and level 2), else the truncated
    enumeration, every mode from one inner_sums call."""
    ms = list(ms)
    if group.kind == "gamma1":
        return [complex(sum(1.0 / d for d in _divisors(m)) / zeta(2.0)) for m in ms]
    if group == GAMMA2:
        pt = _base_pair_matrix(gamma2_base(as_cusp(j)), gamma2_base(as_cusp(k)))
        return [complex(gamma2_phi_m_closed_form((pt.c & 1, pt.d & 1), m, 1.0)) for m in ms]
    if 0 in ms:
        raise DivergentRegion("phi requires Re s > 1, or s = 1 with m != 0")
    return _phi_sums(inner_sums(group, j, k, ms, trunc.c_max), 1.0)


# ---------------------------------------------------------------------------
# Fourier assembly
# ---------------------------------------------------------------------------

def fourier_eval(group: GroupId, j, k, z: complex, s,
                 trunc: TruncationSpec = DEFAULT_TRUNCATION) -> complex:
    """E_j(gamma_k(z), s) assembled from the Fourier expansion in the
    chart of the standard representative of k.

    The modes m = 0..m_eff come from one inner_sums call, m_eff the last
    mode up to m_max whose Bessel argument 2 pi m y / b is at most 700;
    the inner sums of -m are the conjugates of those of m, so they are
    not read again.
    """
    sigma = complex(s).real
    if sigma <= 1:
        raise DivergentRegion("Fourier evaluation requires Re s > 1")
    x, y = z.real, z.imag
    jc = standard_rep(group, j)
    kc = standard_rep(group, k)
    b = group.width
    val = 0j
    if jc == kc:
        val += (complex(y) / b) ** s
    gs = gamma_fn(complex(s))
    gs_half = gamma_fn(complex(s) - 0.5)
    args = list(takewhile(lambda a: a <= 700.0,
                          (2.0 * math.pi * m * y / b for m in range(1, trunc.m_max + 1))))
    rows = inner_sums(group, jc, kc, range(len(args) + 1), trunc.c_max)
    phi0, *phi_pos = _phi_sums(rows, s)
    phi_neg = _phi_sums(rows[1:].conj(), s)
    val += math.sqrt(math.pi) * gs_half / gs * phi0 * complex(y) ** (1 - s) \
        / (complex(b) ** s * b)
    for m, (arg, pos, neg) in enumerate(zip(args, phi_pos, phi_neg), start=1):
        kb = bessel_k(complex(s) - 0.5, arg)
        coef = 2.0 * math.pi ** complex(s) * (m / b) ** (complex(s) - 0.5) / gs \
            * math.sqrt(y) * kb / (complex(b) ** s * b)
        for sign, phim in ((1, pos), (-1, neg)):
            val += coef * phim * cmath.exp(2j * math.pi * sign * m * x / b)
    return val


def fourier_limit_eval(group: GroupId, j, k, z: complex,
                       trunc: TruncationSpec = DEFAULT_TRUNCATION) -> complex:
    """4 pi * lim_(s->1) (E_j(gamma_k z, s) - 1/(vol (s-1))).

    Constant mode from the closed-form natural scattering constant, log
    term with coefficient 12/index on the 4 pi scale, oscillating modes
    pi/(b_j b_k) phi_{jk,m}(1) exp(-2 pi |m| y / b_k + 2 pi i m x / b_k),
    the phi of every mode from one phi_m1_exact call.
    """
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("z must lie in the upper half plane")
    jc = standard_rep(group, j)
    kc = standard_rep(group, k)
    ct = scattering.natural_constant(group, jc, kc)
    b = group.width
    val = 4.0 * math.pi * (ct - (3.0 / (math.pi * group.index)) * math.log(y))
    if jc == kc:
        val += 4.0 * math.pi * y / b
    m_eff = min(trunc.m_max, math.ceil(b * 40.0 / (2.0 * math.pi * y)))
    decays = list(takewhile(lambda t: t >= 1e-18,
                            (math.exp(-2.0 * math.pi * m * y / b) for m in range(1, m_eff + 1))))
    phis = phi_m1_exact(group, jc, kc, range(1, len(decays) + 1), trunc) if decays else []
    acc = 0.0
    for m, (decay, phim) in enumerate(zip(decays, phis), start=1):
        acc += 2.0 * (phim * cmath.exp(2j * math.pi * m * x / b)).real * decay
    val += 4.0 * math.pi * (math.pi / (b * b)) * acc
    return complex(val)
