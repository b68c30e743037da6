"""Numerical Eisenstein series.

Three computation paths that the verification layer plays against each
other:

* direct lattice-point summation over coprime pairs (c, d) bucketed by
  the cusp class of (d : c),
* Fourier coefficients phi_{jk,m}(s) by constructive enumeration of the
  double-coset admissible pairs, and
* the regularized value at s = 1 assembled from closed-form scattering
  constants plus the m != 0 coefficients.

Every Fermat group Gamma_N lies in the level-2 group and is normal in
PSL(2, Z).  For M in g_j^-1 Gamma_N g_k with bottom row (c, d), g_j the
scaling matrix of j, M^-1(inf) = (-d : c) is g_k^-1 gamma (j) with gamma
in Gamma_N, and g_k^-1 gamma g_k lies in Gamma_N, so (-d : c) lies in
the class of g_k^-1(j); conversely every (c, d) with (-d : c) in that
class is the bottom row of such an M.  So the lanes (c, d mod 2Nc) of
phi_{jk,m} are the rows that the direct sums sum for that class.

Those rows are level-2 rows with one integer per row: a lift d + 2cl of
(c, d) has the level-N class invariant tau - delta l, tau that of
(-d : c) unreduced and delta = class_shift(kind, 1, 0), 1 over the
bases 0 and 1 and 0 over infinity.  So a class (b, t) over 0 or 1 takes
each row of its base's parity once, lifted by l = tau - t (mod N), and a
class over infinity the rows with tau = t (mod N), lifts and all; the
inner sum of their N lifts is N e(m d/(2Nc)) when N | m and 0 otherwise,
which is what makes the same-fiber Fourier modes supported on multiples
of N.  Level N = 1, the level-2 group, reads the rows as they are.

Four sets of coprime rows thus serve every table: the full modular
group's (c, d mod c) and the three level-2 parity classes.  A row set,
its tau and the rows of each level-N class that a direct sum reads are
kept as Rows(step, d, bounds), d[bounds[c-1]:bounds[c]] the rows of c,
each standing for the residues d + step c k: a class over 0 or 1 is
Rows(2N, lifted d, its base's bounds), one over infinity Rows(2, kept d,
its own bounds).  Each is built whole for c <= c_max, read as a prefix,
and built again from c = 1 when read past its reach; the Fourier lanes
are class rows built from the kept tau on each call.  tau is
fermat.tau_column: an integer-linear map, one per coset state
(fermat.TAU_MAP), of the exponent sums and coset state that one Euclid
on the column (d, -c) of M^-1 gives, the int64 coset-word walk of the
sl2 module.  The exact-int walk, with the same round tables and map,
gives every scalar exponent sum and cusp class.  So the two sides of a
cross-path check share tau, the class rows and that one walk: an error
in a round table or in TAU_MAP moves both sides, and the tests check
that a Kronecker-limit check of the verify suite still fails on it.
The entries share one store bounded by a least-recently-used count of
int32 cells.

inner_sums reads the lanes once per call for every mode asked for, and
the row of -m is the conjugate of the row of m, so fourier_eval reads
the modes 0..m_max once.  It takes cos and sin once per lane, for the
unit phase w = e(p d/(b c)) of the mode period p, and each mode p k is
w^k by repeated multiplication, summed per c: a mode costs one complex
multiplication and one reduceat over the lanes, and w^k carries at most
15 k units of 2^-53 of rounding.  The truncated phi depend neither on
z nor on the pair within its lane class, so fourier_eval and the
enumerated s = 1 modes of phi_m1_exact take them from _phis, memoized
per (group, lane class, modes, c_max, s) in a bounded
least-recently-used cache: the 9 n^2 pairs of a level read 3 n lane
sets, a hit returns the bits that a miss computes, and only a miss
reads the lanes.  The direct sum reads, lifts or filters the rows of
each class asked for once and sums only those, eisenstein_direct its
own, in blocks of whole c's: per block one repeat of a per-c table
gives the row columns, one rectangle of translates by rows, in buffers
reused through the call, takes |c z + d + t P|^2 in five in-place
passes with d + t P exact and c x added once, and a masked reciprocal
and a dot product give the sum, with no power pass at s = 2.
"""

from __future__ import annotations

import cmath
import math
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import takewhile
from typing import NamedTuple

import numpy as np

from . import scattering
from .fermat import (
    GAMMA2,
    GroupId,
    class_shift,
    classify_rep_index,
    cusp_reps,
    gamma2_base,
    tau_column,
)
from .sl2 import CUSP_INF, Cusp, cusp_scaling_matrix, mobius_apply
from .special import bessel_k_batch, gamma_fn, zeta


class DivergentRegion(ValueError):
    """Series evaluation requested outside Re s > 1."""


@dataclass(frozen=True)
class TruncationSpec:
    c_max: int = 500
    m_max: int = 10
    order: int = 26

    def __post_init__(self):
        if self.c_max < 1 or self.m_max < 1 or self.order < 1:
            raise ValueError("truncation parameters must be >= 1")


DEFAULT_TRUNCATION = TruncationSpec()


def classify_index(group: GroupId, p: int, q: int) -> int:
    """Index of the class of (p : q) in the cusp_reps ordering, 0 in the
    full modular group."""
    if group.kind == "gamma1":
        return 0
    return classify_rep_index(p, q, group.n)


def standard_rep(group: GroupId, c: Cusp) -> Cusp:
    """Standard representative of the class of a cusp."""
    i = classify_index(group, c.p, c.q)
    return CUSP_INF if group.kind == "gamma1" else cusp_reps(group.n)[i].rep


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
    cannot see it.  classes lists the distinct classify_index values to
    sum, every class by default; the pairs of the other classes are
    skipped, not summed.  Returns (buckets, tail_estimate) with one
    bucket per requested class in the order given.  The tail estimate
    bounds every class.

    Each row (c, d), P = step c, sums the translates t with
    |c x + d + t P| <= m_cut.  Whole c's form a block while its rows times
    max(k_c, 5), k_c = floor(2 m_cut / P) + 1 of its first c, fit in the
    cells of the call's buffers: _DIRECT_BLOCK, half that for complex s.
    A block is one rectangle, translates down the leading axis, masked
    past a row's range.  Its row columns P, c x, (c y)^2, the start
    d + t_lo P of the first translate and the index of the last are 1-D
    arrays built once per block from one repeat of a per-c table; as
    there are five, the max(k_c, 5) keeps them within the cells too.  The
    rectangle and its bool mask are filled in place, with out=, in
    buffers allocated once per call, so threads summing at once share
    none; a single c past them gets its own.  t P + start is exact in
    float64 and c x is added once, after it: folding c x into the start
    first rounds at the scale of m_cut, which loses up to 4.5e-13 at
    |x| near 8.  Then w = (t P + start + c x)^2 + (c y)^2 and u = mask / w
    in place, and for real s the bucket adds u^(sigma/2) . u^(sigma/2),
    with no power pass at sigma = 2, by np.dot over _DOT_CHUNK entries at
    a time; complex s adds exp(-s log w) under the mask, in a reused
    complex buffer.
    """
    sigma = complex(s).real
    if sigma <= 1:
        raise DivergentRegion("direct summation requires Re s > 1")
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("z must lie in the upper half plane")
    n_classes = 1 if group.kind == "gamma1" else 3 * group.n
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
    m_cut = trunc.c_max * (abs(x) + y + 3.0)
    real = not (isinstance(s, complex) and s.imag != 0)
    # the row columns per c: step c (set per class), c x, (c y)^2, and
    # -m_cut - c x and m_cut - c x, which become each row's start and last
    cs = np.arange(trunc.c_max + 1.0)
    per_c = np.empty((5, cs.size))
    np.multiply(cs, x, out=per_c[1])
    np.square(cs * y, out=per_c[2])
    np.subtract(-m_cut, per_c[1], out=per_c[3])
    np.subtract(m_cut, per_c[1], out=per_c[4])
    cells = _DIRECT_BLOCK if real else _DIRECT_BLOCK // 2
    w_buf, keep_buf = np.empty(cells), np.empty(cells, dtype=bool)
    z_buf = None if real else np.empty(cells, dtype=complex)
    for i, pos in slot.items():
        step, d_col, bounds = _class_rows(group, i, trunc.c_max)
        counts = np.diff(bounds)
        np.multiply(cs, step, out=per_c[0])
        total = 0.0
        c = 1
        while c <= trunc.c_max:
            k_c = int(2 * m_cut / (step * c)) + 1
            end = max(bisect_right(bounds, bounds[c - 1] + cells // max(k_c, 5)) - 1, c)
            d = d_col[bounds[c - 1]:bounds[end]]
            cols = np.repeat(per_c[:, c:end + 1], counts[c - 1:end], axis=1)
            P, cx, cy2, start, last = cols
            span = cols[3:]
            span -= d
            span /= P
            np.ceil(start, out=start)
            np.floor(last, out=last)
            last -= start
            start *= P
            start += d
            k = int(last.max(initial=-1)) + 1
            t = np.arange(k, dtype=float)[:, None]
            shape, n = (k, d.size), k * d.size
            if n <= cells:
                w, keep = w_buf[:n].reshape(shape), keep_buf[:n].reshape(shape)
            else:
                w, keep = np.empty(shape), np.empty(shape, dtype=bool)
            np.multiply(t, P, out=w)
            w += start
            w += cx
            np.square(w, out=w)
            w += cy2
            np.less_equal(t, last, out=keep)
            if real:
                u = np.divide(keep, w, out=w).reshape(-1)
                if sigma != 2:
                    np.power(u, sigma / 2, out=u)
                for lo in range(0, n, _DOT_CHUNK):
                    part = u[lo:lo + _DOT_CHUNK]
                    total += np.dot(part, part)
            else:
                np.log(w, out=w)
                terms = np.multiply(w, -s, out=z_buf[:n].reshape(shape) if n <= cells else None)
                total += np.exp(terms, out=terms).sum(where=keep)
            c = end + 1
        vals[pos] += ys * total
    # omitted-d strip plus c > c_max tail
    tail_d = trunc.c_max * 2.0 * y ** sigma * m_cut ** (1 - 2 * sigma) / (2 * sigma - 1)
    tail_c = 4.0 * y ** (1 - sigma) * trunc.c_max ** (2 - 2 * sigma) / (2 * sigma - 2)
    tail_c += 2.0 * (y * trunc.c_max) ** (-2 * sigma) * y ** sigma * trunc.c_max
    return vals, tail_d + tail_c


def _row_key(group: GroupId, i: int) -> tuple:
    """Key of the row set of the class i of classify_index: the rows
    of its level-2 base's parity."""
    if group.kind == "gamma1":
        return _GAMMA1_ROWS
    base = gamma2_base(cusp_reps(group.n)[i].rep)
    return 2, base.q & 1, base.p & 1


def _class_rows(group: GroupId, i: int, c_max: int) -> Rows:
    """_build_class_rows as the direct sum reads them, kept at level n > 1."""
    if group.n == 1:
        return _build_class_rows(group, i, c_max)
    key = _row_key(group, i)
    return _stored(("class", group.n, i), c_max, partial(_build_class_rows, group, i),
                   (key, ("tau", key)))


def eisenstein_direct(group: GroupId, j: Cusp, z: complex, s,
                      trunc: TruncationSpec = DEFAULT_TRUNCATION):
    """E_j(z, s) = width^(-s) * sum over the class-j coprime pairs.

    Only the class of j is summed; the tail estimate is that of
    eisenstein_direct_all, which bounds every class.
    """
    (val,), tail = eisenstein_direct_all(group, z, s, trunc, (classify_index(group, j.p, j.q),))
    b = group.width
    pref = complex(b) ** (-s)
    return pref * val, abs(pref) * tail


# ---------------------------------------------------------------------------
# stored row sets
# ---------------------------------------------------------------------------

class Rows(NamedTuple):
    """Rows of c = 1..c_max, its reach: d[bounds[c-1]:bounds[c]] are the
    rows of c, each standing for the residues d + step c k; d is int32,
    bounds int64 with bounds[0] = 0.  A tau entry holds tau in d."""

    step: int
    d: np.ndarray
    bounds: np.ndarray

    def c_column(self) -> np.ndarray:
        """The c of each row, as int64."""
        return np.repeat(np.arange(1, self.bounds.size, dtype=np.int64), np.diff(self.bounds))


# The store of Rows: the four row sets, keyed (w, c0, d0), the coprime
# (c, d) with c = c0, d = d0 (mod w) and 0 <= d < w c, where (2, 0, 1),
# (2, 1, 0) and (2, 1, 1) hold the rows of the bases inf, 0 and 1; the
# tau over each, keyed ("tau", key); and the rows of each level-n class
# that a direct sum reads, keyed ("class", n, i).  3 * 2^20 int32 cells
# (12 MB) hold every row set and tau at c_max 500 (0.39M cells) with the
# class rows of levels 2 to 5 (2.05M cells in all).
_TABLES: OrderedDict = OrderedDict()
_TABLE_LOCK = threading.Lock()
_TABLE_CELLS = 3 << 20
_GAMMA1_ROWS = (1, 0, 0)

# Candidates per vectorised block of the row enumeration.  The working
# arrays of a block peak near 1 MB at this size; larger blocks raise peak
# memory for little speed.
_ENUM_BLOCK = 2048

# Lanes per block of inner_sums, in whole c's: its two complex buffers,
# the unit phase and its running power, stay near 64 kB each, below the
# full-length columns a call reads, and fit in cache.
_PHASE_BLOCK = 1 << 12
# Cells per block of the direct sum, in whole c's: a rectangle buffer of
# 256 kB and a bool mask, allocated once per call, and row columns of at
# most 256 kB more per block.  A warm sum peaks near 0.75 MB at c_max 500;
# twice the cells would pass the 1 MB bound of the tests.
_DIRECT_BLOCK = 1 << 15
# Entries per np.dot of the direct sum.  OpenBLAS splits a dot of over
# 10,000 entries across its threads: on a shared 2-vCPU host that took
# 49 us a call at 10,001 entries against 3 us at 10,000, and its rounding
# then depends on the thread count.
_DOT_CHUNK = 1 << 13
# Entries of the memoized phi sums, (group, lane class, modes, c_max, s),
# each at most 2 m_max + 1 complex numbers: well under 1 MB in all.
_PHI_CACHE = 256


class _Entry:
    """The Rows of one key of the store, None before its first build, and
    the lock of its builds."""

    def __init__(self):
        self.rows, self.lock = None, threading.Lock()

    def cells(self) -> int:
        return 0 if self.rows is None else (self.rows.d.nbytes + self.rows.bounds.nbytes) // 4


def _stored(key, c_max: int, build, keep=()) -> Rows:
    """The entry key read to c_max, as views: a prefix of its Rows, built
    whole by build(c_max) under its lock when they do not reach c_max, so
    that threads build it once.  A build puts it at the newest end; then
    the least recently used entries go while the store holds over
    _TABLE_CELLS cells, but not it or those in keep, which it read."""
    with _TABLE_LOCK:
        entry = _TABLES.setdefault(key, _Entry())
        _TABLES.move_to_end(key)
    with entry.lock:
        rows = entry.rows
        if rows is None or rows.bounds.size <= c_max:
            rows = entry.rows = build(c_max)
            with _TABLE_LOCK:
                _TABLES.setdefault(key, entry)
                _TABLES.move_to_end(key)
                total = sum(other.cells() for other in _TABLES.values())
                for other in list(_TABLES):
                    if total <= _TABLE_CELLS:
                        break
                    if other != key and other not in keep:
                        total -= _TABLES.pop(other).cells()
    return Rows(rows.step, rows.d[:rows.bounds[c_max]], rows.bounds[:c_max + 1])


def _row_set(key: tuple, c_max: int) -> Rows:
    """The rows of the row set key for c <= c_max, kept under key."""
    return _stored(key, c_max, partial(_enumerate_lanes, key))


def _tau_rows(key: tuple, c_max: int) -> Rows:
    """tau of (-d : c) over the rows of the row set key for c <= c_max,
    kept under ("tau", key) over the row set's bounds."""
    def build(c_max):
        rows = _row_set(key, c_max)
        return rows._replace(d=tau_column(rows.c_column(), rows.d))
    return _stored(("tau", key), c_max, build, (key,))


def _build_class_rows(group: GroupId, i: int, c_max: int) -> Rows:
    """Rows of the class i of classify_index for c <= c_max (module
    docstring): the row set of its base at level 1, else with
    l = tau - t (mod n), t the class invariant, each row lifted to
    d + 2 c l over the bases 0 and 1, and over infinity those with l = 0."""
    key = _row_key(group, i)
    rows = _row_set(key, c_max)
    if group.n == 1:
        return rows
    # t = -index (mod n)
    fc = cusp_reps(group.n)[i]
    lift = (_tau_rows(key, c_max).d.astype(np.int64) + fc.index) % group.n
    if class_shift(fc.kind, 1, 0):
        return Rows(group.width, _int32(rows.d + 2 * rows.c_column() * lift, fc), rows.bounds)
    kept = lift == 0
    return Rows(rows.step, rows.d[kept], np.concatenate(([0], np.cumsum(kept)))[rows.bounds])


def _enumerate_lanes(key: tuple, c_max: int) -> Rows:
    """Rows of the row set key = (w, c0, d0) for c <= c_max: the coprime
    d among the c candidates d0 + w i of each c = c0 (mod w), in blocks of
    about _ENUM_BLOCK candidates, each holding whole c's.  The gcd filter
    of a block gives the rows and the row count of each of its c's, and
    one concatenate the column."""
    step, c0, d0 = key
    if step * c_max > np.iinfo(np.int32).max:
        raise OverflowError(f"table rows up to c = {c_max} overflow int32")
    cs = np.arange(c0 or step, c_max + 1, step, dtype=np.int64)
    counts = np.zeros(c_max + 1, dtype=np.int64)
    parts = [np.empty(0, dtype=np.int32)]
    block_of = (np.cumsum(cs) - 1) // _ENUM_BLOCK
    for blk in np.split(cs, np.flatnonzero(np.diff(block_of)) + 1):
        if blk.size:
            first = np.cumsum(blk) - blk
            c = np.repeat(blk, blk)
            d = d0 + step * (np.arange(c.size) - np.repeat(first, blk))
            coprime = np.gcd(d, c) == 1
            counts[blk] = np.add.reduceat(coprime, first, dtype=np.int64)
            parts.append(d[coprime])
    return Rows(step, np.concatenate(parts, dtype=np.int32), np.cumsum(counts))


def _int32(x: np.ndarray, name) -> np.ndarray:
    if x.size and np.abs(x).max() > np.iinfo(np.int32).max:
        raise OverflowError(f"column {name} overflows int32")
    return x.astype(np.int32)


# ---------------------------------------------------------------------------
# double-coset enumeration of Fourier coefficients
# ---------------------------------------------------------------------------

def _lane_class(group: GroupId, j: Cusp, k: Cusp) -> int:
    """classify_index of the class of g_k^-1(j), whose rows are the
    lanes of phi_{jk} (module docstring)."""
    x = mobius_apply(cusp_scaling_matrix(standard_rep(group, k)).inverse(), j)
    return classify_index(group, x.p, x.q)


def inner_sums(group: GroupId, j: Cusp, k: Cusp, ms, c_max: int) -> np.ndarray:
    """Inner sums of phi_{jk,m} for each mode m in ms and c = 1..c_max,
    as a complex array of shape (len(ms), c_max).

    Entry [i, c-1] sums e(m d'/(b c)) over the admissible d' mod b c of
    the double coset, b the width and m = ms[i]; at m = 0 it counts
    them.  The lanes are the rows of the class of g_k^-1(j), as the
    module docstring sets out: _build_class_rows on each call, from the
    kept tau at level n > 1, the lanes themselves not kept.
    """
    rows = _build_class_rows(group, _lane_class(group, j, k), c_max)
    return _lane_sums(group.width, rows, list(ms))


def _lane_sums(b: int, rows: Rows, ms: list) -> np.ndarray:
    """inner_sums over the lanes (c, d') of rows, of width b.  A lane
    stands for the b / step residues d' + step c k mod b c, its weight
    and mode period p, n over infinity at level n > 1 and 1 elsewhere:
    the modes off multiples of p vanish.

    One call takes cos and sin once per lane, for the unit phase
    w = e(p d'/(b c)) with p d' reduced exactly mod b c.  Mode m = p k is
    then w^k, by repeated multiplication, summed per c with
    np.add.reduceat; the row of -m is its complex conjugate.  The lanes
    are walked in blocks of whole c's, each c rebuilt from bounds.

    Rounding, u = 2^-53: w is within 12 u of its exact value, and each of
    the k - 1 multiplications adds at most sqrt(5) u, so w^k is within
    15 k u of e(m d'/(b c)).  An entry summing L lanes with weight W is
    thus within W L (15 k + L) u of the exact sum, L^2 u of it from
    adding L terms of modulus 1.
    """
    step, d, bounds = rows
    weight = b // step
    counts = np.diff(bounds)
    out = np.zeros((len(ms), counts.size), dtype=complex)
    # the rows of each power k of the unit phase, -k conjugated
    wanted = {}
    for i, m in enumerate(ms):
        if m == 0:
            out[i] = weight * counts
        elif not m % weight:
            wanted.setdefault(abs(m) // weight, []).append((i, m < 0))
    # c - 1 of each c with lanes
    cs = np.flatnonzero(counts)
    if not wanted or not cs.size:
        return out
    starts = bounds[cs]
    # blocks of whole c's of about _PHASE_BLOCK lanes
    edges = np.flatnonzero(np.diff(starts // _PHASE_BLOCK)) + 1
    for blk in np.split(np.arange(cs.size), edges):
        lo, hi = starts[blk[0]], bounds[cs[blk[-1]] + 1]
        seg = starts[blk] - lo
        # phase p d/(b c) reduced exactly into [-1/2, 1/2)
        bc = b * np.repeat(cs[blk] + 1, counts[cs[blk]])
        r = weight * d[lo:hi].astype(np.int64) % bc
        theta = 2.0 * math.pi * (r - bc * (2 * r >= bc)) / bc
        w = np.empty(theta.size, dtype=complex)
        np.cos(theta, out=w.real)
        np.sin(theta, out=w.imag)
        power = w.copy()
        for k in range(1, max(wanted) + 1):
            if k > 1:
                power *= w
            if k in wanted:
                sums = weight * np.add.reduceat(power, seg)
                for i, neg in wanted[k]:
                    out[i, cs[blk]] = sums.conj() if neg else sums
    return out


def phi_coefficient(group: GroupId, j: Cusp, k: Cusp, m: int, s,
                    trunc: TruncationSpec = DEFAULT_TRUNCATION) -> tuple[complex, float]:
    """phi_{jk,m}(s) truncated at c <= c_max and its tail estimate, as
    (value, tail).

    Weights the per-c sums of inner_sums by c^(-2s).  Requires
    Re s > 1, or s = 1 with m != 0 where the bounded inner sums give
    conditional convergence.
    """
    sigma = complex(s).real
    if sigma < 1 or (sigma == 1 and m == 0):
        raise DivergentRegion("phi requires Re s > 1, or s = 1 with m != 0")
    rows = inner_sums(group, j, k, (m,), trunc.c_max)
    (total,) = _phi_sums(rows, s)
    b = group.width
    if sigma > 1:
        tail = b * trunc.c_max ** (2 - 2 * sigma) / (2 * sigma - 2)
    else:
        # bounded inner sums: geometric-free 1/c^2 tail at the observed scale
        tail = max(float(np.abs(rows).max()), float(2 * b)) / trunc.c_max
    return total, tail


def _phi_sums(rows: np.ndarray, s) -> list[complex]:
    """Truncated phi of each row of inner sums: the sum over c of
    row[c-1] c^(-2s)."""
    cs = np.arange(1, rows.shape[1] + 1, dtype=float)
    weights = _power_terms(cs * cs, s)
    return [complex((row * weights).sum()) for row in rows]


@lru_cache(maxsize=_PHI_CACHE)
def _phis(group: GroupId, i: int, ms: tuple, c_max: int, s) -> tuple[complex, ...]:
    """Truncated phi_{jk,m}(s) of each mode m in ms for every pair whose
    lane class _lane_class(group, j, k) is i: _phi_sums of the lane sums
    of the rows of class i, the row of -m the conjugate of that of m.
    Memoized, since phi depends neither on z nor on the pair within the
    class; a hit returns the bits that a miss computes."""
    rows = _build_class_rows(group, i, c_max)
    return tuple(_phi_sums(_lane_sums(group.width, rows, list(ms)), s))


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


def gamma2_phi_m_closed_form(pair_parity: tuple[int, int], ms, s: float) -> list[float]:
    """Exact phi_{jk,m}(s) of the level-2 group for each m in ms, all
    nonzero, with zeta(2s) taken once.

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
        divs = _divisors(m)
        if pair_parity == (0, 1):
            d2 = sum(d ** (1.0 - w) for d in divs if d % 4 == 2)
            d4 = sum(d ** (1.0 - w) for d in divs if d % 4 == 0)
            return (-d2 / (1.0 - 2.0 ** -w) + 2.0 ** w * d4) / zw
        base = sum(d ** (1.0 - w) for d in divs if d % 2 == 1) / (zw * (1.0 - 2.0 ** -w))
        return -base if pair_parity == (1, 1) and m % 2 else base
    return [phi(m) for m in ms]


def phi_m1_exact(group: GroupId, j: Cusp, k: Cusp, ms,
                 trunc: TruncationSpec = DEFAULT_TRUNCATION) -> list[complex]:
    """phi_{jk,m}(1) for each m in ms, all nonzero: closed form where
    available (full modular group and level 2, zeta(2) taken once per
    call), else the truncated enumeration, every mode from one lane read,
    memoized by _phis per (group, lane class, modes, c_max); a hit is
    bit-identical to a miss."""
    ms = list(ms)
    if group.kind == "gamma1":
        z2 = zeta(2.0)
        return [complex(sum(1.0 / d for d in _divisors(m)) / z2) for m in ms]
    i = _lane_class(group, j, k)
    if group == GAMMA2:
        _, pc, pd = _row_key(group, i)
        return [complex(phi) for phi in gamma2_phi_m_closed_form((pc, pd), ms, 1.0)]
    if 0 in ms:
        raise DivergentRegion("phi requires Re s > 1, or s = 1 with m != 0")
    return list(_phis(group, i, tuple(ms), trunc.c_max, 1.0))


# ---------------------------------------------------------------------------
# Fourier assembly
# ---------------------------------------------------------------------------

def fourier_eval(group: GroupId, j: Cusp, k: Cusp, z: complex, s,
                 trunc: TruncationSpec = DEFAULT_TRUNCATION) -> complex:
    """E_j(gamma_k(z), s) assembled from the Fourier expansion in the
    chart of the standard representative of k.

    The group is normal in PSL(2, Z), so j ~ k exactly when g_k^-1(j) ~
    inf: the delta term comes from the lane class.  The phi of the modes
    m = 0..m_max come from one lane read of that class; the inner sums
    of -m are the conjugates of those of m, so they are not read again.
    The Bessel K of the modes 1..m_max come from one bessel_k_batch
    call, which gives zero past the argument 700.  The phi do not depend
    on z or on the pair within the class: _phis memoizes them per
    (group, lane class, modes, c_max, s), so a call at a new z, or on
    another pair of a class already read, does no lane work, and a hit
    is bit-identical to a miss.
    """
    sigma = complex(s).real
    if sigma <= 1:
        raise DivergentRegion("Fourier evaluation requires Re s > 1")
    x, y = z.real, z.imag
    i = _lane_class(group, j, k)
    b = group.width
    val = 0j
    if i == classify_index(group, 1, 0):
        val += (complex(y) / b) ** s
    gs = gamma_fn(complex(s))
    gs_half = gamma_fn(complex(s) - 0.5)
    ms = range(1, trunc.m_max + 1)
    phi0, *phis = _phis(group, i, (0, *ms, *(-m for m in ms)), trunc.c_max, s)
    val += math.sqrt(math.pi) * gs_half / gs * phi0 * complex(y) ** (1 - s) \
        / (complex(b) ** s * b)
    kbs = bessel_k_batch(complex(s) - 0.5, [2.0 * math.pi * m * y / b for m in ms]).tolist()
    for m, kb, pos, neg in zip(ms, kbs, phis[:len(ms)], phis[len(ms):]):
        coef = 2.0 * math.pi ** complex(s) * (m / b) ** (complex(s) - 0.5) / gs \
            * math.sqrt(y) * kb / (complex(b) ** s * b)
        for sign, phim in ((1, pos), (-1, neg)):
            val += coef * phim * cmath.exp(2j * math.pi * sign * m * x / b)
    return val


def fourier_limit_eval(group: GroupId, j: Cusp, k: Cusp, z: complex,
                       trunc: TruncationSpec = DEFAULT_TRUNCATION) -> complex:
    """4 pi * lim_(s->1) (E_j(gamma_k z, s) - 1/(vol (s-1))).

    Constant mode from the closed-form natural scattering constant, log
    term with coefficient 12/index on the 4 pi scale, oscillating modes
    pi/(b_j b_k) phi_{jk,m}(1) exp(-2 pi |m| y / b_k + 2 pi i m x / b_k)
    for m = 1..m_max up to the last whose decay is at least 1e-18.  The
    phi of the modes 1..m_max come from one phi_m1_exact call, whatever
    the cut, so a lane class takes one _phis key at every height.
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
    decays = list(takewhile(lambda t: t >= 1e-18, (math.exp(-2.0 * math.pi * m * y / b)
                                                   for m in range(1, trunc.m_max + 1))))
    phis = phi_m1_exact(group, jc, kc, range(1, trunc.m_max + 1), trunc) if decays else []
    acc = 0.0
    for m, (decay, phim) in enumerate(zip(decays, phis), start=1):
        acc += 2.0 * (phim * cmath.exp(2j * math.pi * m * x / b)).real * decay
    val += 4.0 * math.pi * (math.pi / (b * b)) * acc
    return complex(val)
