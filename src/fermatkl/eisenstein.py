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

A lane read takes every mode asked for at once, and the row of -m is
the conjugate of the row of m.  It takes cos and sin once per lane, for
the unit phase w = e(p d/(b c)) of the mode period p, and each mode p k
is w^k by repeated multiplication, summed per c: a mode costs one
complex multiplication and one reduceat over the lanes, and w^k carries
at most 15 k units of 2^-53 of rounding.  The truncated phi depend
neither on z nor on the pair within its lane class, so every reader of
them, fourier_eval, phi_coefficient and fourier_limit_eval past level
1, takes them from _phis: the modes -M..M of one lane read, memoized
per (group, lane class, mode bound M, c_max, s) in a bounded
least-recently-used cache.  A class (b, t) over 0 or 1 at level n > 1
lifts its rows by l = tau - t, so its phases are those of the index-0
class of its base times zeta^index and its phi_m are theirs times
zeta^(m index): its entry reads that class's entry, not lanes of its
own.  So the 9 n^2 pairs of a level read n + 2 lane sets, a hit returns
the bits that a miss computes, and only a miss reads the lanes;
inner_sums is the per-c view of the lifted rows, the oracle of the
twisted phi.  The direct sum reads, lifts or filters the rows of each
class asked for once and sums only those, eisenstein_direct its own, in
one walk of the row blocks of the lane reads: a kernel sums the translates
d + t P of each row, one reduceat each c and one dot the c's.  At real
s = 2 the kernel takes every t in Z in closed form, one sin per row.
It shares the class rows with the Fourier side and nothing else, no
phase, Bessel K or phi, so the cross path still plays two independent
computations.  At every other s it takes the translates in the
truncation box, as one rectangle per block with d + t P exact and c x
added once, a power and a masked sum.

What z does not change is kept once, each keyed by what it depends on.
The store entry of a class's rows keeps the plan of its direct sum at
real s = 2, the row blocks and 1/P and P^-4 of each c, counted in the
store's cells, and goes with its rows, by a build, eviction or a store
reset; _phis keeps phi alone.  Four bounded memos hold what no table
changes, so they outlive a store reset: the scaling matrix of each cusp
(_scaling) and the pullback g^-1(j) of each pair, keyed by cusps (the
classes read from them are classify_rep_index's, memoized and cleared
there); the Gamma, pi^s, b^s and (m/b)^(s - 1/2) factors of
fourier_eval, keyed (width, m_max, s); and the exact phi_m(1) at level
1, laid out as _phis lays them out and keyed (row set, M), one divisor
sieve each.  Nothing is kept per row.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import scattering
from .fermat import (
    GroupId,
    class_shift,
    classify_rep_index,
    cusp_reps,
    gamma2_base,
    tau_column,
)
from .qseries import zeta_power
from .sl2 import CUSP_INF, Cusp, Mat2Z, cusp_scaling_matrix, mobius_apply
from .special import bessel_k_batch, gamma_fn


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


# Scaling matrices and pullbacks of cusps that stay memoized, each keyed
# by cusps alone: they depend on no table, and the classes read from them
# are classify_rep_index's, memoized and cleared there.
_GEOMETRY_CACHE = 1024

_scaling = lru_cache(maxsize=_GEOMETRY_CACHE)(cusp_scaling_matrix)


@lru_cache(maxsize=_GEOMETRY_CACHE)
def pullback(rep: Cusp, j: Cusp) -> Cusp:
    """g^-1(j), g the scaling matrix of rep: with rep the standard
    representative of k, its class is the lane class of the pair j, k."""
    return mobius_apply(_scaling(rep).inverse(), j)


def chart(group: GroupId, k: Cusp) -> Mat2Z:
    """The scaling matrix of the standard representative of the class of
    k, whose chart fourier_eval assembles in."""
    return _scaling(standard_rep(group, k))


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

    The rows (c, d) of a class, P = step c, are walked in the blocks of
    _row_blocks, and a kernel gives each row the sum over its translates
    d + t P.  At real s = 2 that is every t in Z, in closed form
    (_closed_form_rows), so the estimate is the c > c_max tail alone.  At
    every other s it is the t with |c x + d + t P| <= m_cut (_window_rows),
    and the estimate adds the strip past m_cut.  np.add.reduceat sums the
    rows of each c, and np.dot over _DOT_CHUNK entries at a time weights
    the c's: by P^-4 at s = 2, by 1 elsewhere.  At s = 2 the blocks, 1/P
    and P^-4 of a class are its plan, kept with its rows
    (_closed_form_plan).  The sums are taken at x
    reduced by the width b, as E_j(z + b) = E_j(z), so a large x costs
    nothing.
    """
    sigma = complex(s).real
    if sigma <= 1:
        raise DivergentRegion("direct summation requires Re s > 1")
    x, y = math.remainder(z.real, group.width), z.imag
    z = complex(x, y)
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
    real = not (isinstance(s, complex) and s.imag != 0)
    closed = real and sigma == 2
    # the c > c_max tail
    tail_c = 4.0 * y ** (1 - sigma) * trunc.c_max ** (2 - 2 * sigma) / (2 * sigma - 2)
    tail_c += 2.0 * (y * trunc.c_max) ** (-2 * sigma) * y ** sigma * trunc.c_max
    m_cut = trunc.c_max * (abs(x) + y + 3.0)
    for i, pos in slot.items():
        (step, d, bounds), entry = _class_rows(group, i, trunc.c_max)
        if closed:
            blocks, inverse, weights = _closed_form_plan(entry, step, bounds)
            kernel = partial(_closed_form_rows, inverse, math.remainder(x, step) / step,
                             _translate_coefficients(y / step))
        else:
            # at most floor(2 m_cut / P) + 1 translates a row, a complex
            # one taking two cells
            cs = np.arange(1.0, trunc.c_max + 1)
            kernel = partial(_window_rows, step, z, s, m_cut)
            blocks = _row_blocks(bounds, (2 * m_cut // (step * cs) + 1) * (1 if real else 2))
            weights = np.ones(cs.size)
        per_c = np.zeros(trunc.c_max, dtype=float if real else complex)
        for blk, lo, hi, seg, lens in blocks:
            per_c[blk] = np.add.reduceat(kernel(d[lo:hi], blk, lens), seg)
        vals[pos] += ys * sum(np.dot(per_c[lo:lo + _DOT_CHUNK], weights[lo:lo + _DOT_CHUNK]).item()
                              for lo in range(0, trunc.c_max, _DOT_CHUNK))
    # the omitted-d strip
    tail_d = trunc.c_max * 2.0 * y ** sigma * m_cut ** (1 - 2 * sigma) / (2 * sigma - 1)
    return vals, tail_c if closed else tail_d + tail_c


def _closed_form_rows(inverse: np.ndarray, shift: float, coefficients, d: np.ndarray,
                      cs: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum over every t in Z of |c z + d + t P|^-4 P^4, P = step c, for
    the rows (c, d) of the c's cs + 1, lens rows each, inverse[c - 1] =
    1/P: _translate_sums(sin(pi alpha)^2, beta), alpha = (c x + d)/P and
    beta = y/step.  alpha is taken as d/P + shift, shift = x'/step with x'
    the remainder of x mod step, which is exact, less its nearest integer,
    which is exact too: sin(pi alpha)^2 sees neither integer, and at |x|
    near 8 this halves the rounding of pi alpha near a pole."""
    alpha = d * np.repeat(inverse[cs], lens)
    alpha += shift
    alpha -= np.rint(alpha)
    alpha *= math.pi
    sin2 = np.square(np.sin(alpha, out=alpha), out=alpha)
    return _translate_sums(sin2, coefficients)


def _window_rows(step: int, z: complex, s, m_cut: float, d: np.ndarray,
                 cs: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum over the t with |c x + d + t P| <= m_cut of |c z + d + t P|^-2s,
    P = step c, for the rows (c, d) of the c's cs + 1, lens rows each, in
    one rectangle: line t holds t P + start, start = d + t_lo P with
    t_lo = ceil((-m_cut - c x - d)/P), masked past t_hi =
    floor((m_cut - c x - d)/P).  t P + start is exact in float64 and c x
    is added once, after it: folding c x into the start first rounds at
    the scale of m_cut, which loses up to 4.5e-13 at |x| near 8."""
    x, y = z.real, z.imag
    c = np.repeat(cs + 1.0, lens)
    period, cx = step * c, c * x
    lo = np.ceil((-m_cut - cx - d) / period)
    last = np.floor((m_cut - cx - d) / period) - lo
    start = lo * period + d
    t = np.arange(last.max(initial=-1) + 1)[:, None]
    w = t * period
    w += start
    w += cx
    np.square(w, out=w)
    w += np.square(c * y)
    if isinstance(s, complex) and s.imag != 0:
        terms = np.multiply(np.log(w, out=w), -s)
        np.exp(terms, out=terms)
    else:
        terms = np.power(w, -complex(s).real, out=w)
    return terms.sum(axis=0, where=t <= last)


def _translate_coefficients(beta: float) -> tuple[float, float, float, float]:
    """(f, g, e, a2) with sum over t in Z of ((alpha + t)^2 + beta^2)^-2
    equal to (f + g sin2)/(a2 + e sin2)^2, sin2 = sin(pi alpha)^2.

    The sum is -(1/2 beta) d/dbeta of (pi/beta) sinh u/(cosh u - cos 2 pi
    alpha), u = 2 pi beta.  In q = e^-u, a = 1 - q and E = a^2 + 4 q sin2,
    which neither overflow at large beta nor cancel near a pole (alpha an
    integer), it is [A - B (2 (1 + q^2) sin2 - a^2)/E]/E, with
    A = pi (1 - q^2)/(2 beta^3) and B = 2 pi^2 q/beta^2: f = a^2 (A + B),
    e = 4 q, a2 = a^2 and g = 4 q A - 2 (1 + q^2) B.  At small beta A and
    B are near 2 pi^2/beta^2 and cancel at alpha = 1/2 (8e-13 of the sum
    at beta = 0.01) in that form; here they do not meet, as
    g = -2 pi q w/beta^3 with w = u (1 + q^2) - (1 - q^2) >= 0, which is
    2 q (u cosh u - sinh u), taken from the series of u cosh u - sinh u
    below u = 1.  g sin2 is at most 2/3 of f, so nothing cancels."""
    u = 2.0 * math.pi * beta
    q, a = math.exp(-u), -math.expm1(-u)
    if u < 1:
        w = 2 * q * sum(2 * k * u ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(1, 11))
    else:
        w = u * (1 + q * q) - a * (1 + q)
    f = a * a * math.pi * (a * (1 + q) / (2 * beta ** 3) + 2 * math.pi * q / beta ** 2)
    return f, -2 * math.pi * q * w / beta ** 3, 4 * q, a * a


def _translate_sums(sin2: np.ndarray, coefficients) -> np.ndarray:
    """(f + g sin2)/(a2 + e sin2)^2 for the _translate_coefficients
    (f, g, e, a2) of beta and each entry of sin2, which it overwrites:
    the sum over t in Z of ((alpha + t)^2 + beta^2)^-2."""
    f, g, e, a2 = coefficients
    num = np.multiply(sin2, g)
    num += f
    sin2 *= e
    sin2 += a2
    np.square(sin2, out=sin2)
    return np.divide(num, sin2, out=num)


def _row_key(group: GroupId, i: int) -> tuple:
    """Key of the row set of the class i of classify_index: the rows
    of its level-2 base's parity."""
    if group.kind == "gamma1":
        return _GAMMA1_ROWS
    base = gamma2_base(cusp_reps(group.n)[i].rep)
    return 2, base.q & 1, base.p & 1


def _class_rows(group: GroupId, i: int, c_max: int) -> tuple[Rows, _Entry]:
    """_build_class_rows as the direct sum reads them, and the entry of the
    store that keeps them: the row set of the base at level 1,
    ("class", n, i) at level n > 1."""
    key = _row_key(group, i)
    if group.n == 1:
        return _stored(key, c_max, partial(_enumerate_lanes, key))
    return _stored(("class", group.n, i), c_max, partial(_build_class_rows, group, i),
                   (key, ("tau", key)))


def _closed_form_plan(entry: _Entry, step: int, bounds: np.ndarray) -> _Plan:
    """The plan of the direct sum at real s = 2 over the rows of entry
    read to c_max = bounds.size - 1, P = step c: the blocks of
    _row_blocks(bounds), 1/P and P^-4 of each c.  None of them depends on
    z, so the entry keeps the plan of the last c_max read, and a build of
    its rows drops it; its per-c arrays count in the store's cells."""
    with _TABLE_LOCK:
        plan = entry.plan
        if plan is None or plan.weights.size != bounds.size - 1:
            cs = np.arange(1.0, bounds.size)
            plan = entry.plan = _Plan(tuple(_row_blocks(bounds)), 1 / (step * cs), (step * cs) ** -4)
            _evict(entry)
    return plan


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
# class rows of levels 2 to 5 and their s = 2 plans (2.20M cells in all).
_TABLES: OrderedDict = OrderedDict()
_TABLE_LOCK = threading.RLock()
_TABLE_CELLS = 3 << 20
_GAMMA1_ROWS = (1, 0, 0)

# Candidates per vectorised block of the row enumeration.  The working
# arrays of a block peak near 1 MB at this size; larger blocks raise peak
# memory for little speed.
_ENUM_BLOCK = 2048

# Rows per block of _row_blocks, in whole c's, as it walks the lanes of
# inner_sums and the rows of the direct sum at s = 2: the two complex
# buffers of a lane read, the unit phase and its running power, stay near
# 64 kB each, below the full-length columns a call reads, and fit in
# cache, and the float columns of a direct sum near 32 kB each.
_PHASE_BLOCK = 1 << 12
# Cells per block of _row_blocks, in whole c's, as it walks the rows of
# the direct sum's translate window at every s but real s = 2, a complex
# cell counting two: a float rectangle of 256 kB and its bool mask, or at
# complex s one of 128 kB and a complex one of 256 kB.  A warm sum peaks
# near 0.8 MB at c_max 500; twice the cells would pass the 1 MB bound of
# the tests.
_DIRECT_BLOCK = 1 << 15
# Entries per np.dot of the direct sum, the one that weights its c's.
# OpenBLAS splits a dot of over 10,000 entries across its threads: on a
# shared 2-vCPU host that took 49 us a call at 10,001 entries against
# 3 us at 10,000, and its rounding then depends on the thread count.
_DOT_CHUNK = 1 << 13
# Entries of the memoized phi, keyed (group, lane class, mode bound M,
# c_max, s), and of the exact phi(1) at level 1, keyed (row set, M), each
# 2 M + 1 numbers, and of fourier_eval's factors, keyed (width, M, s),
# each M + 3: well under 1 MB in all at M = 10.
_PHI_CACHE = 256


class _Plan(NamedTuple):
    """The walk of a class's rows by the direct sum at real s = 2 to one
    c_max: the blocks of _row_blocks, and 1/P and P^-4 of each c,
    P = step c (_closed_form_plan)."""

    blocks: tuple
    inverse: np.ndarray
    weights: np.ndarray


class _Entry:
    """The Rows of one key of the store, None before its first build, the
    keys of the entries that its build reads, and the _Plan of a direct
    sum over its rows, None until one is read and after each build."""

    def __init__(self, keep=()):
        self.rows, self.plan, self.keep = None, None, keep

    def cells(self) -> int:
        """int32 cells of the rows and bounds, and of the plan's blocks
        (cs, seg and lens of each), 1/P and P^-4."""
        arrays = [] if self.rows is None else [self.rows.d, self.rows.bounds]
        if self.plan is not None:
            arrays += [self.plan.inverse, self.plan.weights,
                       *(a for cs, _, _, seg, lens in self.plan.blocks for a in (cs, seg, lens))]
        return sum(a.nbytes for a in arrays) // 4


def _stored(key, c_max: int, build, keep=()) -> tuple[Rows, _Entry]:
    """The entry key read to c_max, as views: a prefix of its Rows, built
    whole by build(c_max) when they do not reach c_max; and the entry.
    The store's lock is held across the lookup, the build and the
    eviction, so threads build an entry once.  A build, whose own reads
    may evict the entry, puts it back at the newest end and drops the
    least recently used entries (_evict), but not it or those in keep,
    which it reads."""
    with _TABLE_LOCK:
        entry = _TABLES.setdefault(key, _Entry(keep))
        _TABLES.move_to_end(key)
        rows = entry.rows
        if rows is None or rows.bounds.size <= c_max:
            rows = entry.rows = build(c_max)
            entry.plan = None
            _TABLES[key] = entry
            _TABLES.move_to_end(key)
            _evict(entry)
    return Rows(rows.step, rows.d[:rows.bounds[c_max]], rows.bounds[:c_max + 1]), entry


def _evict(held: _Entry):
    """Drop the least recently used entries while the store holds over
    _TABLE_CELLS cells, but not held or the entries that its build reads;
    the caller holds _TABLE_LOCK."""
    total = sum(other.cells() for other in _TABLES.values())
    for key, other in list(_TABLES.items()):
        if total <= _TABLE_CELLS:
            break
        if other is not held and key not in held.keep:
            total -= _TABLES.pop(key).cells()


def _row_set(key: tuple, c_max: int) -> Rows:
    """The rows of the row set key for c <= c_max, kept under key."""
    return _stored(key, c_max, partial(_enumerate_lanes, key))[0]


def _tau_rows(key: tuple, c_max: int) -> Rows:
    """tau of (-d : c) over the rows of the row set key for c <= c_max,
    kept under ("tau", key) over the row set's bounds."""
    def build(c_max):
        rows = _row_set(key, c_max)
        return rows._replace(d=tau_column(rows.c_column(), rows.d))
    return _stored(("tau", key), c_max, build, (key,))[0]


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
    x = pullback(standard_rep(group, k), j)
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
    are walked in the blocks of _row_blocks.

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
    if not wanted:
        return out
    for cs, lo, hi, seg, lens in _row_blocks(bounds):
        # phase p d/(b c) reduced exactly into [-1/2, 1/2)
        bc = np.repeat(b * (cs + 1), lens)
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
                    out[i, cs] = sums.conj() if neg else sums
    return out


def _row_blocks(bounds: np.ndarray, widths=None):
    """The rows of bounds in blocks of whole c's, skipping the c's without
    rows: per block (cs, lo, hi, seg, lens), its rows lo:hi, cs the c - 1
    of its c's, seg the offset in lo:hi of each one's first row and lens
    their row counts.  A block takes at least its first c and every c
    whose first row lies below the next multiple of _PHASE_BLOCK or,
    given widths[c - 1] cells per row of each c, within _DIRECT_BLOCK
    cells at its first c's width."""
    counts = np.diff(bounds)
    cs = np.flatnonzero(counts)
    starts = bounds[cs]
    i = 0
    while i < cs.size:
        first = starts[i]
        if widths is None:
            end = first - first % _PHASE_BLOCK + _PHASE_BLOCK
        else:
            end = first + _DIRECT_BLOCK // widths[cs[i]]
        blk = cs[i:max(int(np.searchsorted(starts, end)), i + 1)]
        yield blk, first, bounds[blk[-1] + 1], starts[i:i + blk.size] - first, counts[blk]
        i += blk.size


def phi_coefficient(group: GroupId, j: Cusp, k: Cusp, m: int, s,
                    trunc: TruncationSpec = DEFAULT_TRUNCATION) -> tuple[complex, float]:
    """phi_{jk,m}(s) truncated at c <= c_max and its tail estimate, as
    (value, tail): mode m of the _phis entry of the lane class at the
    mode bound max(m_max, |m|).  Requires Re s > 1, or s = 1 with m != 0
    where the bounded inner sums give conditional convergence; no bound
    on that tail is known, so it is inf.
    """
    sigma = complex(s).real
    if sigma < 1 or (sigma == 1 and m == 0):
        raise DivergentRegion("phi requires Re s > 1, or s = 1 with m != 0")
    phi = complex(_phis(group, _lane_class(group, j, k), max(trunc.m_max, abs(m)), trunc.c_max, s)[m])
    if sigma == 1:
        return phi, math.inf
    return phi, group.width * trunc.c_max ** (2 - 2 * sigma) / (2 * sigma - 2)


@lru_cache(maxsize=_PHI_CACHE)
def _phis(group: GroupId, i: int, m_max: int, c_max: int, s) -> np.ndarray:
    """Truncated phi_{jk,m}(s), the sum over c <= c_max of the inner sums
    times c^(-2s), of the modes 0..m_max and then -m_max..-1 as one
    complex array, so entry m is mode m for every |m| <= m_max, for every
    pair whose lane class _lane_class(group, j, k) is i.  One lane read of
    the rows of class i gives every mode, the row of -m the conjugate of
    that of m.  A class over 0 or 1 at level n > 1 lifts each row of its
    base by l = tau + index (mod n), and the index-0 class by l = tau, so
    its phases are those of the index-0 class times zeta^index,
    zeta = e(1/n): its phi_m are those of the index-0 class times
    zeta^(m index), which it reads from that class's entry, no lanes of
    its own; mode 0 keeps its bits.
    Memoized, since phi depends neither on z nor on the pair within the
    class; a hit returns the bits that a miss computes."""
    modes = [*range(m_max + 1), *range(-m_max, 0)]
    fc = cusp_reps(group.n)[i] if group.n > 1 else None
    if fc is not None and fc.index and class_shift(fc.kind, 1, 0):
        # the index-0 class comes first in its base's block of cusp_reps
        base = _phis(group, i - i % group.n, m_max, c_max, s)
        return base * np.array([zeta_power(group.n, m * fc.index) for m in modes])
    rows = _build_class_rows(group, i, c_max)
    cs = np.arange(1, c_max + 1, dtype=float)
    weights = _power_terms(cs * cs, s)
    return np.array([complex((row * weights).sum()) for row in _lane_sums(group.width, rows, modes)])


@lru_cache(maxsize=_PHI_CACHE)
def _fourier_factors(b: int, m_max: int, s) -> tuple:
    """The factors of fourier_eval that z does not change, for the width
    b: sqrt(pi) Gamma(s - 1/2)/Gamma(s), (m/b)^(s - 1/2) of the modes
    1..m_max, 2 pi^s/Gamma(s) and b^s b, each a product taken left to
    right as fourier_eval's formula reads it.  Memoized, bounded as _phis
    is."""
    sc = complex(s)
    gs = gamma_fn(sc)
    return (math.sqrt(math.pi) * gamma_fn(sc - 0.5) / gs,
            np.power(np.arange(1, m_max + 1) / b, sc - 0.5),
            2.0 * math.pi ** sc / gs, complex(b) ** s * b)


@lru_cache(maxsize=_PHI_CACHE)
def _closed_phi_m1(key: tuple, m_max: int) -> np.ndarray:
    """Exact phi_m(1) at level 1, laid out as _phis lays out its modes,
    for a lane class whose rows are the row set key: sigma_-1(m)/zeta(2)
    for the full modular group, and for level 2 the Ramanujan-sum
    Dirichlet series factored through the 2-adic part of m, the pairs of
    (c, d) parities (0, 1) on the diagonal, (1, 0) and (1, 1) off it.
    Mode 0 diverges at s = 1 and is nan.  A sieve adds 1/d to every
    multiple of d, in ascending d, once for each class of d: odd,
    2 (mod 4), 0 (mod 4) and all d.  zeta(2) is pi^2/6."""
    zeta2 = math.pi ** 2 / 6
    sums = np.zeros((4, m_max + 1))
    sums[:, 0] = math.nan
    for d in range(1, m_max + 1):
        sums[[(d % 2 == 0) + (d % 4 == 0), 3], d::d] += 1.0 / d
    odd, d2, d4, every = sums
    if key == _GAMMA1_ROWS:
        phi = every / zeta2
    elif key == (2, 0, 1):
        phi = (-d2 / 0.75 + 4.0 * d4) / zeta2
    else:
        phi = odd / (zeta2 * 0.75)
        if key == (2, 1, 1):
            phi[1::2] *= -1
    return np.concatenate((phi, phi[:0:-1]))


# ---------------------------------------------------------------------------
# Fourier assembly
# ---------------------------------------------------------------------------

def _phases(x: float, b: int, count: int) -> np.ndarray:
    """e(m x / b) for the modes m = 1..count."""
    return np.exp((2j * math.pi * x / b) * np.arange(1, count + 1))


def fourier_eval(group: GroupId, j: Cusp, k: Cusp, z: complex, s,
                 trunc: TruncationSpec = DEFAULT_TRUNCATION) -> complex:
    """E_j(gamma_k(z), s) assembled from the Fourier expansion in the
    chart of the standard representative of k.

    The group is normal in PSL(2, Z), so j ~ k exactly when g_k^-1(j) ~
    inf: the delta term comes from the lane class.  The phi of the modes
    -m_max..m_max come from one lane read of that class; the inner sums
    of -m are the conjugates of those of m, so they are not read again.
    The phi do not depend on z or on the pair within the class: _phis
    memoizes them per (group, lane class, m_max, c_max, s), so a call at
    a new z, or on another pair of a class already read, does no lane
    work, and a hit is bit-identical to a miss.  The Gamma, pi^s, b^s and
    (m/b)^(s-1/2) factors, which z does not change either, come from
    _fourier_factors, so a call takes only the y and x factors.  The modes
    1..m_max are numpy arrays: their Bessel K from one bessel_k_batch
    call, which gives zero past the argument 700, and the phases
    e(m x / b) at x reduced by the width b.  One np.dot sums the modes,
    against phi_m e(m x / b) + phi_-m conj(e(m x / b)).
    """
    sigma = complex(s).real
    if sigma <= 1:
        raise DivergentRegion("Fourier evaluation requires Re s > 1")
    x, y = math.remainder(z.real, group.width), z.imag
    i = _lane_class(group, j, k)
    b = group.width
    val = 0j
    if i == classify_index(group, 1, 0):
        val += (complex(y) / b) ** s
    m_max = trunc.m_max
    phi = _phis(group, i, m_max, trunc.c_max, s)
    ratio, powers, scale, norm = _fourier_factors(b, m_max, s)
    val += ratio * phi[0] * complex(y) ** (1 - s) / norm
    coef = powers * bessel_k_batch(complex(s) - 0.5, (2.0 * math.pi * y / b) * np.arange(1, m_max + 1))
    phase = _phases(x, b, m_max)
    # phi holds the modes 0..m_max, then -m_max..-1
    terms = phi[1:m_max + 1] * phase + phi[:m_max:-1] * phase.conj()
    return val + scale * math.sqrt(y) / norm * np.dot(coef, terms).item()


def fourier_limit_eval(group: GroupId, j: Cusp, k: Cusp, z: complex,
                       trunc: TruncationSpec = DEFAULT_TRUNCATION) -> complex:
    """4 pi * lim_(s->1) (E_j(gamma_k z, s) - 1/(vol (s-1))).

    Read from the lane g_k^-1(j), as fourier_eval reads it: constant mode
    from the closed-form natural scattering constant of the lane and inf,
    log term with coefficient 12/index on the 4 pi scale, the delta term
    when the lane's class is that of inf, and oscillating modes
    pi/(b_j b_k) phi_{jk,m}(1) exp(-2 pi |m| y / b_k + 2 pi i m x / b_k)
    for m = 1..m_max up to the last whose decay is at least 1e-18.  Their
    phi are a slice of one array of the lane class at the mode bound
    m_max, whatever the cut: _closed_phi_m1 at level 1, else _phis at
    s = 1.  The modes kept are numpy arrays, the phases e(m x / b) at x
    reduced by the width b, summed in one np.dot.
    """
    x, y = math.remainder(z.real, group.width), z.imag
    if y <= 0:
        raise ValueError("z must lie in the upper half plane")
    lane = pullback(standard_rep(group, k), j)
    i = classify_index(group, lane.p, lane.q)
    b = group.width
    val = 4.0 * math.pi * (scattering.natural_constant(group, lane, CUSP_INF)
                           - (3.0 / (math.pi * group.index)) * math.log(y))
    if i == classify_index(group, 1, 0):
        val += 4.0 * math.pi * y / b
    decays = np.exp((-2.0 * math.pi * y / b) * np.arange(1, trunc.m_max + 1))
    kept = int(np.count_nonzero(decays >= 1e-18))
    if kept:
        phi = (_closed_phi_m1(_row_key(group, i), trunc.m_max) if group.n == 1
               else _phis(group, i, trunc.m_max, trunc.c_max, 1.0))
        acc = np.dot((phi[1:kept + 1] * _phases(x, b, kept)).real, decays[:kept]).item()
        val += 4.0 * math.pi * (math.pi / (b * b)) * 2.0 * acc
    return complex(val)
