"""Numerical Eisenstein series.

Three computation paths that the verification layer plays against each
other:

* direct lattice-point summation over coprime pairs (c, d) bucketed by
  the cusp class of (d : c),
* Fourier coefficients phi_{jk,m}(s) by constructive enumeration of the
  double-coset admissible pairs, and
* the regularized value at s = 1 assembled from closed-form scattering
  constants plus the m != 0 coefficients.

For the Fermat groups the admissible pairs are enumerated as level-2
admissible pairs refined by the exponent-sum character: a level-2
candidate (c, d mod 2c) with word sums r lifts to d + 2c*t mod 2nc
exactly when t' v_j + t v_k = -r (mod n) is solvable, where v_j, v_k
are the exponent sums of the conjugated stabilizer generators.  When
the two base cusps differ the solution is unique; when they agree all
n lifts survive or none do, which is what makes the same-fiber Fourier
modes supported on multiples of n.

The sums r come from the Dedekind-sum formula of the sl2 module
(6c r1 and 6c (r1 + r2) as combinations of 12k s(d, k) for k = c, 2c,
c/2; Apostol ch. 3 and Rademacher-Grosswald), in int64 batches.  The
Fermat enumeration runs over blocks of consecutive c holding about
_ENUM_BLOCK level-2 candidates each, and the Fermat class tables
classify all (-d : c) of one c in one batch.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

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
    GEN1,
    Mat2Z,
    cusp_scaling_matrix,
    gamma2_exponent_sums,
    gamma2_exponent_sums_batch,
    mod_inverse_batch,
)
from .special import DEFAULT_PRECISION, PrecisionConfig, bessel_k, gamma_fn, zeta


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
    if group.kind == "gamma2":
        return (CUSP_ZERO, CUSP_ONE, CUSP_INF)
    return tuple(fc.rep for fc in cusp_reps(group.n))


def classify_index(group: GroupId, p: int, q: int) -> int:
    """Index of the class of (p : q) in the group_cusps ordering."""
    if group.kind == "gamma1":
        return 0
    if group.kind == "gamma2":
        podd, qodd = p & 1, q & 1
        if podd and qodd:
            return 1
        return 2 if podd else 0
    return classify_rep_index(p, q, group.n)


def standard_rep(group: GroupId, c) -> Cusp:
    """Standard representative of the class of a cusp."""
    c = as_cusp(c)
    return group_cusps(group)[classify_index(group, c.p, c.q)]


# ---------------------------------------------------------------------------
# direct summation
# ---------------------------------------------------------------------------

_CLASS_CACHE: dict = {}
_CLASS_LOCK = threading.Lock()


def _class_table(group: GroupId, c: int):
    """Class buckets of d0 in [0, width*c) coprime to c, as int arrays.

    A pair (c, d) with bottom row (c, d) of gamma_j^-1 sigma belongs to
    the class of sigma^-1(S_j) = (-d : c); the sign matters between the
    subcusps of a Fermat group even though the level-2 parity classes
    cannot see it.
    """
    key = (group, c)
    hit = _CLASS_CACHE.get(key)
    if hit is not None:
        return hit
    P = group.width * c
    d = np.arange(P, dtype=np.int64)
    cop = d[np.gcd(d, c) == 1]
    if group.kind == "gamma1":
        table = [(0, cop)]
    elif group.kind == "gamma2":
        podd = (cop & 1).astype(bool)
        if c & 1:
            table = [(1, cop[podd]), (0, cop[~podd])]
        else:
            table = [(2, cop[podd])]
    else:
        idx = classify_rep_indices(-cop, c, group.n)
        table = [(int(i), cop[idx == i]) for i in np.flatnonzero(np.bincount(idx))]
    with _CLASS_LOCK:
        _CLASS_CACHE[key] = table
    return table


def _power_terms(mod2: np.ndarray, s) -> np.ndarray:
    if isinstance(s, complex) and s.imag != 0:
        return np.exp(-s * np.log(mod2))
    return np.power(mod2, -float(complex(s).real))


def eisenstein_direct_all(group: GroupId, z: complex, s,
                          trunc: TruncationSpec = DEFAULT_TRUNCATION):
    """Raw class-bucketed sums over coprime pairs, without the width
    prefactor: bucket[j] = sum over (c,d) with (d:c) in class j of
    y^s / |cz+d|^(2s).  Returns (buckets, tail_estimate)."""
    sigma = complex(s).real
    if sigma <= 1:
        raise DivergentRegion("direct summation requires Re s > 1")
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("z must lie in the upper half plane")
    cusps = group_cusps(group)
    vals = np.zeros(len(cusps), dtype=complex)
    ys = complex(y) ** s
    # the c = 0 pair (0, 1): cusp (1 : 0)
    vals[classify_index(group, 1, 0)] += ys
    m_cut = trunc.c_max * (abs(x) + y + 3.0)
    for c in range(1, trunc.c_max + 1):
        P = group.width * c
        cx = c * x
        cy2 = (c * y) ** 2
        t_lo = math.floor((-m_cut - cx) / P) - 1
        t_hi = math.ceil((m_cut - cx) / P) + 1
        t = np.arange(t_lo, t_hi + 1, dtype=np.int64) * P
        for idx, d0s in _class_table(group, c):
            if d0s.size == 0:
                continue
            w = cx + (d0s[None, :] + t[:, None]).astype(float)
            keep = np.abs(w) <= m_cut
            mod2 = w * w + cy2
            terms = _power_terms(mod2, s)
            vals[idx] += ys * np.where(keep, terms, 0.0).sum()
    # omitted-d strip plus c > c_max tail
    tail_d = trunc.c_max * 2.0 * y ** sigma * m_cut ** (1 - 2 * sigma) / (2 * sigma - 1)
    tail_c = 4.0 * y ** (1 - sigma) * trunc.c_max ** (2 - 2 * sigma) / (2 * sigma - 2)
    tail_c += 2.0 * (y * trunc.c_max) ** (-2 * sigma) * y ** sigma * trunc.c_max
    return vals, tail_d + tail_c


def eisenstein_direct(group: GroupId, j, z: complex, s,
                      trunc: TruncationSpec = DEFAULT_TRUNCATION):
    """E_j(z, s) = width^(-s) * sum over the class-j coprime pairs."""
    jc = as_cusp(j)
    vals, tail = eisenstein_direct_all(group, z, s, trunc)
    idx = classify_index(group, jc.p, jc.q)
    b = group.width
    pref = complex(b) ** (-s)
    return pref * vals[idx], abs(pref) * tail


# ---------------------------------------------------------------------------
# double-coset enumeration of Fourier coefficients
# ---------------------------------------------------------------------------

class _PhiData:
    """Per-pair cache: admissible d arrays (mod width*c) for c = 1.."""

    def __init__(self):
        self.c_done = 0
        self.size = 0       # residues held, over all c
        self.items: list[np.ndarray] = []
        self.lock = threading.Lock()


# Pairs in least recently used order.  Past _PHI_CACHE_ENTRIES residues
# in all the oldest pairs are dropped; the pair just asked for always
# stays.  2^19 residues hold ten Fermat pairs at c_max 500 (2 MB of
# int32), or all nine level-2 pairs (457k int64 residues) at once.
_PHI_CACHE: OrderedDict = OrderedDict()
_PHI_LOCK = threading.Lock()
_PHI_CACHE_ENTRIES = 1 << 19

# Level-2 candidates per vectorised block of the Fermat enumeration.  The
# working arrays of a block peak near 1 MB at this size; larger blocks
# raise peak memory for little speed.
_ENUM_BLOCK = 2048


def _kappa_sums(g: Mat2Z) -> tuple[int, int]:
    """Exponent sums of g T^2 g^(-1) (stabilizer generator of g(inf))."""
    k = g * GEN1 * g.inverse()
    r = gamma2_exponent_sums(k.a, k.b, k.c, k.d)
    if r is None:
        raise RuntimeError("conjugated stabilizer left the level-2 group")
    return r


def _phi_items(group: GroupId, j: Cusp, k: Cusp, c_max: int) -> list[np.ndarray]:
    """Admissible d (mod width*c) of the double coset for c = 1..c_max."""
    key = (group, j, k)
    with _PHI_LOCK:
        data = _PHI_CACHE.setdefault(key, _PhiData())
        _PHI_CACHE.move_to_end(key)
    with data.lock:
        c_done = data.c_done
        items = _phi_items_locked(data, group, j, k, c_max)
        data.size += sum(arr.size for arr in items[c_done:])
    with _PHI_LOCK:
        total = sum(d.size for d in _PHI_CACHE.values())
        for other in list(_PHI_CACHE):
            if total <= _PHI_CACHE_ENTRIES:
                break
            if other != key:
                total -= _PHI_CACHE.pop(other).size
    return items


def _phi_items_locked(data: _PhiData, group: GroupId, j: Cusp, k: Cusp,
                      c_max: int) -> list[np.ndarray]:
    if data.c_done >= c_max:
        return data.items
    items = data.items
    if group.kind == "gamma_n" and group.n > 1:
        items.extend(_fermat_items(group.n, j, k, data.c_done + 1, c_max))
        data.c_done = c_max
        return items
    pt = cusp_scaling_matrix(j).inverse() * cusp_scaling_matrix(k)
    pc, pd = pt.c & 1, pt.d & 1
    for c in range(data.c_done + 1, c_max + 1):
        if group.kind == "gamma1":
            d = np.arange(c, dtype=np.int64)
            items.append(d[np.gcd(d, c) == 1])
            continue
        if (c & 1) != pc:
            items.append(np.empty(0, dtype=np.int64))
            continue
        d0 = np.arange(pd, 2 * c, 2, dtype=np.int64)
        items.append(d0[np.gcd(d0, c) == 1])
    data.c_done = c_max
    return items


def _fermat_items(n: int, j: Cusp, k: Cusp, c_lo: int, c_hi: int) -> list[np.ndarray]:
    """Admissible d (mod 2nc) of a Fermat pair for c = c_lo..c_hi, as
    sorted int32 arrays: half the memory of int64, and exact in the
    phase products that read them.

    Level-2 candidates (c, d) are processed in blocks of about
    _ENUM_BLOCK lanes: one Euclid pass gives the top row of
    M = [a b; c d] in gj^-1 Gamma(2) gk, and the exponent sums of
    rho = gj M gk^-1 decide the lifts of d mod 2c to d mod 2nc.
    """
    if 2 * n * c_hi > np.iinfo(np.int32).max:
        raise OverflowError(f"residues mod {2 * n * c_hi} overflow int32")
    gj = cusp_scaling_matrix(j)
    gk = cusp_scaling_matrix(k)
    # parity target: M in gj^-1 Gamma(2) gk  <=>  M = gj^-1 gk mod 2
    pa, pb, pc, pd = ((x & 1) for x in (gj.inverse() * gk).entries())
    vj = _kappa_sums(gj)
    same_base = gamma2_base(j) == gamma2_base(k)
    if not same_base:
        vk = _kappa_sums(gk)
        det_inv = pow((vj[0] * vk[1] - vj[1] * vk[0]) % n, -1, n)
    e, f, g_, h = gj.entries()
    ki11, ki12, ki21, ki22 = gk.inverse().entries()
    lifts = np.arange(n, dtype=np.int64)
    parts = [np.empty(0, dtype=np.int32)]
    counts = np.zeros(c_hi - c_lo + 1, dtype=np.int64)
    cs = np.arange(c_lo + ((c_lo & 1) != pc), c_hi + 1, 2, dtype=np.int64)
    # a c contributes c candidates d = pd, pd + 2, ..., < 2c
    block_of = (np.cumsum(cs) - 1) // _ENUM_BLOCK
    for blk in np.split(cs, np.flatnonzero(np.diff(block_of)) + 1):
        if blk.size == 0:
            continue
        c = np.repeat(blk, blk)
        d = pd + 2 * (np.arange(c.size) - np.repeat(np.cumsum(blk) - blk, blk))
        keep = np.gcd(d, c) == 1
        c, d = c[keep], d[keep]
        a0 = mod_inverse_batch(d, c)
        a = np.zeros_like(c)
        b = np.zeros_like(c)
        found = np.zeros(c.size, dtype=bool)
        for a_try in (a0, a0 + c):  # the b parity can fail on a0
            b_try = (a_try * d - 1) // c
            hit = ~found & ((a_try & 1) == pa) & ((b_try & 1) == pb)
            a[hit], b[hit] = a_try[hit], b_try[hit]
            found |= hit
        a, b, c, d = a[found], b[found], c[found], d[found]
        # rho = gj * M * gk^-1
        m11, m12 = e * a + f * c, e * b + f * d
        m21, m22 = g_ * a + h * c, g_ * b + h * d
        r1, r2 = gamma2_exponent_sums_batch(m11 * ki11 + m12 * ki21, m11 * ki12 + m12 * ki22,
                                            m21 * ki11 + m22 * ki21, m21 * ki12 + m22 * ki22)
        r1, r2 = r1 % n, r2 % n
        if same_base:
            # solvable iff -r parallel to the stabilizer vector
            sel = (r1 * vj[1] - r2 * vj[0]) % n == 0
            c, d = c[sel], d[sel]
            vals = ((d[:, None] + 2 * c[:, None] * lifts) % (2 * n * c)[:, None]).ravel()
            c = np.repeat(c, n)
        else:
            t = (-vj[1] * (-r1) + vj[0] * (-r2)) * det_inv % n
            vals = (d + 2 * c * t) % (2 * n * c)
        parts.append(vals[np.lexsort((vals, c))].astype(np.int32))
        counts += np.bincount(c - c_lo, minlength=counts.size)
    # one array for the whole range, split into per-c views
    return np.split(np.concatenate(parts), np.cumsum(counts)[:-1])


def phi_coefficient(group: GroupId, j, k, m: int, s,
                    trunc: TruncationSpec = DEFAULT_TRUNCATION,
                    tol: float | None = None) -> PhiTerm:
    """phi_{jk,m}(s) truncated at c <= c_max, with a tail estimate.

    Sums exp(2 pi i m d/(width c)) / c^(2s) over the admissible residues
    of the double coset.  Requires Re s > 1, or s = 1 with m != 0 where
    the bounded inner sums give conditional convergence.
    """
    sigma = complex(s).real
    if sigma < 1 or (sigma == 1 and m == 0):
        raise DivergentRegion("phi requires Re s > 1, or s = 1 with m != 0")
    jc = standard_rep(group, j)
    kc = standard_rep(group, k)
    items = _phi_items(group, jc, kc, trunc.c_max)
    b = group.width
    total = 0j
    max_inner = 0.0
    for ci in range(trunc.c_max):
        arr = items[ci]
        if arr.size == 0:
            continue
        c = ci + 1
        if m == 0:
            inner = complex(arr.size)
        else:
            inner = complex(np.exp((2j * math.pi * m / (b * c)) * arr).sum())
        max_inner = max(max_inner, abs(inner))
        total += inner * complex(c) ** (-2 * s)
    if sigma > 1:
        tail = b * trunc.c_max ** (2 - 2 * sigma) / (2 * sigma - 2)
    else:
        # bounded inner sums: geometric-free 1/c^2 tail at the observed scale
        tail = max(max_inner, float(2 * b)) / trunc.c_max
    if tol is not None and sigma > 1 and tail > tol:
        raise TruncationUnsound(f"tail estimate {tail:.3e} exceeds tolerance {tol:.3e}")
    return PhiTerm(group, jc, kc, m, complex(s), total, trunc.c_max, tail)


def gamma2_phi0_closed_form(diag: bool, s, cfg: PrecisionConfig = DEFAULT_PRECISION) -> float:
    """Factored Dirichlet series of the level-2 zero modes:
    2/(2^(2s)-1) * zeta(2s-1)/zeta(2s) on the diagonal and
    (2^(2s)-2)/(2^(2s)-1) * zeta(2s-1)/zeta(2s) off it."""
    w = 2.0 * s
    num = zeta(w - 1.0, cfg) / zeta(w, cfg)
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


def gamma2_phi_m_closed_form(pair_parity: tuple[int, int], m: int, s: float,
                             cfg: PrecisionConfig = DEFAULT_PRECISION) -> float:
    """Exact value of phi_{jk,m}(s) for the level-2 group, m != 0.

    pair_parity = (c, d) parities of the admissible pairs: (0, 1) for
    diagonal entries, (1, 0) and (1, 1) for the two off-diagonal types.
    Obtained by factoring the Ramanujan-sum Dirichlet series through the
    2-adic part of m.
    """
    if m == 0:
        raise ValueError("use gamma2_phi0_closed_form for m = 0")
    w = 2.0 * s
    zw = zeta(w, cfg)
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


def _gamma2_pair_parity(j: Cusp, k: Cusp) -> tuple[int, int]:
    gj = cusp_scaling_matrix(standard_rep(GAMMA2, j))
    gk = cusp_scaling_matrix(standard_rep(GAMMA2, k))
    pt = gj.inverse() * gk
    return (pt.c & 1, pt.d & 1)


def phi_m1_exact(group: GroupId, j, k, m: int,
                 trunc: TruncationSpec = DEFAULT_TRUNCATION,
                 cfg: PrecisionConfig = DEFAULT_PRECISION) -> complex:
    """phi_{jk,m}(1) for m != 0: closed form where available (full
    modular group and level 2), else the truncated enumeration."""
    if group.kind == "gamma1":
        return complex(sum(1.0 / d for d in _divisors(m)) / zeta(2.0, cfg))
    if group.kind == "gamma2":
        return complex(gamma2_phi_m_closed_form(_gamma2_pair_parity(as_cusp(j), as_cusp(k)),
                                                m, 1.0, cfg))
    return phi_coefficient(group, j, k, m, 1.0, trunc).partial_sum


# ---------------------------------------------------------------------------
# Fourier assembly
# ---------------------------------------------------------------------------

def fourier_eval(group: GroupId, j, k, z: complex, s,
                 trunc: TruncationSpec = DEFAULT_TRUNCATION,
                 cfg: PrecisionConfig = DEFAULT_PRECISION) -> complex:
    """E_j(gamma_k(z), s) assembled from the Fourier expansion in the
    chart of the standard representative of k."""
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
    gs = gamma_fn(complex(s), cfg)
    gs_half = gamma_fn(complex(s) - 0.5, cfg)
    phi0 = phi_coefficient(group, jc, kc, 0, s, trunc).partial_sum
    val += math.sqrt(math.pi) * gs_half / gs * phi0 * complex(y) ** (1 - s) \
        / (complex(b) ** s * b)
    for m in range(1, trunc.m_max + 1):
        arg = 2.0 * math.pi * m * y / b
        if arg > 700.0:
            break
        kb = bessel_k(complex(s) - 0.5, arg, cfg)
        coef = 2.0 * math.pi ** complex(s) * (m / b) ** (complex(s) - 0.5) / gs \
            * math.sqrt(y) * kb / (complex(b) ** s * b)
        for sign in (1, -1):
            phim = phi_coefficient(group, jc, kc, sign * m, s, trunc).partial_sum
            val += coef * phim * cmath.exp(2j * math.pi * sign * m * x / b)
    return val


def fourier_limit_eval(group: GroupId, j, k, z: complex,
                       trunc: TruncationSpec = DEFAULT_TRUNCATION,
                       cfg: PrecisionConfig = DEFAULT_PRECISION) -> complex:
    """4 pi * lim_(s->1) (E_j(gamma_k z, s) - 1/(vol (s-1))).

    Constant mode from the closed-form natural scattering constant, log
    term with coefficient 12/index on the 4 pi scale, oscillating modes
    pi/(b_j b_k) phi_{jk,m}(1) exp(-2 pi |m| y / b_k + 2 pi i m x / b_k).
    """
    x, y = z.real, z.imag
    if y <= 0:
        raise ValueError("z must lie in the upper half plane")
    jc = standard_rep(group, j)
    kc = standard_rep(group, k)
    ct = scattering.natural_constant(group, jc, kc, cfg)
    b = group.width
    val = 4.0 * math.pi * (ct - (3.0 / (math.pi * group.index)) * math.log(y))
    if jc == kc:
        val += 4.0 * math.pi * y / b
    m_eff = min(trunc.m_max, math.ceil(b * 40.0 / (2.0 * math.pi * y)))
    acc = 0.0
    for m in range(1, m_eff + 1):
        decay = math.exp(-2.0 * math.pi * m * y / b)
        if decay < 1e-18:
            break
        phim = phi_m1_exact(group, jc, kc, m, trunc, cfg)
        acc += 2.0 * (phim * cmath.exp(2j * math.pi * m * x / b)).real * decay
    val += 4.0 * math.pi * (math.pi / (b * b)) * acc
    return complex(val)
