"""Closed-form scattering constants.

The level-2 constants come from the factored Dirichlet series of the
zero-mode Fourier coefficients; the Fermat-group constants follow the
three closed formulas (diagonal, different Belyi fibers, same fiber)
with the full-modular-group constant pinned to C = (6/pi) Z, where

    Z = 1 - 12 zeta'(-1) - log(4 pi) = 12 log A - log(4 pi),

where -12 zeta'(-1) is the log derivative zeta'/zeta at -1, as zeta is
-1/12 there, and A is the Glaisher-Kinkelin constant.  That value of C
is forced by requiring the level-1 specialization of the Fermat formulas
to match the level-2 constants; normalized and natural constants differ
by log(width)/volume.  Z is taken as the correctly rounded double of its
closed form, whose digits the reference tests recompute with mpmath at
30 digits, so no zeta is evaluated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fermat import (
    GAMMA2,
    FermatCusp,
    GroupId,
    classify_rep_index,
    cusp_reps,
    gamma2_base,
    gamma_n,
)
from .sl2 import CUSP_INF, CUSP_ONE, CUSP_ZERO, Cusp


class LevelMismatch(ValueError):
    """Cusps from a different level than requested."""


@dataclass(frozen=True)
class ScatteringEntry:
    normalized: float
    natural: float
    case_tag: str


def z_constant() -> float:
    """Z = 1 - 12 zeta'(-1) - log(4 pi), correctly rounded."""
    return 0.4540294774361204


def natural_shift(group: GroupId) -> float:
    """natural - normalized = log(width)/vol for the uniform-width groups."""
    return math.log(group.width) / group.volume


def gamma1_constant() -> float:
    """Scattering constant of the full modular group, (6/pi) Z."""
    return 6.0 / math.pi * z_constant()


def _gamma2_naturals() -> tuple[float, float]:
    z = z_constant()
    off = (z + math.log(2.0) / 6.0) / math.pi
    diag = (z - 11.0 * math.log(2.0) / 6.0) / math.pi
    return diag, off


def gamma2_constants() -> list[list[ScatteringEntry]]:
    """3x3 matrix over the cusps (0, 1, inf) of the level-2 group."""
    diag, off = _gamma2_naturals()
    shift = natural_shift(GAMMA2)
    reps = (CUSP_ZERO, CUSP_ONE, CUSP_INF)
    out = []
    for j in reps:
        row = []
        for k in reps:
            nat = diag if j == k else off
            tag = "diag" if j == k else "cross_fiber"
            row.append(ScatteringEntry(nat - shift, nat, tag))
        out.append(row)
    return out


def fermat_constant(n: int, fc_j: FermatCusp, fc_k: FermatCusp) -> ScatteringEntry:
    """Scattering entry of the level-n Fermat group for a cusp pair."""
    if fc_j.n != n or fc_k.n != n:
        raise LevelMismatch(f"cusps of level {fc_j.n}/{fc_k.n}, expected {n}")
    group = gamma_n(n)
    c1 = gamma1_constant()
    log2, logn = math.log(2.0), math.log(n)
    pref = 1.0 / (6.0 * n * n)
    if fc_j.rep == fc_k.rep:
        tag = "diag"
        normalized = pref * (c1 - ((12 * n + 2) * log2 + (-3 * n + 6) * logn) / math.pi)
    elif fc_j.kind != fc_k.kind:
        tag = "cross_fiber"
        normalized = pref * (c1 - (2 * log2 + 6 * logn) / math.pi)
    else:
        delta = (fc_j.index - fc_k.index) % n
        tag = f"same_fiber({delta})"
        # |1 - zeta_n^delta| = 2 sin(pi delta / n)
        log_gap = math.log(2.0 * math.sin(math.pi * delta / n))
        normalized = pref * (c1 - (2 * log2 + 6 * logn + 3 * n * log_gap) / math.pi)
    return ScatteringEntry(normalized, normalized + natural_shift(group), tag)


def scattering_matrix(n: int) -> list[list[ScatteringEntry]]:
    """Full 3n x 3n matrix of entries in the cusp_reps ordering."""
    if n < 1:
        raise ValueError("level must be >= 1")
    reps = cusp_reps(n)
    return [[fermat_constant(n, fj, fk) for fk in reps] for fj in reps]


def natural_constant(group: GroupId, j: Cusp, k: Cusp) -> float:
    """Natural scattering constant for a cusp pair of any supported group;
    level 2 is the Fermat group of level 1."""
    if group.kind == "gamma1":
        return gamma1_constant()
    reps = cusp_reps(group.n)
    fj = reps[classify_rep_index(j.p, j.q, group.n)]
    fk = reps[classify_rep_index(k.p, k.q, group.n)]
    return fermat_constant(group.n, fj, fk).natural


def klf_constant(group: GroupId) -> float:
    """Additive constant of the Kronecker limit formula (4 pi scale)."""
    z = z_constant()
    if group.kind == "gamma1":
        return 24.0 * z
    n = group.n
    return 4.0 / (n * n) * (z + math.log(2.0) / 6.0 - math.log(n) / 2.0)


def subcusp_relation_residual(n: int) -> float:
    """Largest residual of the subcusp consistency relations

        sum_{l over k} Ct^N_{l q} = (1/n) Ct^2_{k, base(q)} - log(n)/(2 pi n)

    over all level-2 cusps k and level-n cusps q; the level-n naturals
    come from the three-case closed formulas, the level-2 ones from the
    factored Dirichlet series."""
    reps = cusp_reps(n)
    g2 = gamma2_constants()
    g2_reps = (CUSP_ZERO, CUSP_ONE, CUSP_INF)
    worst = 0.0
    for q in reps:
        base_q = gamma2_base(q.rep)
        for ki, k in enumerate(g2_reps):
            total = 0.0
            for l in reps:
                if gamma2_base(l.rep) == k:
                    total += fermat_constant(n, l, q).natural
            g2nat = g2[ki][g2_reps.index(base_q)].natural
            target = g2nat / n - math.log(n) / (2.0 * math.pi * n)
            worst = max(worst, abs(total - target))
    return worst
