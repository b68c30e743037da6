"""Executable cross-checks of the analytic identities.

Every check compares two independently computed sides and reports an
absolute residual against a pinned tolerance.  Checks never abort the
suite; failures are recorded in the report list.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import scattering
from .eisenstein import (
    DEFAULT_TRUNCATION,
    TruncationSpec,
    chart,
    eisenstein_direct,
    eisenstein_direct_all,
    fourier_eval,
    fourier_limit_eval,
    inner_sums,
    classify_index,
)
from .fermat import (
    GAMMA2,
    FermatCusp,
    GroupId,
    cusp_reps,
    gamma2_base,
    gamma_n,
)
from .qseries import FormLabel, FormsAt, expansion, leading, leading_exponent
from .sl2 import (
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    Cusp,
    cusp_scaling_matrix,
    mobius_apply,
    mobius_point,
)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    parameters: dict
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: int

    def to_json_dict(self, with_runtime: bool = True) -> dict:
        return {
            "check_id": self.check_id,
            "parameters": {k: str(v) for k, v in sorted(self.parameters.items())},
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "runtime_ms": self.runtime_ms if with_runtime else 0,
        }


def _report(check_id: str, params: dict, residual: float, tol: float,
            t_start: float) -> CheckReport:
    ms = int((time.perf_counter() - t_start) * 1000)
    return CheckReport(check_id, params, float(residual), float(tol),
                       bool(residual <= tol), ms)


def _klf_report(check_id: str, params: dict, tol: float, n: int, fc: FermatCusp,
                z: complex, trunc: TruncationSpec) -> CheckReport:
    """Kronecker limit formula for the level-n Fermat group at the
    infinity chart: regularized Eisenstein limit against the log of each
    form, -2 log(|f_fc| Im z)/n^2 + klf_constant, both at Re z mod 2n."""
    t0 = time.perf_counter()
    group = gamma_n(n)
    chart = cusp_reps(n)[-1].rep
    lhs = fourier_limit_eval(group, fc.rep, chart, z, trunc)
    at = FormsAt(complex(math.remainder(z.real, group.width), z.imag))
    fv, _ = at.value(FormLabel("f", n, fc.kind, fc.index))
    rhs = -2.0 * math.log(abs(fv) * z.imag) / (n * n) + scattering.klf_constant(group)
    return _report(check_id, params, abs(lhs - rhs), tol, t0)


def check_klf_gamma2(j: Cusp, z: complex,
                     trunc: TruncationSpec = DEFAULT_TRUNCATION) -> CheckReport:
    """Kronecker limit formula at level 2, the n = 1 case of the Fermat
    one, where f[A, 0], f[B, 0] and f[C, 0] are -g0, -g1 and ginf."""
    fc = cusp_reps(1)[classify_index(GAMMA2, j.p, j.q)]
    return _klf_report("klf_gamma2", {"j": j, "z": z}, 1e-6, 1, fc, z, trunc)


def check_klf_fermat(n: int, fc: FermatCusp, z: complex,
                     trunc: TruncationSpec = DEFAULT_TRUNCATION) -> CheckReport:
    """Kronecker limit formula for the level-n Fermat group."""
    return _klf_report("klf_fermat", {"n": n, "cusp": fc.rep, "z": z}, 1e-4, n, fc, z, trunc)


def check_limitsum(n: int, fc: FermatCusp, z: complex,
                   trunc: TruncationSpec = DEFAULT_TRUNCATION) -> CheckReport:
    """Coset-summed limit formula: the level-2 limit minus
    log(n)/vol(level 2), 4 pi scaled, against the log of each form in
    the coset product (prod_l f[kind, l])^n, -(2/n) sum_l log(|f[kind, l]|
    Im z) at Re z reduced by the width 2n, plus the shifted constant."""
    t0 = time.perf_counter()
    group = gamma_n(n)
    lhs = fourier_limit_eval(GAMMA2, gamma2_base(fc.rep), CUSP_INF, z, trunc).real \
        - 2.0 * math.log(n)
    at = FormsAt(complex(math.remainder(z.real, group.width), z.imag))
    log_norms = sum(math.log(abs(at.value(FormLabel("f", n, fc.kind, l))[0]) * z.imag)
                    for l in range(n))
    rhs = -2.0 / n * log_norms + n * n * scattering.klf_constant(group)
    return _report("limitsum", {"n": n, "cusp": fc.rep, "z": z},
                   abs(lhs - rhs), 1e-5, t0)


def check_sum_relation(n: int, k: Cusp, z: complex, s: float = 2.0,
                       trunc: TruncationSpec = DEFAULT_TRUNCATION) -> CheckReport:
    """Width-weighted subcusp sum of Fermat-group Eisenstein series
    against the level-2 series, relative residual."""
    t0 = time.perf_counter()
    group = gamma_n(n)
    base = gamma2_base(k)
    subcusps = [i for i, fc in enumerate(cusp_reps(n)) if gamma2_base(fc.rep) == base]
    # b^s E_j and w^s E_k are the direct buckets, which carry no width prefactor
    vals_n, _ = eisenstein_direct_all(group, z, s, trunc, subcusps)
    (rhs,), _ = eisenstein_direct_all(GAMMA2, z, s, trunc, (classify_index(GAMMA2, base.p, base.q),))
    lhs = sum(vals_n)
    res = abs(lhs - rhs) / abs(rhs)
    return _report("sum_relation", {"n": n, "k": k, "z": z, "s": s}, res, 1e-5, t0)


def check_sumrs(n: int, c: int, m: int, j: Cusp, k: Cusp) -> CheckReport:
    """Exact finite-sum identity for the inner Fourier sums: the
    width-normalized sum over the subcusps against the level-2 sum."""
    t0 = time.perf_counter()
    group = gamma_n(n)
    base_k = gamma2_base(k)
    # e(m d/(2c)) over residues d mod 2nc is the level-n inner sum at mode nm
    lhs = sum(inner_sums(group, j, l.rep, (n * m,), c)[0, c - 1]
              for l in cusp_reps(n) if gamma2_base(l.rep) == base_k) / (2 * n)
    rhs = inner_sums(GAMMA2, j, base_k, (m,), c)[0, c - 1] / 2
    return _report("sumrs", {"n": n, "c": c, "m": m, "j": j, "k": k},
                   abs(lhs - rhs), 1e-10, t0)


def check_scattering_consistency(n: int) -> CheckReport:
    """Subcusp linear relations among the closed-form Fermat-group
    constants against the level-2 constants; at n = 1 these compare the
    nine entries themselves, as naturals."""
    t0 = time.perf_counter()
    res = scattering.subcusp_relation_residual(n)
    return _report("scattering_consistency", {"n": n}, res, 1e-10, t0)


def check_scattering_entries(n: int) -> CheckReport:
    """Mode 0 in x of the Kronecker limit formula at the chart of
    infinity gives every scattering constant C_(j inf) of level n from
    the leading term a_j q^nu_j of f_j's series there: 4 pi C_(j inf)
    against klf_constant - 2 log|a_j|/n^2, and 4 pi nu_j/n^2 against
    4 pi/b when j is infinity and 0 otherwise, b the width, at each of
    the 3n cusps.  The lane-class relation C_jk = C_(g_k^-1 j, inf) then
    gives every entry; the largest |C_jk - C_(g_k^-1 j, inf)| over the
    pairs, 0 exactly, joins the largest residual."""
    t0 = time.perf_counter()
    group = gamma_n(n)
    reps = cusp_reps(n)
    klf = scattering.klf_constant(group)
    worst = 0.0
    for fc in reps:
        label = FormLabel("f", n, fc.kind, fc.index)
        nu, a = leading(expansion(label, leading_exponent(label)))
        c_j = scattering.natural_constant(group, fc.rep, CUSP_INF)
        slope = 4 * math.pi / group.width if fc.rep == CUSP_INF else 0
        worst = max(worst, abs(4 * math.pi * c_j - klf + 2 * math.log(abs(a)) / (n * n)),
                    abs(4 * math.pi * nu / (n * n) - slope))
    for fk in reps:
        gk_inv = cusp_scaling_matrix(fk.rep).inverse()
        for fj in reps:
            lane = mobius_apply(gk_inv, fj.rep)
            worst = max(worst, abs(scattering.natural_constant(group, fj.rep, fk.rep)
                                   - scattering.natural_constant(group, lane, CUSP_INF)))
    return _report("scattering_entries", {"n": n}, worst, 1e-14, t0)


def check_cross_path(group: GroupId, j: Cusp, k: Cusp, z: complex, s: float = 2.0,
                     trunc: TruncationSpec = DEFAULT_TRUNCATION) -> CheckReport:
    """Fourier expansion against direct summation in the k chart."""
    t0 = time.perf_counter()
    fe = fourier_eval(group, j, k, z, s, trunc)
    de, _ = eisenstein_direct(group, j, mobius_point(chart(group, k), z), s, trunc)
    return _report("cross_path", {"group": group, "j": j, "k": k, "z": z, "s": s},
                   abs(fe - de), 1e-4, t0)


def _suite_checks(level: str, ns: tuple[int, ...], trunc: TruncationSpec):
    """Deterministic declaration order of the suite's checks."""
    checks = []
    for n in (1, 2, 3, 4, 5):
        checks.append(("scattering_consistency", lambda n=n: check_scattering_consistency(n)))
    for n in [x for x in ns if x > 1]:
        for c in (1, 2, 3, 4):
            for m in (0, 1, 2):
                checks.append((
                    "sumrs",
                    lambda n=n, c=c, m=m: check_sumrs(n, c, m, CUSP_INF, CUSP_ZERO)))
    if level == "fast":
        return checks
    for j in (CUSP_ZERO, CUSP_ONE, CUSP_INF):
        for z in (2j, 1 + 2j):
            checks.append(("klf_gamma2",
                           lambda j=j, z=z: check_klf_gamma2(j, z, trunc)))
    for n in [x for x in ns if x > 1]:
        reps = cusp_reps(n)
        for fc in (reps[0], reps[n], reps[-1]):
            for z in (2j, 1 + 2j):
                checks.append(("klf_fermat",
                               lambda n=n, fc=fc, z=z: check_klf_fermat(n, fc, z, trunc)))
        checks.append(("limitsum",
                       lambda n=n, fc=reps[n]: check_limitsum(n, fc, 2j, trunc)))
        for k in (CUSP_ZERO, CUSP_INF):
            checks.append(("sum_relation",
                           lambda n=n, k=k: check_sum_relation(n, k, 1 + 2j, 2.0, trunc)))
        for (j, k) in ((reps[-1].rep, reps[-1].rep), (reps[0].rep, reps[-1].rep)):
            checks.append(("cross_path",
                           lambda n=n, j=j, k=k: check_cross_path(gamma_n(n), j, k, 1j, 2.0, trunc)))
    for n in ns:
        checks.append(("scattering_entries", lambda n=n: check_scattering_entries(n)))
    return checks


def run_suite(level: str = "fast",
              trunc: TruncationSpec = DEFAULT_TRUNCATION,
              ns: tuple[int, ...] = (1, 2),
              workers: int = 1,
              check_id: str | None = None) -> list[CheckReport]:
    """Run the named suite, or only its checks of the id check_id, which
    runs nothing when none has it; reports are collected in declaration
    order regardless of the worker count.  Individual check failures
    never abort the suite."""
    if level not in ("fast", "full"):
        raise ValueError("suite level must be 'fast' or 'full'")
    checks = [item for item in _suite_checks(level, tuple(ns), trunc)
              if check_id is None or item[0] == check_id]

    def run_one(item):
        name, fn = item
        try:
            return fn()
        except Exception as exc:  # recorded, never raised
            return CheckReport(name, {"error": repr(exc)}, math.inf, 0.0, False, 0)

    if workers <= 1:
        return [run_one(item) for item in checks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, checks))
