"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerance and runtime budget and prints a
single PASS line with the worst residual and elapsed time.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from fermatkl.eisenstein import (
    TruncationSpec,
    eisenstein_direct,
    eisenstein_direct_all,
    fourier_eval,
    phi_coefficient,
    standard_rep,
)
from fermatkl.fermat import (
    GAMMA2,
    classify_cusp,
    classify_rep_index,
    cusp_reps,
    gamma2_base,
    gamma_n,
)
from fermatkl.qseries import FormLabel, QExpansion, expansion
from fermatkl.scattering import gamma2_constants, scattering_matrix
from fermatkl.sl2 import (
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    Cusp,
    T,
    cusp_scaling_matrix,
    decompose_gamma2,
    is_in_gamma_n,
    mobius_apply,
    mobius_point,
    word_to_matrix,
)
from character_oracles import gamma2_phi0_closed_form
from dedekind_oracles import classify_cusp_word_euclid
from series_oracles import coset_product_closed_form, coset_product_value, max_abs_coeff_diff
from word_oracles import word_from_syllables
from fermatkl.verify import (
    check_klf_fermat,
    check_klf_gamma2,
    check_scattering_consistency,
    check_sum_relation,
    check_sumrs,
)

PROBES = (1j, 2j, 1 + 2j, 0.3 + 1.5j)
GAMMA2_CUSPS = (CUSP_ZERO, CUSP_ONE, CUSP_INF)


def report(name: str, detail: str, elapsed: float, budget: float):
    print(f"{name} PASS: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_ac01_word_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(20240808)
    failures = 0
    for _ in range(10000):
        total = rng.randint(0, 12)
        syl, used, gen = [], 0, rng.choice([1, 2])
        while used < total:
            e = rng.randint(1, min(4, total - used)) * rng.choice([1, -1])
            syl.append((gen, e))
            used += abs(e)
            gen = 3 - gen
        w = word_from_syllables(syl)
        if decompose_gamma2(word_to_matrix(w)) != w:
            failures += 1
    assert failures == 0
    report("AC01 word-round-trip", "10000 words, 0 failures",
           time.perf_counter() - t0, 5.0)


def test_ac02_cusp_partition():
    t0 = time.perf_counter()
    cusps = []
    for q in range(0, 51):
        for p in range(-50, 51):
            if gcd(p, q) == 1 and (p, q) != (0, 0) and (q > 0 or p == 1):
                cusps.append(Cusp(p, q))
    for n in range(1, 9):
        reps = cusp_reps(n)
        seen = set()
        for c in cusps:
            fc, w = classify_cusp(c, n)
            assert is_in_gamma_n(w, n)
            assert mobius_apply(w, fc.rep) == c
            # w = g_c T^k g_rep^-1 with -n < k <= n
            g_c, g_rep = cusp_scaling_matrix(c), cusp_scaling_matrix(fc.rep)
            k = (g_c.inverse() * w * g_rep).b
            assert g_c * T ** k * g_rep.inverse() == w and -n < k <= n
            assert reps[classify_rep_index(c.p, c.q, n)].rep == fc.rep
            assert classify_cusp_word_euclid(c, n)[0] == fc
            seen.add(fc.rep)
        assert len(seen) == 3 * n
    report("AC02 cusp-partition", f"{len(cusps)} cusps x N=1..8, witnesses valid, classes as Euclid's",
           time.perf_counter() - t0, 30.0)


def test_ac03_gamma2_scattering_closed_form():
    t0 = time.perf_counter()
    tr = TruncationSpec(c_max=2000)
    pref = math.sqrt(math.pi) * math.gamma(1.5) / math.gamma(2.0) / 16.0
    worst = 0.0
    for j in GAMMA2_CUSPS:
        for k in GAMMA2_CUSPS:
            phi0 = phi_coefficient(GAMMA2, j, k, 0, 2.0, tr)[0]
            value = pref * phi0
            closed = pref * gamma2_phi0_closed_form(j == k, 2.0)
            worst = max(worst, abs(value - closed))
    assert worst <= 1e-6
    report("AC03 gamma2-phi-closed-form", f"9 pairs, worst {worst:.2e} <= 1e-6",
           time.perf_counter() - t0, 60.0)


def test_ac04_fourier_vs_direct():
    t0 = time.perf_counter()
    tr = TruncationSpec(c_max=500, m_max=10)
    worst = 0.0
    for z in PROBES:
        for j in GAMMA2_CUSPS:
            for k in GAMMA2_CUSPS:
                fe = fourier_eval(GAMMA2, j, k, z, 2.0, tr)
                gk = cusp_scaling_matrix(k)
                de, _ = eisenstein_direct(GAMMA2, j, mobius_point(gk, z), 2.0, tr)
                worst = max(worst, abs(fe - de))
    for n in (2, 3):
        g = gamma_n(n)
        reps = cusp_reps(n)
        pairs = ((reps[-1].rep, reps[-1].rep), (reps[0].rep, reps[-1].rep),
                 (reps[n].rep, reps[0].rep), (reps[1].rep, reps[0].rep))
        for z in PROBES:
            for (j, k) in pairs:
                fe = fourier_eval(g, j, k, z, 2.0, tr)
                gk = cusp_scaling_matrix(standard_rep(g, k))
                de, _ = eisenstein_direct(g, j, mobius_point(gk, z), 2.0, tr)
                worst = max(worst, abs(fe - de))
    assert worst <= 1e-4
    report("AC04 fourier-vs-direct",
           f"G2 all pairs + G_2/G_3 representative pairs, worst {worst:.2e} <= 1e-4",
           time.perf_counter() - t0, 300.0)


def test_ac05_sum_relation():
    t0 = time.perf_counter()
    tr = TruncationSpec(c_max=500)
    worst = 0.0
    for n in (2, 3):
        for z in (1j, 1 + 2j):
            for k in GAMMA2_CUSPS:
                rep = check_sum_relation(n, k, z, 2.0, tr)
                worst = max(worst, rep.residual)
                assert rep.passed and rep.tolerance == 1e-5
    report("AC05 sum-relation", f"N=2,3 both probes, worst rel {worst:.2e} <= 1e-5",
           time.perf_counter() - t0, 120.0)


def test_ac06_sumrs_exact():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        for c in (1, 2, 3, 4):
            for m in (0, 1, 2):
                for j in GAMMA2_CUSPS:
                    for k in GAMMA2_CUSPS:
                        rep = check_sumrs(n, c, m, j, k)
                        worst = max(worst, rep.residual)
                        assert rep.passed and rep.tolerance == 1e-10
    assert worst <= 1e-10
    report("AC06 sumrs-identity", f"N=2,3 c<=4 m<=2 all (j,k), worst {worst:.2e}",
           time.perf_counter() - t0, 30.0)


def test_ac07_fermat_series_identity():
    t0 = time.perf_counter()
    worst = 0.0
    # y^N = 1 - lambda is theta3^4/theta2^4 and x^N = lambda is
    # -theta4^4/theta2^4: the sum is 1 by Jacobi's identity
    for n in (1, 2, 3, 5):
        x = expansion(FormLabel("x", n), Fraction(20))
        y = expansion(FormLabel("y", n), Fraction(20))
        res = (x ** n) + (y ** n) - 1
        worst = max(worst, max_abs_coeff_diff(res, QExpansion(2 * n, {}, res.order)))
    assert worst < 1e-12
    report("AC07 fermat-series", f"x^N + y^N = 1 to order 20, worst coeff {worst:.2e}",
           time.perf_counter() - t0, 10.0)


def test_ac08_coset_products():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for kind in "ABC":
            for z in (1j, 1 + 2j):
                p = coset_product_value(kind, n, z)
                cf = coset_product_closed_form(kind, n, z, Fraction(22))
                worst = max(worst, abs(p - cf))
    assert worst <= 1e-8
    report("AC08 coset-products", f"N=1,2 all kinds, worst {worst:.2e} <= 1e-8",
           time.perf_counter() - t0, 60.0)


def test_ac09_klf_gamma2():
    t0 = time.perf_counter()
    tr = TruncationSpec(c_max=400, m_max=14, order=24)
    worst = 0.0
    for j in GAMMA2_CUSPS:
        for z in PROBES:
            rep = check_klf_gamma2(j, z, tr)
            worst = max(worst, rep.residual)
            assert rep.passed and rep.tolerance == 1e-6
    report("AC09 klf-gamma2", f"3 cusps x 4 probes, worst {worst:.2e} <= 1e-6",
           time.perf_counter() - t0, 60.0)


def test_ac10_klf_fermat():
    t0 = time.perf_counter()
    tr = TruncationSpec(c_max=1000, m_max=20, order=20)
    worst = 0.0
    for n in (2, 3):
        reps = cusp_reps(n)
        for fc in (reps[0], reps[n], reps[-1]):
            for z in (2j, 1 + 2j):
                rep = check_klf_fermat(n, fc, z, tr)
                worst = max(worst, rep.residual)
                assert rep.passed and rep.tolerance == 1e-4, rep
    report("AC10 klf-fermat", f"N=2,3 one cusp per kind, worst {worst:.2e} <= 1e-4",
           time.perf_counter() - t0, 300.0)


def test_ac11_scattering_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        rep = check_scattering_consistency(n)
        worst = max(worst, rep.residual)
        assert rep.passed and rep.tolerance == 1e-10
    m1 = scattering_matrix(1)
    g2 = gamma2_constants()
    collapse = max(abs(m1[i][j].normalized - g2[i][j].normalized)
                   for i in range(3) for j in range(3))
    assert collapse <= 1e-12
    report("AC11 scattering-consistency",
           f"N=1..5 worst {worst:.2e} <= 1e-10; N=1 collapse {collapse:.2e} <= 1e-12",
           time.perf_counter() - t0, 10.0)


def test_ac12_determinism():
    t0 = time.perf_counter()
    args = [sys.executable, "-m", "fermatkl.cli", "verify", "--suite", "full",
            "--ns", "1,2", "--cmax", "250", "--no-timestamp"]
    run1 = subprocess.run(args + ["--workers", "1"], capture_output=True)
    run8 = subprocess.run(args + ["--workers", "8"], capture_output=True)
    assert run1.returncode == 0, run1.stdout.decode()[-2000:]
    assert run8.returncode == 0
    assert run1.stdout == run8.stdout
    rec = json.loads(run1.stdout)
    assert rec["results"]["all_passed"] is True
    report("AC12 determinism",
           f"full suite byte-identical across 1 and 8 workers "
           f"({len(rec['results']['reports'])} reports)",
           time.perf_counter() - t0, 240.0)
