import random
from math import gcd, pi

import pytest

from fermatkl.fermat import (
    GAMMA1,
    GAMMA2,
    classify_cusp,
    classify_rep_index,
    cusp_reps,
    fermat_cusp_of_ram,
    gamma2_base,
    gamma_n,
)
from fermatkl.sl2 import (
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    Cusp,
    GEN1,
    GEN2,
    IDENTITY,
    T,
    cusp_scaling_matrix,
    decompose_gamma2,
    gamma2_exponent_sums,
    is_in_gamma_n,
    mobius_apply,
    word_to_matrix,
)

from dedekind_oracles import (
    classify_cusp_word_euclid,
    classify_rep_index_dedekind,
    classify_rep_indices,
    gamma2_exponent_sums_dedekind,
)
from word_oracles import coset_reps, word_from_syllables


def test_cusp_reps_small_levels():
    assert [str(fc.rep) for fc in cusp_reps(1)] == ["0", "1", "inf"]
    assert [str(fc.rep) for fc in cusp_reps(2)] == ["0", "2", "1", "3", "1/2", "inf"]


def test_cusp_reps_count_and_distinct():
    for n in range(1, 21):
        reps = cusp_reps(n)
        assert len(reps) == 3 * n
        assert len({fc.rep for fc in reps}) == 3 * n


def test_classify_one_over_2n():
    for n in (1, 2, 3, 5, 8):
        fc, w = classify_cusp(Cusp(1, 2 * n), n)
        assert fc.rep == CUSP_INF
        assert is_in_gamma_n(w, n)
        assert mobius_apply(w, fc.rep) == Cusp(1, 2 * n)


def test_classify_negative_even():
    for n in (2, 3, 4):
        for l in range(2, 2 * n, 2):
            fc, w = classify_cusp(Cusp(-l, 1), n)
            assert fc.rep == Cusp(2 * n - l, 1)
            assert is_in_gamma_n(w, n)
            assert mobius_apply(w, fc.rep) == Cusp(-l, 1)


def test_classify_zero_identity_witness():
    fc, w = classify_cusp(CUSP_ZERO, 3)
    assert fc.rep == CUSP_ZERO and w == IDENTITY


def test_partition_small_range():
    for n in (1, 2, 4):
        reps = cusp_reps(n)
        seen = set()
        for p in range(-25, 26):
            for q in range(0, 26):
                if gcd(p, q) != 1:
                    continue
                c = Cusp(p, q)
                fc, w = classify_cusp(c, n)
                assert is_in_gamma_n(w, n)
                assert mobius_apply(w, fc.rep) == c
                assert reps[classify_rep_index(c.p, c.q, n)].rep == fc.rep
                seen.add(fc.rep)
        assert len(seen) == 3 * n


def test_class_function_under_gamma_n():
    rng = random.Random(41)
    for n in (2, 3):
        for _ in range(100):
            syl = []
            gen = rng.choice([1, 2])
            for _ in range(3):
                syl.append((gen, rng.randint(-5, 5)))
                gen = 3 - gen
            w = word_from_syllables(syl)
            w = word_from_syllables(
                list(w.syllables) + [(1, (-w.r1) % n), (2, (-w.r2) % n)])
            m = word_to_matrix(w)
            assert is_in_gamma_n(m, n)
            c = Cusp(rng.randint(-15, 15), rng.randint(1, 15))
            fc1, _ = classify_cusp(c, n)
            fc2, _ = classify_cusp(mobius_apply(m, c), n)
            assert fc1 == fc2


def test_ramification_table_anchors():
    # 0 <-> (0:1:1), 1 <-> (1:0:1), inf <-> (eps:1:0)
    for n in (1, 2, 3, 5):
        reps = {str(fc.rep): fc for fc in cusp_reps(n)}
        assert (reps["0"].kind, reps["0"].index) == ("A", 0)
        assert (reps["1"].kind, reps["1"].index) == ("B", 0)
        assert (reps["inf"].kind, reps["inf"].index) == ("C", 0)
        for fc in cusp_reps(n):
            assert fermat_cusp_of_ram(n, fc.kind, fc.index) == fc
            assert fc.beta_image == {"A": CUSP_ZERO, "B": CUSP_ONE, "C": CUSP_INF}[fc.kind]


def test_beta_compatibility():
    # kind determines the level-2 class of the representative
    for n in (2, 3, 5):
        for fc in cusp_reps(n):
            base = gamma2_base(fc.rep)
            assert base == fc.beta_image


def test_cusp_record_is_its_ramification_point():
    # each cusp of the standard system is the record that its
    # ramification point names, over the level-2 base of its rep
    for n in (1, 2, 3, 5, 8, 24):
        reps = cusp_reps(n)
        assert len(reps) == 3 * n
        for fc in reps:
            assert fc.n == n
            assert fermat_cusp_of_ram(n, fc.kind, fc.index) == fc
            assert fc.beta_image == gamma2_base(fc.rep)


def test_ram_point_coords():
    coords = {(kind, j): fermat_cusp_of_ram(3, kind, j).coords()
              for kind in "ABC" for j in (0, 1)}
    assert coords == {
        ("A", 0): "(0 : 1 : 1)", ("A", 1): "(0 : zeta^1 : 1)",
        ("B", 0): "(1 : 0 : 1)", ("B", 1): "(zeta^1 : 0 : 1)",
        ("C", 0): "(eps : 1 : 0)", ("C", 1): "(eps*zeta^1 : 1 : 0)",
    }


def test_coset_reps():
    assert coset_reps(1) == (IDENTITY,)
    for n in (2, 3):
        reps = coset_reps(n)
        assert len(reps) == n * n
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not is_in_gamma_n(reps[i] * reps[j].inverse(), n)


def test_level_cache_bounded():
    # a fixed bound, and more levels than it: the evicted ones are rebuilt
    # equal, each with its 3n cusps
    bound = cusp_reps.cache_info().maxsize
    assert bound is not None and 0 < bound < 100
    levels = range(1, bound + 6)
    first = {n: cusp_reps(n) for n in levels}
    assert cusp_reps.cache_info().currsize == bound
    for n in levels:
        assert cusp_reps(n) == first[n] == cusp_reps.__wrapped__(n)
        assert len(first[n]) == 3 * n
    for n in (bound + 5, bound + 1):
        for index, fc in enumerate(cusp_reps(n)):
            assert classify_rep_index(fc.rep.p, fc.rep.q, n) == index
        sums = [gamma2_exponent_sums(*g.entries()) for g in coset_reps(n)]
        assert sums == [(a, b) for a in range(n) for b in range(n)]


def test_cusp_width():
    # the common width of every cusp
    assert GAMMA2.width == 2
    assert gamma_n(3).width == 6
    assert GAMMA1.width == 1


def test_volume_data():
    g = gamma_n(2)
    assert g.index == 24
    assert g.volume == pi * 24 / 3


def _assert_witness(c, n, fc, w):
    # w lies in the level-n group, maps fc.rep to c and is g_c T^k g_rep^-1
    # with -n < k <= n
    g_c, g_rep = cusp_scaling_matrix(c), cusp_scaling_matrix(fc.rep)
    k = (g_c.inverse() * w * g_rep).b
    assert is_in_gamma_n(w, n) and mobius_apply(w, fc.rep) == c, (str(c), n)
    assert g_c * T ** k * g_rep.inverse() == w and -n < k <= n, (str(c), n, k)


def test_classify_rep_index_on_large_entries(monkeypatch):
    # gamma = (g1 g2^-1)^(N 10^11) g2^(3N) g1^N lies in the level-N group
    # and has entries of about 14 digits; a witness word would take about
    # that many syllables, the classifier and its witness matrix a
    # logarithmic number of steps
    from fermatkl import fermat, sl2

    def refuse(*args):
        raise AssertionError("the classifier decomposed its witness into a word")

    assert not hasattr(fermat, "decompose_gamma2")
    monkeypatch.setattr(sl2, "decompose_gamma2", refuse)
    for n in (2, 3, 4, 5):
        gamma = (GEN1 * GEN2.inverse()) ** (n * 10 ** 11) * GEN2 ** (3 * n) * GEN1 ** n
        assert is_in_gamma_n(gamma, n) and max(map(abs, gamma.entries())) > 10 ** 12
        sums = (n * 10 ** 11 + n, 3 * n - n * 10 ** 11)
        assert gamma2_exponent_sums(*gamma.entries()) == sums == gamma2_exponent_sums_dedekind(*gamma.entries())
        for index, fc in enumerate(cusp_reps(n)):
            c = mobius_apply(gamma, fc.rep)
            assert classify_rep_index(c.p, c.q, n) == index, (n, str(fc.rep))
            assert classify_rep_index_dedekind(c.p, c.q, n) == index, (n, str(fc.rep))
            fc_c, w = classify_cusp(c, n)
            assert fc_c == fc
            _assert_witness(c, n, fc, w)


def test_classify_cusp_matches_euclid_on_13_digit_entries():
    # seeded cusps with 13-digit entries: the walk's class is the
    # Euclidean reduction's, and the witness is valid
    rng = random.Random(1913)
    cusps = []
    while len(cusps) < 60:
        p, q = rng.randint(-10 ** 13, 10 ** 13), rng.randint(10 ** 12, 10 ** 13)
        if gcd(p, q) == 1:
            cusps.append(Cusp(p, q))
    for n in range(1, 9):
        for c in cusps:
            fc, w = classify_cusp(c, n)
            assert classify_cusp_word_euclid(c, n)[0] == fc, (str(c), n)
            _assert_witness(c, n, fc, w)


def test_classify_rep_index_matches_classifier():
    rng = random.Random(13)
    for n in (2, 5):
        batch = []
        for _ in range(200):
            p, q = rng.randint(-60, 60), rng.randint(0, 60)
            if gcd(p, q) != 1:
                continue
            c = Cusp(p, q)
            fc, w = classify_cusp(c, n)
            fc_idx = cusp_reps(n)[classify_rep_index(c.p, c.q, n)]
            # the Euclidean classifier shares no code with the walk
            fc2, w2 = classify_cusp_word_euclid(c, n)
            assert fc2 == fc == fc_idx
            assert is_in_gamma_n(word_to_matrix(w2), n) and mobius_apply(word_to_matrix(w2), fc.rep) == c
            # the word the classify command prints spells the witness
            assert word_to_matrix(decompose_gamma2(classify_cusp(c, n)[1])) == w
            _assert_witness(c, n, fc, w)
            assert gamma2_base(c) == gamma2_base(fc_idx.rep)
            if c.q:
                batch.append((c.p, c.q, cusp_reps(n).index(fc)))
        # the batched Dedekind-sum oracle over the same cusps
        p, q, want = zip(*batch)
        assert classify_rep_indices(p, q, n).tolist() == list(want)


@pytest.mark.parametrize("state, field", [(s, f) for s in range(6) for f in range(3)])
def test_tau_map_off_by_one_fails_witness(monkeypatch, state, field):
    # the witness certifies the class: with an entry of TAU_MAP plus 1 the
    # class of some cusp of a seeded grid is wrong, and no g_c T^k g_rep^-1
    # with -n < k <= n lies in the group
    from fermatkl import fermat

    rng = random.Random(4177)
    grid = []
    while len(grid) < 300:
        p, q = rng.randint(-60, 60), rng.randint(0, 60)
        if gcd(p, q) == 1:
            grid.append(Cusp(p, q))
    # the map as built certifies every cusp of the grid
    for n in (2, 3, 4, 5):
        for c in grid:
            classify_cusp(c, n)
    mutant = [list(row) for row in fermat.TAU_MAP]
    mutant[state][field] += 1
    monkeypatch.setattr(fermat, "TAU_MAP", tuple(map(tuple, mutant)))
    # the classes memoized from the true map go, and those from the
    # mutant go before later tests
    fermat.classify_rep_index.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="no witness"):
            for n in (2, 3, 4, 5):
                for c in grid:
                    classify_cusp(c, n)
    finally:
        fermat.classify_rep_index.cache_clear()
