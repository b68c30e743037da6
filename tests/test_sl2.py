import math
import random

import numpy as np
import pytest

from fermatkl.sl2 import (
    COSET_REPS,
    CUSP_INF,
    CUSP_ONE,
    CUSP_ZERO,
    Cusp,
    GEN1,
    GEN2,
    GammaWord,
    IDENTITY,
    Mat2Z,
    BATCH_ENTRY_BOUND,
    NotInGamma2,
    S,
    T,
    _coset_word,
    coset_index,
    coset_word_sums_batch,
    cusp_scaling_matrix,
    decompose_gamma2,
    exponent_sums,
    gamma2_exponent_sums,
    is_in_gamma2,
    is_in_gamma_n,
    mobius_apply,
    mobius_point,
    word_to_matrix,
)

from fermatkl.fermat import classify_cusp

from dedekind_oracles import gamma2_exponent_sums_batch, gamma2_exponent_sums_dedekind, mod_inverse_batch
from word_oracles import decompose_gamma2_ping_pong, word_from_syllables


def random_word(rng, max_len=12):
    total = rng.randint(0, max_len)
    syl = []
    used = 0
    gen = rng.choice([1, 2])
    while used < total:
        e = rng.randint(1, min(4, total - used)) * rng.choice([1, -1])
        syl.append((gen, e))
        used += abs(e)
        gen = 3 - gen
    return word_from_syllables(syl)


def test_mat2z_canonical_sign():
    m = Mat2Z(-1, 0, 0, -1)
    assert m == IDENTITY
    assert Mat2Z(1, -1, 1, 0) == Mat2Z(-1, 1, -1, 0)
    with pytest.raises(ValueError):
        Mat2Z(1, 1, 1, 1)


def test_cusp_canonical():
    assert Cusp(2, 4) == Cusp(1, 2)
    assert Cusp(-1, -2) == Cusp(1, 2)
    assert Cusp(-3, 0) == Cusp(1, 0)
    assert str(Cusp(1, 0)) == "inf"
    with pytest.raises(ValueError):
        Cusp(0, 0)


def test_mobius_apply_examples():
    assert mobius_apply(GEN1, CUSP_INF) == CUSP_INF
    assert mobius_apply(GEN2, CUSP_INF) == Cusp(1, 2)
    assert mobius_apply(Mat2Z(0, 1, -1, 0), CUSP_ZERO) == CUSP_INF


def test_mobius_apply_group_action():
    rng = random.Random(11)
    for _ in range(100):
        m1 = word_to_matrix(random_word(rng, 6))
        m2 = word_to_matrix(random_word(rng, 6))
        c = Cusp(rng.randint(-9, 9), rng.randint(1, 9))
        assert mobius_apply(m1 * m2, c) == mobius_apply(m1, mobius_apply(m2, c))


def test_mobius_point_examples():
    assert mobius_point(IDENTITY, 1j) == 1j
    assert abs(mobius_point(Mat2Z(0, 1, -1, 0), 1j) - 1j) < 1e-15
    assert abs(mobius_point(GEN1, 1j) - (2 + 1j)) < 1e-15
    with pytest.raises(ValueError):
        mobius_point(GEN1, 1 - 1j)


def test_mobius_point_stays_upper():
    rng = random.Random(5)
    for _ in range(50):
        m = word_to_matrix(random_word(rng, 8))
        z = rng.uniform(-2, 2) + 1j * rng.uniform(0.1, 3)
        assert mobius_point(m, z).imag > 0


def test_cusp_scaling_matrix_examples():
    assert cusp_scaling_matrix(CUSP_INF) == IDENTITY
    assert cusp_scaling_matrix(CUSP_ZERO) == Mat2Z(0, -1, 1, 0)
    assert cusp_scaling_matrix(Cusp(1, 2)) == GEN2


def test_cusp_scaling_matrix_maps_infinity():
    rng = random.Random(3)
    for _ in range(200):
        p, q = rng.randint(-40, 40), rng.randint(-40, 40)
        if p == 0 and q == 0:
            continue
        c = Cusp(p, q)
        assert mobius_apply(cusp_scaling_matrix(c), CUSP_INF) == c


def test_cusp_scaling_matrix_grid():
    # every coprime (p, q) with |p| <= 300 and 1 <= q < 120
    count = 0
    for q in range(1, 120):
        for p in range(-300, 301):
            if math.gcd(p, q) != 1:
                continue
            c = Cusp(p, q)
            g = cusp_scaling_matrix(c)
            assert (g.a, g.c) == (p, q) and 0 <= g.d < q
            assert g.a * g.d - g.b * g.c == 1
            assert mobius_apply(g, CUSP_INF) == c
            count += 1
    assert count == 43689


def test_is_in_gamma2():
    assert is_in_gamma2(IDENTITY)
    assert is_in_gamma2(GEN2)
    assert not is_in_gamma2(Mat2Z(1, 1, 0, 1))


def test_decompose_examples():
    assert decompose_gamma2(GEN1).syllables == ((1, 1),)
    assert decompose_gamma2(IDENTITY).syllables == ()
    w = word_from_syllables([(1, 2), (2, -3)])
    assert decompose_gamma2(word_to_matrix(w)) == w


def test_decompose_rejects_outside():
    # every coset but the level-2 group itself, as its representative
    # and times a level-2 word with entries beyond 2^63 on either side
    big = word_to_matrix(word_from_syllables([(1, 10 ** 6), (2, -999_999), (1, 3), (2, 10 ** 6)]))
    assert max(map(abs, big.entries())) > 2 ** 63
    for r in COSET_REPS[1:]:
        for m in (r, r * big, big * r):
            with pytest.raises(NotInGamma2):
                decompose_gamma2(m)
            assert gamma2_exponent_sums(*m.entries()) is None
            assert gamma2_exponent_sums(*(-x for x in m.entries())) is None


def test_decompose_matches_ping_pong_oracle():
    # the first-column Euclid against the 1-norm ping-pong: random reduced
    # words of 0-12 syllables with exponents up to 3, 50, 10^6 and 10^15,
    # and the classify witnesses at (q+1)/q and (3q+1)/q, whose words
    # have about q syllables
    rng = random.Random(22)
    for top in (3, 50, 10 ** 6, 10 ** 15):
        for _ in range(5000):
            gen = rng.choice((1, 2))
            w = GammaWord(tuple((1 + (gen + i) % 2, rng.choice((1, -1)) * rng.randint(1, top))
                                for i in range(rng.randint(0, 12))))
            # g^e built whole: word_to_matrix squares its way up to 10^15
            m = IDENTITY
            for g, e in w.syllables:
                m = m * (Mat2Z(1, 2 * e, 0, 1) if g == 1 else Mat2Z(1, 0, 2 * e, 1))
            assert decompose_gamma2(m) == decompose_gamma2_ping_pong(m) == w
    for q in (10, 10 ** 2, 10 ** 3, 10 ** 4):
        for p in (q + 1, 3 * q + 1):
            for n in (2, 3, 5):
                m = classify_cusp(Cusp(p, q), n)[1]
                w = decompose_gamma2(m)
                assert w == decompose_gamma2_ping_pong(m)
                assert len(w.syllables) >= q


def test_word_round_trip_random():
    rng = random.Random(101)
    for _ in range(2000):
        w = random_word(rng)
        m = word_to_matrix(w)
        assert decompose_gamma2(m) == w
        assert gamma2_exponent_sums(*m.entries()) == (w.r1, w.r2)


def test_exponent_sums():
    assert exponent_sums(word_from_syllables([])) == (0, 0)
    assert exponent_sums(word_from_syllables([(1, 2), (2, -3)])) == (2, -3)
    conj = word_from_syllables([(1, 1), (2, 1), (1, -1)])
    assert exponent_sums(conj) == (0, 1)


def test_exponent_sums_homomorphism():
    rng = random.Random(17)
    for _ in range(200):
        w1, w2 = random_word(rng, 8), random_word(rng, 8)
        both = word_to_matrix(w1) * word_to_matrix(w2)
        assert gamma2_exponent_sums(*both.entries()) == (w1.r1 + w2.r1, w1.r2 + w2.r2)


def test_is_in_gamma_n_examples():
    for n in (2, 3, 5):
        assert is_in_gamma_n(GEN2 ** n, n)
    assert not is_in_gamma_n(GEN1, 2)
    rng = random.Random(23)
    for _ in range(50):
        m = word_to_matrix(random_word(rng, 8))
        assert is_in_gamma_n(m, 1)


def test_gamma_n_membership_normal():
    # conjugation by the full modular group preserves membership
    rng = random.Random(29)
    t = Mat2Z(1, 1, 0, 1)
    s = Mat2Z(0, -1, 1, 0)
    for n in (2, 3):
        for _ in range(60):
            w = random_word(rng, 8)
            m = word_to_matrix(word_from_syllables(
                list(w.syllables) + [(1, (-w.r1) % n), (2, (-w.r2) % n)]))
            assert is_in_gamma_n(m, n)
            rho = IDENTITY
            for _ in range(rng.randint(0, 6)):
                rho = rho * rng.choice([t, s])
            assert is_in_gamma_n(rho * m * rho.inverse(), n)


def test_word_reduced_invariants():
    with pytest.raises(ValueError):
        word_from_syllables([(3, 1)])
    w = word_from_syllables([(1, 2), (1, 3), (2, 1), (2, -1), (1, 1)])
    assert w.syllables == ((1, 6),)


def test_exponent_sums_match_decomposition():
    # the coset-word walk and the Dedekind-sum oracles, scalar and batched,
    # against the first-column Euclid word on 20k random words, in both
    # sign forms
    rng = random.Random(2011)
    mats, want = [], []
    for _ in range(20000):
        w = random_word(rng, rng.choice((6, 20, 40)))
        m = word_to_matrix(w)
        r = (w.r1, w.r2)
        assert decompose_gamma2(m) == w
        assert gamma2_exponent_sums(*m.entries()) == r
        assert gamma2_exponent_sums(*(-x for x in m.entries())) == r
        assert gamma2_exponent_sums_dedekind(*m.entries()) == r
        if max(map(abs, m.entries())) <= BATCH_ENTRY_BOUND:
            mats.append(m.entries())
            want.append(r)
    assert len(mats) > 15000
    ent = np.array(mats, dtype=np.int64).T
    want = np.array(want, dtype=np.int64).T
    for sign in (1, -1):
        r1, r2 = gamma2_exponent_sums_batch(*(sign * ent))
        assert r1.dtype == r2.dtype == np.int64
        assert np.array_equal(r1, want[0]) and np.array_equal(r2, want[1])


def test_exponent_sums_edge_cases():
    # c = 0 in both sign forms
    assert gamma2_exponent_sums(1, 6, 0, 1) == (3, 0)
    assert gamma2_exponent_sums(-1, -6, 0, -1) == (3, 0)
    assert gamma2_exponent_sums(1, 0, 0, 1) == (0, 0)
    r1, r2 = gamma2_exponent_sums_batch([1, -1, 1, 1, -1], [6, 6, 0, 0, 0],
                                        [0, 0, 0, 4, -4], [1, -1, 1, 1, -1])
    assert r1.tolist() == [3, -3, 0, 0, 0] and r2.tolist() == [0, 0, 0, 2, 2]
    # not level 2: wrong parity, or not of determinant 1
    assert gamma2_exponent_sums(1, 1, 0, 1) is None
    assert gamma2_exponent_sums(1, 2, 2, 1) is None
    with pytest.raises(NotInGamma2):
        gamma2_exponent_sums_batch([1, 1], [0, 1], [0, 0], [1, 1])
    # scalar entries beyond 2^63 stay exact
    rng = random.Random(7)
    for _ in range(50):
        syl = [(1 + i % 2, rng.choice((1, -1)) * rng.randint(1, 10 ** 6)) for i in range(8)]
        w = word_from_syllables(syl)
        m = word_to_matrix(w)
        assert max(map(abs, m.entries())) > 2 ** 63
        assert gamma2_exponent_sums(*m.entries()) == (w.r1, w.r2) == exponent_sums(decompose_gamma2(m))
        assert gamma2_exponent_sums_dedekind(*m.entries()) == (w.r1, w.r2)


def test_exponent_sums_batch_int64_guard():
    big = word_to_matrix(word_from_syllables([(2, 1), (1, 2 ** 29)]))
    assert max(map(abs, big.entries())) > BATCH_ENTRY_BOUND
    assert gamma2_exponent_sums(*big.entries()) == (2 ** 29, 1)
    assert gamma2_exponent_sums_dedekind(*big.entries()) == (2 ** 29, 1)
    assert exponent_sums(decompose_gamma2(big)) == (2 ** 29, 1)
    with pytest.raises(OverflowError):
        gamma2_exponent_sums_batch(*([x] for x in big.entries()))


def test_mod_inverse_batch():
    k = np.array([1, 2, 7, 30, 2 ** 29 + 11], dtype=np.int64)
    h = np.array([0, 1, -3, 7, 12345], dtype=np.int64)
    inv = mod_inverse_batch(h, k)
    assert inv.tolist() == [0, 1] + [pow(int(x), -1, int(m)) for x, m in zip(h[2:], k[2:])]


def _euclid_word(c: int, d: int) -> Mat2Z:
    """T^q1 S^-1 T^q2 S^-1 ... from the Euclid on (d, -c) with quotients
    truncated toward zero: M^-1 T^-k for the M with bottom row (c, d)."""
    x, y, word = d, -c, IDENTITY
    while y:
        q = abs(x) // abs(y) * (1 if (x < 0) == (y < 0) else -1)
        x, y = -y, x - q * y
        word = word * T ** q * S.inverse()
    assert abs(x) == 1 and (word.a, word.c) in ((d, -c), (-d, c))
    return word


def test_coset_reps_cover_the_cosets():
    assert COSET_REPS[0] == IDENTITY and COSET_REPS[1] == T and len(COSET_REPS) == 6
    assert sorted(coset_index(r) for r in COSET_REPS) == list(range(6))
    for r in COSET_REPS:
        for g in (GEN1, GEN2):
            assert coset_index(r * g) == coset_index(g * r) == coset_index(r)


def test_coset_word_sums_match_matrix_words():
    # M^-1 = gamma R_s T^k: the word of the Euclid, multiplied out as
    # matrices, is gamma R_s, and the Dedekind-sum oracle gives gamma's
    # sums; gamma2_exponent_sums would read the batch's own round tables.
    # The exact-int walk on the same column gives the same (phi, s): one
    # walk in two number types
    rng = random.Random(2011)
    rows = [(1, 0), (1, 1), (2, 1), (3, 2), (5, 8), (BATCH_ENTRY_BOUND, BATCH_ENTRY_BOUND - 1)]
    for bits in (4, 10, 20, 28):
        for _ in range(200):
            c = rng.randint(1, 1 << bits)
            d = rng.choice((1, c - 1, c + 1, 2 * c - 1, rng.randint(0, 2 * c)))
            if d >= 0 and math.gcd(c, d) == 1:
                rows.append((c, d))
    c, d = np.array(rows, dtype=np.int64).T
    phi1, phi2, state = coset_word_sums_batch(c, d)
    assert phi1.dtype == phi2.dtype == state.dtype == np.int64
    for i, (cv, dv) in enumerate(rows):
        gamma = _euclid_word(cv, dv) * COSET_REPS[state[i]].inverse()
        assert is_in_gamma2(gamma), (cv, dv)
        assert gamma2_exponent_sums_dedekind(*gamma.entries()) == (phi1[i], phi2[i]), (cv, dv)
        assert _coset_word(dv, -cv)[:3] == (phi1[i], phi2[i], state[i]), (cv, dv)
    # int32 rows give the same sums
    got = coset_word_sums_batch(c.astype(np.int32), d.astype(np.int32))
    assert all(np.array_equal(x, y) for x, y in zip(got, (phi1, phi2, state)))


def test_coset_word_sums_domain():
    assert all(x.size == 0 for x in coset_word_sums_batch([], []))
    for c, d in (([4], [2]), ([0], [1]), ([3], [-1])):
        with pytest.raises(ValueError):
            coset_word_sums_batch(c, d)
    with pytest.raises(OverflowError):
        coset_word_sums_batch([BATCH_ENTRY_BOUND + 2], [1])


def test_round_tables_pinned():
    # the walk's tables, which both number types read: the sums per unit
    # of j per state s, and per 2 s + e the fixed sums and the next state
    from fermatkl import sl2

    assert sl2._WALK_PER_J == ((1, 0), (1, 0), (0, -1), (-1, 1), (0, -1), (-1, 1))
    assert sl2._WALK_FIXED == ((0, 0), (0, 0), (0, 0), (1, 0), (0, 0), (0, -1),
                               (0, 0), (0, 1), (0, -1), (0, -1), (0, 1), (-1, 1))
    assert sl2._WALK_NEXT == (2, 3, 3, 2, 0, 5, 1, 4, 5, 0, 4, 1)


@pytest.mark.parametrize("table, slot, lane",
                         [("_WALK_PER_J", i, lane) for i in range(6) for lane in (0, 1)]
                         + [("_WALK_FIXED", i, lane) for i in range(12) for lane in (0, 1)]
                         + [("_WALK_NEXT", i, None) for i in range(12)])
def test_walk_table_off_by_one_fails(monkeypatch, table, slot, lane):
    # an off-by-one in any entry of the walk's tables, in r1 (lane 0), r2
    # (lane 1) or the next state mod 6, makes gamma2_exponent_sums disagree
    # with the word reduction on seeded random words, or raise
    from fermatkl import sl2

    entries = list(getattr(sl2, table))
    if lane is None:
        entries[slot] = (entries[slot] + 1) % len(COSET_REPS)
    else:
        entries[slot] = tuple(x + (k == lane) for k, x in enumerate(entries[slot]))
    monkeypatch.setattr(sl2, table, tuple(entries))
    rng = random.Random(2011)
    for _ in range(2000):
        m = word_to_matrix(random_word(rng, 20))
        try:
            if gamma2_exponent_sums(*m.entries()) != exponent_sums(decompose_gamma2(m)):
                return
        except ArithmeticError:
            return
    pytest.fail(f"{table}[{slot}] off by one agreed on 2000 words")
