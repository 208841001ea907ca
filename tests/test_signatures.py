import bisect
import math
from fractions import Fraction

import numpy as np
import pytest

from cgobstruct import (
    GAKnot,
    Piece,
    RootOfUnity,
    lt_nullity,
    lt_signature,
    signature_at_minus_one,
    signature_function_samples,
    signature_nullity_exact,
    torus_signature_at_angle,
)

from oracles import (
    eigen_signature,
    hits_alexander_root,
    hits_alexander_root_scaled,
    grid_signature_samples,
    kernel_dimension,
    seifert_matrix_T2,
    signature_arcs,
    sturm_signature_nullity,
    torus_alexander,
)


def test_root_of_unity_reduction():
    assert RootOfUnity(2, 6) == RootOfUnity(1, 3)
    assert RootOfUnity(5, 5) == RootOfUnity(0, 1)
    assert RootOfUnity(7, 5) == RootOfUnity(2, 5)
    assert RootOfUnity(3, 6).m == 2
    assert RootOfUnity(-1, 8) == RootOfUnity(7, 8)
    with pytest.raises(ValueError):
        RootOfUnity(1, 0)


def test_seifert_matrix():
    V = seifert_matrix_T2(3)
    assert V.tolist() == [[-1, 1], [0, -1]]
    V5 = seifert_matrix_T2(5)
    assert V5.shape == (4, 4)
    eig = np.linalg.eigvalsh(V5 + V5.T)
    assert int(np.sign(eig).sum()) == -4
    with pytest.raises(ValueError):
        seifert_matrix_T2(4)
    with pytest.raises(ValueError):
        seifert_matrix_T2(1)


def test_seifert_matrix_determinant_contract():
    # det(tV - V^T) equals the Alexander polynomial up to units
    for q in (3, 5, 7):
        V = seifert_matrix_T2(q)
        # integer evaluation at a few points determines the degree-(q-1) poly
        for t in (2, 3, -2):
            det = round(np.linalg.det(t * V - V.T))
            expect = torus_alexander(q)(t)
            assert abs(det) == abs(expect), (q, t)


def test_lt_signature_trefoil_values():
    assert lt_signature(3, RootOfUnity(1, 3)) == -2
    assert lt_signature(3, RootOfUnity(1, 7)) == 0
    assert lt_signature(1, RootOfUnity(3, 7)) == 0
    assert lt_signature(3, RootOfUnity(0, 1)) == 0  # w = 1 convention
    for q in (3, 5, 7, 9):
        assert lt_signature(q, RootOfUnity(1, 2)) == -(q - 1)


def test_lt_signature_rejects_bad_q():
    with pytest.raises(ValueError):
        lt_signature(4, RootOfUnity(1, 3))
    with pytest.raises(ValueError):
        lt_signature(-3, RootOfUnity(1, 3))


def test_lt_nullity_values():
    assert lt_nullity(3, RootOfUnity(1, 6)) == 1
    assert lt_nullity(3, RootOfUnity(5, 6)) == 1
    assert lt_nullity(3, RootOfUnity(1, 3)) == 0
    assert lt_nullity(1, RootOfUnity(1, 5)) == 0
    for a in range(1, 83):
        assert lt_nullity(3, RootOfUnity(a, 83)) == 0  # gcd(83, 6) = 1


def test_nullity_matches_root_structure():
    # roots of (t^q + 1)/(t + 1): order divides 2q, not q, and is not 2
    for q in (3, 5, 9, 15):
        for m in range(2, 40):
            for a in range(1, m):
                order = m // math.gcd(a, m)
                expect = 1 if (2 * q) % order == 0 and q % order != 0 and order != 2 else 0
                assert lt_nullity(q, RootOfUnity(a, m)) == expect


def test_conjugation_symmetry():
    for q in (3, 5, 7):
        for m in (5, 7, 12, 30):
            for a in range(1, m):
                w, wbar = RootOfUnity(a, m), RootOfUnity(m - a, m)
                assert lt_signature(q, w) == lt_signature(q, wbar)
                assert lt_nullity(q, w) == lt_nullity(q, wbar)


def test_signature_even_when_nonsingular():
    for q in (3, 5, 7, 9):
        for m in (5, 7, 11, 13):
            for a in range(1, m):
                if lt_nullity(q, RootOfUnity(a, m)) == 0:
                    assert lt_signature(q, RootOfUnity(a, m)) % 2 == 0


def test_no_jump_before_first_alexander_root():
    # strictly inside angle (0, pi/q) the form stays definite-free: signature 0
    for q in (3, 5, 7, 9, 11, 13, 15):
        for j in range(1, 40):
            x = Fraction(j, 40 * q)  # angle x*pi < pi/q
            assert torus_signature_at_angle(q, x) == 0
        assert lt_signature(q, RootOfUnity(1, 4 * q)) == 0


def test_eigencount_matches_independent_sturm_oracle():
    # the two float oracles agree with each other and with the lattice count
    for q in (3, 7, 15):
        for m in range(2, 31):
            for a in range(1, m):
                sig = lt_signature(q, RootOfUnity(a, m))
                nul = lt_nullity(q, RootOfUnity(a, m))
                assert (sig, nul) == sturm_signature_nullity(q, a, m), (q, a, m)
                assert sig == eigen_signature(q, a, m), (q, a, m)


def test_exact_chain_matches_eigencount():
    for q in (1, 3, 5, 9, 13):
        for m in range(2, 25):
            for a in range(1, m):
                want = (eigen_signature(q, a, m), kernel_dimension(q, a, m))
                assert signature_nullity_exact(q, a, m) == want, (q, a, m)
                assert signature_nullity_exact(q, a - 2 * m, m) == want, (q, a, m)


def test_exact_chain_rejects_w_equal_one():
    with pytest.raises(ValueError):
        signature_nullity_exact(3, 0, 5)
    with pytest.raises(ValueError):
        signature_nullity_exact(3, 5, 5)
    with pytest.raises(ValueError):
        signature_nullity_exact(4, 1, 5)


def test_angle_formula_matches_hermitian_eigenvalues():
    # the exact lattice-count signature agrees with a numeric eigencount
    for q in (3, 5, 9):
        for num, den in ((1, 5), (2, 5), (1, 2), (3, 4), (7, 9), (13, 10), (9, 5)):
            x = Fraction(num, den)
            assert torus_signature_at_angle(q, x) == eigen_signature(q, num, 2 * den), (q, x)


def test_eigen_oracle_fails_loudly_inside_its_band(monkeypatch):
    # an eigenvalue between the zero cut and the sign cut is ambiguous
    import oracles

    real = oracles._twisted_form
    monkeypatch.setattr(oracles, "_twisted_form", lambda q, a, m: real(q, a, m) + 1e-9 * np.eye(q - 1))
    with pytest.raises(AssertionError, match="ambiguous eigenvalue"):
        eigen_signature(3, 1, 6)  # a zero mode, shifted into the band
    assert eigen_signature(3, 1, 3) == -2


def test_signature_at_minus_one(flagship):
    assert signature_at_minus_one(flagship) == 0
    assert signature_at_minus_one(GAKnot((Piece(1, 5, +1),))) == -4
    K = GAKnot((Piece(3, 7, +1), Piece(5, 11, -1)))
    assert signature_at_minus_one(K) == -(7 - 1) + (11 - 1)
    assert signature_at_minus_one(K + K.mirror()) == 0


def test_signature_samples_trefoil():
    K = GAKnot((Piece(1, 3, +1),))
    # arcs (0, 1/3) and (1/3, 1], each sampled at its midpoint
    assert signature_function_samples(K) == [(Fraction(1, 6), 0), (Fraction(2, 3), -2)]
    # just above the jump at pi/3 the value is -2
    assert torus_signature_at_angle(3, Fraction(1, 3) + Fraction(1, 1000)) == -2
    assert torus_signature_at_angle(3, Fraction(1, 3) - Fraction(1, 1000)) == 0


def test_signature_samples_avoid_roots():
    # one sample strictly inside each arc, so never on an Alexander root
    for K in (
        GAKnot((Piece(1, 3, +1),)),
        GAKnot((Piece(3, 5, +1), Piece(1, 7, -1))),
        GAKnot((Piece(5, 7, +1), Piece(9, 11, +1), Piece(1, 3, -1))),
    ):
        samples = signature_function_samples(K)
        arcs = signature_arcs(K)
        assert len(samples) == len(arcs)
        for (x, _), (lo, hi) in zip(samples, arcs):
            assert lo < x < hi
            assert not hits_alexander_root(K, x), (K, x)


def test_signature_samples_mirror_cancel():
    K = GAKnot((Piece(5, 7, +1), Piece(5, 7, -1)))
    samples = signature_function_samples(K)
    assert len(samples) == 9  # 3 roots j/7, 5 angles j/10, end point 1
    assert all(v == 0 for _, v in samples)
    assert any(v != 0 for _, v in signature_function_samples(GAKnot(K.pieces[:1])))


def test_signature_samples_family_vanish(flagship):
    assert all(v == 0 for _, v in signature_function_samples(flagship))


def test_signature_samples_one_inside_each_flagship_arc(flagship):
    samples = signature_function_samples(flagship)
    arcs = signature_arcs(flagship)
    assert len(samples) == len(arcs) == 132
    for (x, _), (lo, hi) in zip(samples, arcs):
        assert lo < x < hi


def test_signature_samples_cover_arcs_the_1024_grid_misses(flagship):
    grid = [x for x, _ in grid_signature_samples(flagship, 1024)]
    assert grid == sorted(grid)
    missed = [
        (lo, hi)
        for lo, hi in signature_arcs(flagship)
        if bisect.bisect_right(grid, lo) == bisect.bisect_left(grid, hi)
    ]
    assert len(missed) == 5
    xs = [x for x, _ in signature_function_samples(flagship)]
    for lo, hi in missed:
        assert hi - lo < Fraction(1, 1024)
        assert sum(1 for x in xs if lo < x < hi) == 1, (lo, hi)


def test_grid_oracle_integer_root_test_matches_fraction_version(flagship):
    knots = (
        flagship,
        GAKnot((Piece(1, 3, +1),)),
        GAKnot((Piece(3, 5, +1), Piece(1, 7, -1))),
        GAKnot((Piece(5, 7, +1), Piece(9, 11, +1), Piece(1, 3, -1))),
    )
    seen = set()
    for K in knots:
        # every denominator up to 2q' = 34, and the flagship's cable primes
        for n in [*range(1, 36), 83, 103]:
            for u in range(1, 2 * n):
                want = hits_alexander_root(K, Fraction(u, n))
                assert hits_alexander_root_scaled(K, u, n) == want, (str(K), u, n)
                seen.add(want)
    assert seen == {False, True}
