import random
from fractions import Fraction

import pytest

from cgobstruct import (
    Character,
    GAKnot,
    Piece,
    build_family,
    build_sigma_tables,
    eta_cable,
    eta_knot,
    sigma_cable,
    sigma_knot,
    sigma_torus,
)


def test_sigma_torus_values():
    assert sigma_torus(3, 1) == Fraction(-5, 3)
    assert sigma_torus(5, 2) == Fraction(-13, 5)
    assert sigma_torus(83, 0) == 0
    assert sigma_torus(83, 1) == Fraction(-6725, 83)


def test_sigma_torus_validation():
    with pytest.raises(ValueError):
        sigma_torus(9, 1)  # composite
    with pytest.raises(ValueError):
        sigma_torus(5, 5)  # residue out of range
    with pytest.raises(ValueError):
        sigma_torus(5, -1)


def test_sigma_cable_values():
    assert sigma_cable(3, 7, 1) == Fraction(-37, 7)
    assert sigma_cable(3, 7, 3) == Fraction(-53, 7)
    assert sigma_cable(17, 83, 0) == 0


def test_sigma_cable_unknot_companion_reduces_to_torus():
    for p in (5, 7, 83):
        for a in range(p):
            assert sigma_cable(1, p, a) == sigma_torus(p, a)


def test_sigma_cable_validation():
    with pytest.raises(ValueError):
        sigma_cable(3, 3, 1)  # gcd(p, 2 qc) != 1
    with pytest.raises(ValueError):
        sigma_cable(4, 7, 1)  # even companion
    with pytest.raises(ValueError):
        sigma_cable(3, 8, 1)  # cable not an odd prime


def test_eta_cable():
    assert eta_cable(17, 83, 5) == 0
    assert eta_cable(1, 103, 0) == 0
    assert eta_cable(3, 7, 2) == 0
    for a in range(1, 7):
        assert eta_cable(5, 7, a) == 0  # gcd(7, 10) = 1


def test_character_validation(flagship):
    Character.for_knot(flagship, [0] * 8)
    with pytest.raises(ValueError):
        Character.for_knot(flagship, [0] * 7)
    with pytest.raises(ValueError):
        Character.for_knot(flagship, [83, 0, 0, 0, 0, 0, 0, 0])


def test_sigma_knot_trivial_character(flagship):
    chi = Character.for_knot(flagship, [0] * 8)
    assert sigma_knot(flagship, chi) == 0
    assert eta_knot(flagship, chi) == 0


def test_sigma_knot_mirror_pair_cancels():
    K = GAKnot((Piece(3, 7, +1), Piece(3, 7, -1)))
    for a in range(7):
        chi = Character.for_knot(K, [a, a])
        assert sigma_knot(K, chi) == 0


def test_sigma_knot_single_torus_piece(flagship):
    chi = Character.for_knot(flagship, [0, 0, 1, 0, 0, 0, 0, 0])
    assert sigma_knot(flagship, chi) == Fraction(-6725, 83)
    assert eta_knot(flagship, chi) == 0


def test_eta_counting(flagship):
    chi = Character.for_knot(flagship, [1, 1, 0, 1, 0, 0, 0, 0])
    assert eta_knot(flagship, chi) == 2
    chi1 = Character.for_knot(flagship, [0, 0, 0, 0, 0, 0, 5, 0])
    assert eta_knot(flagship, chi1) == 0


def test_conjugation_symmetry(flagship):
    rng = random.Random(7)
    for _ in range(25):
        res = [rng.randrange(pc.cable_p) for pc in flagship.pieces]
        chi = Character.for_knot(flagship, res)
        neg = chi.negated(flagship)
        assert sigma_knot(flagship, chi) == sigma_knot(flagship, neg)
        assert eta_knot(flagship, chi) == eta_knot(flagship, neg)


def test_additivity():
    K1 = GAKnot((Piece(3, 7, +1), Piece(1, 5, -1)))
    K2 = GAKnot((Piece(5, 11, +1),))
    K = K1 + K2
    rng = random.Random(11)
    for _ in range(20):
        r1 = [rng.randrange(pc.cable_p) for pc in K1.pieces]
        r2 = [rng.randrange(pc.cable_p) for pc in K2.pieces]
        c1, c2 = Character.for_knot(K1, r1), Character.for_knot(K2, r2)
        c = Character.for_knot(K, r1 + r2)
        assert sigma_knot(K, c) == sigma_knot(K1, c1) + sigma_knot(K2, c2)
        s1 = sum(1 for a in r1 if a)
        s2 = sum(1 for a in r2 if a)
        expect = eta_knot(K1, c1) + eta_knot(K2, c2) + (1 if s1 and s2 else 0)
        if s1 + s2 == 0:
            expect = 0
        assert eta_knot(K, c) == expect


def test_mirror_antisymmetry(flagship):
    M = flagship.mirror()
    rng = random.Random(13)
    for _ in range(15):
        res = [rng.randrange(pc.cable_p) for pc in flagship.pieces]
        chi_k = Character.for_knot(flagship, res)
        chi_m = Character.for_knot(M, res)
        assert sigma_knot(M, chi_m) == -sigma_knot(flagship, chi_k)
        assert eta_knot(M, chi_m) == eta_knot(flagship, chi_k)


def test_denominator_bound(flagship):
    rng = random.Random(17)
    for _ in range(10):
        res = [rng.randrange(pc.cable_p) for pc in flagship.pieces]
        chi = Character.for_knot(flagship, res)
        den = sigma_knot(flagship, chi).denominator
        assert (83 * 103) % den == 0


def test_sigma_table_structure(flagship):
    for p in (83, 103):
        tab = build_sigma_tables(flagship, p)
        assert tab.p == p
        assert len(tab.piece_indices) == 4
        for i, j in enumerate(tab.piece_indices):
            pc = flagship.pieces[j]
            assert pc.cable_p == p
            sigma = [Fraction(int(v), p) for v in tab.scaled_sigma[i]]
            assert sigma[0] == 0 and tab.eta_arr[i][0] == 0
            for a in range(1, p):
                assert sigma[a] == sigma[p - a]
                direct = pc.sign * sigma_cable(pc.companion_q, p, a)
                assert sigma[a] == direct
                assert tab.eta_arr[i][a] == eta_cable(pc.companion_q, p, a)
                assert tab.scaled_sigma[i][a] == direct * p
def test_sigma_table_mirror_twins_negate():
    K = GAKnot((Piece(5, 7, +1), Piece(5, 7, -1)))
    tab = build_sigma_tables(K, 7)
    for a in range(7):
        assert Fraction(int(tab.scaled_sigma[0, a]), 7) == -Fraction(int(tab.scaled_sigma[1, a]), 7)
        assert tab.eta_arr[0, a] == tab.eta_arr[1, a]


def test_sigma_table_rejects_foreign_prime(flagship):
    with pytest.raises(ValueError):
        build_sigma_tables(flagship, 7)


def test_sigma_table_asserts_row_symmetry(monkeypatch):
    # the class scan is exact only if every row has entry[a] == entry[p-a]
    import cgobstruct.casson_gordon as cg

    K = GAKnot((Piece(3, 7, +1), Piece(5, 7, -1)))
    real = cg._cable_rows

    def skewed(qc, p):  # perturb the scaled entry at a = 1 of the first row
        sig, eta = (arr.copy() for arr in real(qc, p))
        if qc == 3:
            sig[1] += 1
        return sig, eta

    monkeypatch.setattr(cg, "_cable_rows", skewed)
    with pytest.raises(ArithmeticError, match="not symmetric"):
        cg.build_sigma_tables(K, 7)


def test_sigma_table_asserts_eta_vanishes(monkeypatch):
    # the scan kernel takes eta = support - 1, exact only while eta_cable is 0
    import cgobstruct.casson_gordon as cg

    K = GAKnot((Piece(3, 7, +1), Piece(5, 7, -1)))
    assert not cg.build_sigma_tables(K, 7).eta_arr.any()
    real = cg._cable_rows

    def nonzero(qc, p):  # a nullity at a = 3 (and its conjugate) of the second row
        sig, eta = (arr.copy() for arr in real(qc, p))
        if qc == 5:
            eta[3] = eta[4] = 2
        return sig, eta

    monkeypatch.setattr(cg, "_cable_rows", nonzero)
    with pytest.raises(ArithmeticError, match="nonzero eta_cable at p=7"):
        cg.build_sigma_tables(K, 7)
