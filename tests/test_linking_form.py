import itertools
import tracemalloc

import numpy as np
import pytest

from cgobstruct import (
    GAKnot,
    Piece,
    enumerate_projective_isotropic,
    primary_parts,
    sqrt_table,
)
from cgobstruct import kernels
from cgobstruct.kernels import enumerate_rung_one
from cgobstruct.linking_form import isotropic_point_count

from oracles import brute_isotropic, enumerate_isotropic_classes, expand_projective, form_part, is_isotropic


def test_primary_parts_flagship(flagship):
    parts = primary_parts(flagship)
    assert [(P.p, P.piece_indices, P.signs) for P in parts] == [
        (83, (0, 1, 2, 3), (1, -1, 1, -1)),
        (103, (4, 5, 6, 7), (1, -1, 1, -1)),
    ]


def test_primary_parts_small():
    K = GAKnot((Piece(1, 5, +1),))
    [P] = primary_parts(K)
    assert (P.p, P.signs) == (5, (1,))
    K2 = GAKnot((Piece(5, 7, +1), Piece(5, 7, -1)))
    [P2] = primary_parts(K2)
    assert (P2.p, P2.signs) == (7, (1, -1))


def test_is_isotropic():
    signs = (1, -1, 1, -1)
    assert is_isotropic((1, 1, 0, 0), signs, 83)
    assert not is_isotropic((1, 0, 0, 0), signs, 83)
    assert not is_isotropic((1, 2, 1, 2), signs, 5)  # 1-4+1-4 = -6 != 0 mod 5
    with pytest.raises(ValueError):
        is_isotropic((1, 0), signs, 5)


def test_sqrt_table():
    for p in (3, 5, 7, 11, 13, 83):
        tab = sqrt_table(p)
        for s in range(p):
            r = tab[s]
            if r >= 0:
                assert r * r % p == s
                assert 0 <= r <= (p - 1) // 2
            else:
                assert all(x * x % p != s for x in range(p))


def test_enumeration_matches_brute_force_all_sign_patterns():
    for p in (5, 7, 11, 13):
        for signs in itertools.product((1, -1), repeat=4):
            part = form_part(p, signs)
            reps = list(enumerate_projective_isotropic(part))
            for x in reps:
                assert is_isotropic(x, signs, p)
                assert next(v for v in x if v) == 1  # normalized representative
            # no two representatives are proportional
            seen = set()
            for x in reps:
                for c in range(1, p):
                    mult = tuple(c * v % p for v in x)
                    assert mult not in seen
                    seen.add(mult)
            assert expand_projective(reps, p, 4) == brute_isotropic(p, signs)


def test_enumeration_hyperbolic_count():
    for p in (5, 7, 11, 13, 83, 103):
        part = form_part(p, (1, -1, 1, -1))
        reps = list(enumerate_projective_isotropic(part))
        assert len(reps) == (p + 1) ** 2


def test_enumeration_rank_two_definite():
    # x^2 + y^2 = 0 mod 5 has only the zero solution (-1 is a residue mod 5:
    # 2^2 = 4 = -1, so x^2 = -y^2 does have solutions; check against brute force)
    for signs in ((1, 1), (1, -1)):
        part = form_part(5, signs)
        reps = list(enumerate_projective_isotropic(part))
        assert expand_projective(reps, 5, 2) == brute_isotropic(5, signs)


def test_enumeration_rank_one_empty():
    part = form_part(7, (1,))
    assert list(enumerate_projective_isotropic(part)) == []


def test_enumeration_order_deterministic_and_sorted():
    part = form_part(7, (1, -1, 1, -1))
    reps = list(enumerate_projective_isotropic(part))
    assert reps == sorted(reps)
    assert reps == list(enumerate_projective_isotropic(part))


def test_to_character(flagship):
    P83 = primary_parts(flagship)[0]
    chi = P83.to_character((1, 2, 3, 4), flagship)
    assert chi.residues == (1, 2, 3, 4, 0, 0, 0, 0)
    P103 = primary_parts(flagship)[1]
    chi2 = P103.to_character((5, 0, 0, 1), flagship)
    assert chi2.residues == (0, 0, 0, 0, 5, 0, 0, 1)


def test_odd_rank_pattern_supported():
    part = form_part(7, (1, 1, -1))
    reps = list(enumerate_projective_isotropic(part))
    assert expand_projective(reps, 7, 3) == brute_isotropic(7, (1, 1, -1))


def _classes(part):
    """The oracle's classes as a list of (rep tuple, orbit size)."""
    xs, sizes = enumerate_isotropic_classes(part)
    assert xs.dtype == sizes.dtype == np.int64
    assert xs.shape == (len(sizes), part.rank)
    return [(tuple(rep), size) for rep, size in zip(xs.tolist(), sizes.tolist())]


def _check_classes_brute_force(part):
    p, r, half = part.p, part.rank, (part.p - 1) // 2
    classes = _classes(part)
    reps = [rep for rep, _ in classes]
    assert reps == sorted(set(reps))
    orbits = set()
    for rep, size in classes:
        lead = next(i for i, v in enumerate(rep) if v)
        assert rep[lead] == 1 and is_isotropic(rep, part.signs, p)
        assert all(0 <= v <= half for v in rep[lead + 1 :])
        assert rep[-1] == sqrt_table(p)[rep[-1] ** 2 % p]
        # every sign pattern on the non-leading coordinates
        orbit = {
            rep[: lead + 1] + tuple(s * v % p for s, v in zip(flips, rep[lead + 1 :]))
            for flips in itertools.product((1, -1), repeat=r - lead - 1)
        }
        assert len(orbit) == size
        assert not orbit & orbits  # classes are disjoint
        orbits |= orbit
    points = list(enumerate_projective_isotropic(part))
    assert sum(size for _, size in classes) == len(points)
    assert orbits == set(points)
    assert expand_projective(orbits, p, r) == brute_isotropic(p, part.signs)


def test_classes_match_brute_force_all_sign_patterns():
    for p in (5, 7, 11, 13):
        for r in (2, 3, 4):
            for signs in itertools.product((1, -1), repeat=r):
                _check_classes_brute_force(form_part(p, signs))


def _rung_one_classes(part):
    """The rung-one enumerator's classes as (xs, sizes): with a zero table
    every class is unwitnessed, so every one is written out, and its k = 1
    bound is -p*eta."""
    one = enumerate_rung_one(part, np.zeros((part.rank, part.p), dtype=np.int64), 0, 0)
    sizes = 1 << (-one.bound // part.p)
    assert len(one.xs) == len(sizes) and one.points == sizes.sum()
    return one.xs, sizes


@pytest.mark.parametrize("cells", [1, 5, 40])
def test_classes_in_tiny_slabs_match_brute_force(monkeypatch, cells):
    # slabs of one row or of a few cells cut every grid at many slab edges;
    # the rows, their order and the orbit sizes are the oracle's
    cases = [(7, (1,)), (7, (1, -1)), (11, (1, 1, -1)), (11, (1, -1, 1, -1)), (7, (1, 1, 1, -1))]
    cases += [(5, (1, -1, 1, -1, 1)), (7, (-1, -1, 1, 1, 1)), (3, (1, -1, 1, -1, 1, -1)), (5, (1, 1, 1, 1, -1, 1))]
    monkeypatch.setattr(kernels, "CELLS", cells)
    for p, signs in cases:
        part = form_part(p, signs)
        xs, sizes = enumerate_isotropic_classes(part)
        got = _rung_one_classes(part)
        assert np.array_equal(got[0], xs) and np.array_equal(got[1], sizes)
        _check_classes_brute_force(part)


def test_classes_memory_at_p307():
    # 12,013 classes scored slab by slab with a zero table (all unwitnessed,
    # so every class is written out): the traced peak stays within 2x the
    # bytes of the arrays returned plus eight CELLS-cell slabs of scratch
    part = form_part(307, (1, -1, 1, -1))
    S = np.zeros((4, 307), dtype=np.int64)
    tracemalloc.start()
    try:
        one = enumerate_rung_one(part, S, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(one.bound) == len(one.xs) == 12013
    cap = 2 * sum(arr.nbytes for arr in one[:2]) + 8 * 8 * kernels.CELLS
    assert peak <= cap, (peak, cap)


def test_classes_rank_below_two_empty():
    for part in (form_part(7, (1,)), form_part(7, ())):
        assert _classes(part) == []


def test_classes_flagship_counts():
    # orbit sizes add up to the hyperbolic (p+1)^2, over ~8x fewer classes
    for p in (83, 103):
        classes = _classes(form_part(p, (1, -1, 1, -1)))
        assert sum(size for _, size in classes) == (p + 1) ** 2
        assert len(classes) < (p + 1) ** 2 / 6


def test_isotropic_point_count_closed_form():
    # every sign pattern at ranks 0-5 for p <= 13, and ranks 0-4 at p = 83:
    # 346 parts, each against the orbit sizes of the class enumeration
    cases = [(p, r) for p in (3, 5, 7, 11, 13) for r in range(6)] + [(83, r) for r in range(5)]
    seen = 0
    for p, r in cases:
        for signs in itertools.product((1, -1), repeat=r):
            part = form_part(p, signs)
            _, sizes = enumerate_isotropic_classes(part)
            assert isotropic_point_count(part) == int(sizes.sum()), (p, signs)
            seen += 1
    assert seen == 346
    assert isotropic_point_count(form_part(83, (1, -1, 1, -1))) == 84**2
