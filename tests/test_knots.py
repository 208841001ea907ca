import pytest

from cgobstruct import (
    GAKnot,
    Piece,
    build_family,
    fox_milnor_check,
    parse_knot,
)

from oracles import alexander_polynomial, is_algebraic_piece, torus_alexander


def test_piece_validation():
    Piece(17, 83, +1)
    Piece(1, 3, -1)
    Piece(9, 5, +1)  # composite odd companion is allowed
    with pytest.raises(ValueError):
        Piece(2, 5, 1)  # even companion
    with pytest.raises(ValueError):
        Piece(3, 9, 1)  # composite cable
    with pytest.raises(ValueError):
        Piece(3, 2, 1)  # even cable
    with pytest.raises(ValueError):
        Piece(3, 5, 0)  # bad sign
    with pytest.raises(ValueError):
        Piece(5, 5, 1)  # p divides 2q'
    with pytest.raises(ValueError):
        Piece(15, 5, 1)  # p divides 2q' with composite companion


def test_gaknot_needs_pieces():
    with pytest.raises(ValueError):
        GAKnot(())


@pytest.mark.parametrize("item", [(17, 83, 1), [17, 83, 1], "T(2,17;2,83)", None])
def test_gaknot_refuses_items_that_are_not_pieces(item):
    # a bare triple used to build a knot that failed later on pc.cable_p
    with pytest.raises(ValueError, match="Piece"):
        GAKnot([item])
    with pytest.raises(ValueError, match="Piece"):
        GAKnot((Piece(17, 83, 1), item))


def test_build_family_flagship_piece_list():
    K = build_family(83, 103, 17, 11, 13)
    expect = [
        (17, 83, +1),
        (11, 83, -1),
        (1, 83, +1),
        (13, 83, -1),
        (11, 103, +1),
        (1, 103, -1),
        (13, 103, +1),
        (17, 103, -1),
    ]
    assert [(p.companion_q, p.cable_p, p.sign) for p in K.pieces] == expect
    assert [p.sign for p in K.pieces] == [1, -1, 1, -1, 1, -1, 1, -1]
    assert K.rank(83) == 4 and K.rank(103) == 4
    assert K.primes() == [83, 103]


def test_build_family_k1():
    K1 = build_family(107, 131, 23, 17, 19)
    assert K1.pieces[0] == Piece(23, 107, +1)
    assert K1.rank(107) == 4 and K1.rank(131) == 4


def test_build_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_family(3, 3, 5, 7, 11)  # repeated prime
    with pytest.raises(ValueError):
        build_family(83, 103, 17, 11, 12)  # not prime
    with pytest.raises(ValueError):
        build_family(83, 103, 17, 11, 9)  # composite


def test_is_algebraic_piece():
    assert is_algebraic_piece(Piece(17, 83, +1))  # 83 > 68
    assert not is_algebraic_piece(Piece(17, 67, +1))  # 67 < 68
    assert is_algebraic_piece(Piece(1, 83, +1))  # plain torus knot
    assert is_algebraic_piece(Piece(17, 83, -1))  # mirror reports its positive twin


def test_torus_alexander():
    assert dict(torus_alexander(3).coeffs) == {0: 1, 1: -1, 2: 1}
    assert dict(torus_alexander(1).coeffs) == {0: 1}
    assert torus_alexander(5)(-1) == 5
    with pytest.raises(ValueError):
        torus_alexander(4)


def test_alexander_trefoil():
    K = GAKnot((Piece(1, 3, +1),))
    assert dict(alexander_polynomial(K).coeffs) == {0: 1, 1: -1, 2: 1}


def test_alexander_mirror_square():
    K = GAKnot((Piece(1, 3, +1), Piece(1, 3, -1)))
    d = alexander_polynomial(K)
    sq = torus_alexander(3) * torus_alexander(3)
    assert d == sq.normalized()


def test_alexander_family_degree_and_determinant(flagship):
    d = alexander_polynomial(flagship)
    # companions 17, 11, 13 appear twice each at t^2, cables 83 and 103 four times
    assert d.degree_span() == 2 * (2 * (16 + 10 + 12)) + 4 * 82 + 4 * 102 == 888
    assert abs(d(-1)) == (83 * 103) ** 4
    assert d.is_palindromic()
    assert d.coeffs[0][0] == 0 and d.coeffs[0][1] > 0


def test_alexander_determinant_is_product_of_cable_primes():
    K = GAKnot((Piece(3, 7, +1), Piece(5, 11, -1), Piece(1, 3, +1)))
    assert abs(alexander_polynomial(K)(-1)) == 7 * 11 * 3


def test_fox_milnor_family(flagship):
    res = fox_milnor_check(flagship)
    assert res.ok
    assert res.unpaired == ()
    # cable factors pair twice per prime, companion factors once per value
    assert len(res.pairs) == 7
    paired = sorted(label for label, _, _ in res.pairs)
    assert paired == [
        "cable[103]",
        "cable[103]",
        "cable[83]",
        "cable[83]",
        "companion[11]",
        "companion[13]",
        "companion[17]",
    ]
    # the pairing covers every factor occurrence exactly once
    seen = {}
    for label, i, j in res.pairs:
        for piece in (i, j):
            seen.setdefault(label, []).append(piece)
    for label, pieces in seen.items():
        assert len(pieces) == len(set(pieces))


def test_fox_milnor_trefoil_fails():
    res = fox_milnor_check(GAKnot((Piece(1, 3, +1),)))
    assert not res.ok
    assert res.unpaired == (("cable[3]", 0),)


def test_fox_milnor_sum_with_mirror():
    K = GAKnot((Piece(1, 3, +1), Piece(1, 3, -1)))
    assert fox_milnor_check(K).ok


def test_fox_milnor_invariance(flagship):
    perm = GAKnot(tuple(reversed(flagship.pieces)))
    assert fox_milnor_check(perm).ok == fox_milnor_check(flagship).ok
    assert fox_milnor_check(flagship.mirror()).ok == fox_milnor_check(flagship).ok


def test_parse_and_format_roundtrip(flagship):
    for K in (
        flagship,
        GAKnot((Piece(5, 7, +1), Piece(5, 7, -1))),
        GAKnot((Piece(1, 3, -1),)),
    ):
        assert parse_knot(str(K)) == K


def test_parse_knot_grammar():
    K = parse_knot(" T(2,5;2,7)  #  -T(2,5;2,7) ")
    assert K.pieces == (Piece(5, 7, +1), Piece(5, 7, -1))
    assert parse_knot("-T(2,3)").pieces == (Piece(1, 3, -1),)
    fam = parse_knot("family(83,103,17,11,13)")
    assert fam == build_family(83, 103, 17, 11, 13)
    mixed = parse_knot("T(2,3) # family(83,103,17,11,13)")
    assert len(mixed.pieces) == 9


def test_parse_knot_errors():
    for bad in ("", "T(3,5)", "T(2,4)", "T(2,5;3,7)", "family(3,5,7)", "knot"):
        with pytest.raises(ValueError):
            parse_knot(bad)


def test_connected_sum_and_mirror():
    A = GAKnot((Piece(3, 7, +1),))
    B = GAKnot((Piece(1, 5, -1),))
    S = A + B
    assert S.pieces == (Piece(3, 7, +1), Piece(1, 5, -1))
    assert S.mirror().pieces == (Piece(3, 7, -1), Piece(1, 5, +1))
