import json
from fractions import Fraction

import pytest

from cgobstruct import (
    Character,
    GAKnot,
    Piece,
    build_family,
    build_sigma_tables,
    check_point,
    enumerate_projective_isotropic,
    eta_knot,
    family_parameters,
    genus_lower_bound,
    parse_knot,
    primary_parts,
    sigma_knot,
    signature_at_minus_one,
    verify_primary_part,
)

from oracles import brute_isotropic, full_scan

SMALL_COMPANIONS = {5: (3, 7, 9), 7: (3, 9, 11), 11: (3, 5, 7), 13: (3, 5, 7)}


def small_knot(p: int) -> GAKnot:
    q1, q2, q3 = SMALL_COMPANIONS[p]
    return GAKnot(
        (Piece(q1, p, +1), Piece(q2, p, -1), Piece(1, p, +1), Piece(q3, p, -1))
    )


def test_check_point_requires_nonzero(flagship):
    part = primary_parts(flagship)[0]
    with pytest.raises(ValueError):
        check_point((0, 0, 0, 0), part, flagship, 1, 0)


def test_check_point_refuses_a_part_of_another_knot(flagship):
    # the reference reads the knot, not tables, so a part must come from it
    other = build_family(293, 307, 17, 11, 13)
    with pytest.raises(ValueError, match="does not belong to the knot"):
        check_point((0, 0, 1, 1), primary_parts(other)[0], flagship, 1, 0)


def test_check_point_flagship_witness_everywhere(flagship):
    part = primary_parts(flagship)[0]
    pts = list(enumerate_projective_isotropic(part))
    for x in pts[:25] + pts[-25:]:
        w = check_point(x, part, flagship, 1, 0)
        assert w is not None
        assert abs(w.sigma) > w.threshold + w.eta
        # the witness values match the direct evaluation
        chi = part.to_character(tuple(w.k * v % 83 for v in x), flagship)
        assert sigma_knot(flagship, chi) == w.sigma
        assert eta_knot(flagship, chi) == w.eta


def test_check_point_huge_genus_has_no_witness(flagship):
    # coarse bound: per piece |sigma term| <= p + 2(q'-1) so |sigma| < 460
    part = primary_parts(flagship)[0]
    pts = list(enumerate_projective_isotropic(part))
    for x in pts[:5]:
        assert check_point(x, part, flagship, 115, 0) is None


def test_scaling_invariance_exhaustive_small_primes():
    for p in (5, 7, 11, 13):
        K = small_knot(p)
        part = primary_parts(K)[0]
        s1 = signature_at_minus_one(K)
        for x in enumerate_projective_isotropic(part):
            base = check_point(x, part, K, 1, s1)
            for c in range(2, p):
                scaled = tuple(c * v % p for v in x)
                got = check_point(scaled, part, K, 1, s1)
                assert (got is None) == (base is None), (p, x, c)


def test_scaling_spot_check_flagship(flagship):
    part = primary_parts(flagship)[0]
    pts = list(enumerate_projective_isotropic(part))
    for x in pts[:3]:
        base = check_point(x, part, flagship, 1, 0)
        for c in (2, 41, 82):
            scaled = tuple(c * v % 83 for v in x)
            assert (check_point(scaled, part, flagship, 1, 0) is None) == (base is None)


def test_verify_agrees_with_unreduced_brute_force():
    # direct scan over ALL nonzero isotropic vectors, no tables, no
    # projective reduction, sigma evaluated through sigma_knot
    for p in (5, 7, 11, 13):
        K = small_knot(p)
        part = primary_parts(K)[0]
        s1 = signature_at_minus_one(K)
        res = verify_primary_part(part, build_sigma_tables(K, p), 1, s1)
        brute_all_witnessed = True
        for x in sorted(brute_isotropic(p, part.signs)):
            if not any(x):
                continue
            found = False
            for k in range(1, p):
                chi = part.to_character(tuple(k * v % p for v in x), K)
                sig = sigma_knot(K, chi)
                eta = eta_knot(K, chi)
                if abs(sig + s1) > 5 + eta:
                    found = True
                    break
            if not found:
                brute_all_witnessed = False
                break
        assert res.verified == brute_all_witnessed, p


def test_verify_primary_part_flagship(flagship):
    for p, count in ((83, 7056), (103, 10816)):
        part = next(P for P in primary_parts(flagship) if P.p == p)
        tab = build_sigma_tables(flagship, p)
        res = verify_primary_part(part, tab, 1, signature_at_minus_one(flagship))
        assert res.points == count
        assert res.verified
        assert res.margin == 7
        assert len(res.witnesses) == 3
        for w in res.witnesses:
            assert abs(w.sigma) > w.threshold + w.eta


def test_verify_primary_part_refuses_another_primes_tables(flagship):
    # p = 83 with the p = 103 tables read a margin of 741/83 instead of 7; the
    # reverse pairing indexed past the table inside the scan kernel
    s1 = signature_at_minus_one(flagship)
    parts = primary_parts(flagship)
    for part, other in zip(parts, reversed(parts)):
        tab = build_sigma_tables(flagship, other.p)
        with pytest.raises(ValueError, match=rf"do not belong to the part \({part.p}, "):
            verify_primary_part(part, tab, 1, s1)


def test_verify_thread_counts_agree(flagship):
    # each prime is one scan; threads is accepted and changes nothing
    a = genus_lower_bound(flagship, g_max=1, threads=1)
    b = genus_lower_bound(flagship, g_max=1, threads=8)
    assert a == b


def test_genus_report_flagship(flagship, flagship_report):
    rep = flagship_report
    assert rep.genus.hypotheses_refuted == (1,)
    assert rep.genus.lower_bound == 2
    assert rep.genus.upper_bound == 2
    assert rep.conclusion() == "g₄^top = g₄ = 2"
    assert [pr.p for pr in rep.primes] == [83, 103]
    assert all(pr.verified for pr in rep.primes)
    assert parse_knot(rep.knot) == flagship
    # g = 2 is out of reach: r_p - 4 = 0 < 2
    assert any("g=2" in j for j in rep.genus.justification)


def test_genus_report_slice_control():
    K = parse_knot("T(2,5;2,7) # -T(2,5;2,7)")
    rep = genus_lower_bound(K, g_max=1)
    assert rep.genus.lower_bound == 0
    assert rep.genus.upper_bound is None
    assert rep.primes[0].points == 2
    assert not rep.primes[0].verified
    assert rep.primes[0].margin == Fraction(-1)


def test_genus_report_json_schema(flagship_report):
    jsonschema = pytest.importorskip("jsonschema")
    import cgobstruct
    import os

    schema_path = os.path.join(
        os.path.dirname(cgobstruct.__file__), "schemas", "report.schema.json"
    )
    with open(schema_path) as fh:
        schema = json.load(fh)
    jsonschema.validate(json.loads(flagship_report.to_json()), schema)
    K = parse_knot("T(2,5;2,7) # -T(2,5;2,7)")
    rep = genus_lower_bound(K, g_max=1)
    jsonschema.validate(json.loads(rep.to_json()), schema)


def test_report_formats(flagship_report):
    human = flagship_report.human()
    assert "p = 83: 7056 projective isotropic points, verified" in human
    assert "g₄^top = g₄ = 2" in human
    csv = flagship_report.csv()
    assert csv.splitlines()[0] == "section,p,points,verified,margin,lower_bound,upper_bound"
    assert "prime,83,7056,1,7/1,," in csv
    d = flagship_report.to_dict()
    assert d["primes"][0]["margin"] == "7/1"
    assert d["genus"]["upper_bound_source"] == "ribbon-move construction (cited)"


def test_family_parameters_roundtrip(flagship):
    assert family_parameters(flagship) == (83, 103, 17, 11, 13)
    assert family_parameters(parse_knot("T(2,3)")) is None
    scrambled = GAKnot(tuple(reversed(flagship.pieces)))
    assert family_parameters(scrambled) is None


def _family_parameters_by_rebuilding(K):
    """The previous definition: rebuild the family and compare whole knots."""
    pc = K.pieces
    if len(pc) != 8:
        return None
    params = (pc[0].cable_p, pc[4].cable_p, pc[0].companion_q, pc[1].companion_q, pc[3].companion_q)
    try:
        return params if K == build_family(*params) else None
    except ValueError:
        return None


def test_family_parameters_matches_rebuilding_the_family(flagship):
    def layout(p1, p2, q1, q2, q3):  # build_family's pieces, without its checks
        return GAKnot((
            Piece(q1, p1, 1), Piece(q2, p1, -1), Piece(1, p1, 1), Piece(q3, p1, -1),
            Piece(q2, p2, 1), Piece(1, p2, -1), Piece(q3, p2, 1), Piece(q1, p2, -1),
        ))

    knots = [
        flagship,
        build_family(107, 131, 23, 17, 19),
        build_family(293, 307, 17, 11, 13),
        flagship.mirror(),
        flagship + parse_knot("T(2,3)"),
        GAKnot(flagship.pieces[4:] + flagship.pieces[:4]),
        parse_knot("T(2,5;2,7) # -T(2,5;2,7)"),
        layout(83, 103, 17, 11, 9),  # composite companion
        layout(83, 103, 17, 11, 1),  # unknot companion
        layout(83, 103, 17, 11, 11),  # repeated companion
        layout(83, 83, 17, 11, 13),  # one cable prime twice
        *(small_knot(p) + small_knot(p).mirror() for p in SMALL_COMPANIONS),
    ]
    got = [family_parameters(K) for K in knots]
    assert got == [_family_parameters_by_rebuilding(K) for K in knots]
    assert got[:3] == [(83, 103, 17, 11, 13), (107, 131, 23, 17, 19), (293, 307, 17, 11, 13)]
    assert got[3:] == [None] * (len(knots) - 3)


def test_sweep_cache_arrays_are_read_only(flagship):
    # the memos keep one read-only entry per (p, signs) and per (q', p); 103
    # serves as p2 of the first two knots and as p1 of the third
    from cgobstruct.casson_gordon import _cable_rows
    from cgobstruct.obstruction import _isotropic_classes

    knots = [flagship, build_family(83, 103, 13, 11, 17), build_family(103, 107, 13, 11, 17)]
    reports = [genus_lower_bound(knots[0])]
    xs, sizes = _isotropic_classes(103, (1, -1, 1, -1))
    sig, eta = _cable_rows(17, 103)
    for arr in (xs, sizes, sig, eta):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    reports += [genus_lower_bound(K) for K in knots[1:]]
    assert _isotropic_classes(103, (1, -1, 1, -1))[0] is xs
    assert _cable_rows(17, 103)[0] is sig
    parts = {(part.p, part.signs) for K in knots for part in primary_parts(K)}
    rows = {(pc.companion_q, pc.cable_p) for K in knots for pc in K.pieces}
    assert _isotropic_classes.cache_info().currsize == len(parts) == 3
    assert _cable_rows.cache_info().currsize == len(rows) == 12
    for K, report in zip(knots, reports):  # the same reports from fresh arrays
        _isotropic_classes.cache_clear()
        _cable_rows.cache_clear()
        assert genus_lower_bound(K) == report


def test_genus_lower_bound_rejects_bad_gmax(flagship):
    with pytest.raises(ValueError):
        genus_lower_bound(flagship, g_max=0)


def _against_full_oracle(K, part, g, max_witnesses):
    tab = build_sigma_tables(K, part.p)
    s1 = signature_at_minus_one(K)
    got = verify_primary_part(part, tab, g, s1, max_witnesses=max_witnesses)
    want = full_scan(list(enumerate_projective_isotropic(part)), tab, g, s1, max_witnesses)
    assert got == want, (str(K), part.p, g)
    return got


def test_class_scan_matches_full_oracle_small_knots():
    outcomes = set()
    for p in SMALL_COMPANIONS:
        K = small_knot(p)
        part = primary_parts(K)[0]
        for g in (1, 2):
            for max_witnesses in (3, 10**6):  # every witness, in order
                res = _against_full_oracle(K, part, g, max_witnesses)
                outcomes.add((res.verified, bool(res.witnesses)))
    assert (False, True) in outcomes  # some parts are partly witnessed


def test_class_scan_matches_full_oracle_slice_control():
    K = parse_knot("T(2,5;2,7) # -T(2,5;2,7)")
    [part] = primary_parts(K)
    assert part.rank == 2
    res = _against_full_oracle(K, part, 1, 3)
    assert not res.verified and res.points == 2


def test_class_scan_matches_full_oracle_flagship(flagship):
    for part in primary_parts(flagship):
        for g in (1, 2):
            _against_full_oracle(flagship, part, g, 3 if g == 1 else 50)


def test_witness_walk_stops_once_every_witness_is_placed(monkeypatch, flagship):
    # the walk streams points only while a witness is still to be placed: none
    # when no class is witnessed (p = 307 at g = 115), three at the flagship
    import cgobstruct.obstruction as obstruction

    stream, streamed = obstruction.enumerate_projective_isotropic, []

    def counted(part):
        for x in stream(part):
            streamed.append(x)
            yield x

    monkeypatch.setattr(obstruction, "enumerate_projective_isotropic", counted)
    K = build_family(293, 307, 17, 11, 13)
    part = next(P for P in primary_parts(K) if P.p == 307)
    res = verify_primary_part(part, build_sigma_tables(K, 307), 115, signature_at_minus_one(K))
    assert (res.verified, res.witnesses, res.margin) == (False, (), 7)
    assert streamed == []
    part = primary_parts(flagship)[0]
    res = verify_primary_part(part, build_sigma_tables(flagship, 83), 1, signature_at_minus_one(flagship))
    assert res.verified and [w.x for w in res.witnesses] == streamed[:3] == streamed
