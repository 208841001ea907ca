import inspect
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from cgobstruct import (
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
from cgobstruct.kernels import BLOCK, CELLS, GRID_CELLS, TOP, _cable_rows, assert_grid_budget, enumerate_rung_one
from cgobstruct.linking_form import PrimaryPart
from cgobstruct.obstruction import _scan_part

from oracles import brute_isotropic, enumerate_isotropic_classes, form_part, full_scan, loop_scan

SMALL_COMPANIONS = {5: (3, 7, 9), 7: (3, 9, 11), 11: (3, 5, 7), 13: (3, 5, 7)}


def small_knot(p: int) -> GAKnot:
    q1, q2, q3 = SMALL_COMPANIONS[p]
    return GAKnot(
        (Piece(q1, p, +1), Piece(q2, p, -1), Piece(1, p, +1), Piece(q3, p, -1))
    )


def test_check_point_requires_nonzero(flagship):
    part = primary_parts(flagship)[0]
    with pytest.raises(ValueError):
        check_point((0, 0, 0, 0), part, flagship, 1)


def test_check_point_refuses_a_part_of_another_knot(flagship):
    # both read the knot, so a part must come from it
    for part in primary_parts(build_family(293, 307, 17, 11, 13)):
        with pytest.raises(ValueError, match=rf"at p={part.p} does not belong to the knot"):
            check_point((0, 0, 1, 1), part, flagship, 1)
        with pytest.raises(ValueError, match=rf"at p={part.p} does not belong to the knot"):
            verify_primary_part(part, flagship, 1)


def test_readme_library_use_runs(capsys):
    # the documented calls must run as written, so their signatures cannot go stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "verify_primary_part(part, K, 1)" in example
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("g₄^top = g₄ = 2\n{")


def test_star_import_binds_exactly_all():
    # the package imports only what it exports, and lists each name once, in order
    import cgobstruct

    ns: dict = {}
    exec("from cgobstruct import *", ns)
    del ns["__builtins__"]
    public = {n for n, v in vars(cgobstruct).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert set(ns) == public == set(cgobstruct.__all__)
    assert cgobstruct.__all__ == sorted(set(cgobstruct.__all__))


def test_check_point_refuses_a_vector_of_another_length(flagship):
    # a vector has one coordinate per piece of the part
    part = primary_parts(flagship)[0]
    for x in ((0, 0, 1, 1, 5), (0, 1)):
        with pytest.raises(ValueError, match=rf"vector length {len(x)} does not match rank 4"):
            check_point(x, part, flagship, 1)
        with pytest.raises(ValueError, match=rf"vector length {len(x)} does not match rank 4"):
            part.to_character(x, flagship)


def test_check_point_flagship_witness_everywhere(flagship):
    part = primary_parts(flagship)[0]
    pts = list(enumerate_projective_isotropic(part))
    for x in pts[:25] + pts[-25:]:
        w = check_point(x, part, flagship, 1)
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
        assert check_point(x, part, flagship, 115) is None


def test_scaling_invariance_exhaustive_small_primes():
    for p in (5, 7, 11, 13):
        K = small_knot(p)
        part = primary_parts(K)[0]
        for x in enumerate_projective_isotropic(part):
            base = check_point(x, part, K, 1)
            for c in range(2, p):
                scaled = tuple(c * v % p for v in x)
                got = check_point(scaled, part, K, 1)
                assert (got is None) == (base is None), (p, x, c)


def test_scaling_spot_check_flagship(flagship):
    part = primary_parts(flagship)[0]
    pts = list(enumerate_projective_isotropic(part))
    for x in pts[:3]:
        base = check_point(x, part, flagship, 1)
        for c in (2, 41, 82):
            scaled = tuple(c * v % 83 for v in x)
            assert (check_point(scaled, part, flagship, 1) is None) == (base is None)


def test_verify_agrees_with_unreduced_brute_force():
    # direct scan over ALL nonzero isotropic vectors, no tables, no
    # projective reduction, sigma evaluated through sigma_knot
    for p in (5, 7, 11, 13):
        K = small_knot(p)
        part = primary_parts(K)[0]
        s1 = signature_at_minus_one(K)
        res = verify_primary_part(part, K, 1)
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
        res = verify_primary_part(part, flagship, 1)
        assert res.points == count
        assert res.verified
        assert res.margin == 7
        assert len(res.witnesses) == 3
        for w in res.witnesses:
            assert abs(w.sigma) > w.threshold + w.eta


def test_verify_primary_part_refuses_another_primes_tables(flagship):
    # the tables are built from the part's own prime and pieces, so one
    # prime's part carrying the other prime's pieces is refused, not scanned
    # against the other prime's tables (which read a margin of 741/83 for 7)
    parts = primary_parts(flagship)
    for part, other in zip(parts, reversed(parts)):
        swapped = part._replace(piece_indices=other.piece_indices)
        with pytest.raises(ValueError, match=rf"at p={part.p} does not belong to the knot"):
            verify_primary_part(swapped, flagship, 1)
        with pytest.raises(ValueError, match=rf"at p={part.p} does not belong to the knot"):
            check_point((0, 0, 1, 1), swapped, flagship, 1)


def test_ownership_check_compares_pieces(flagship):
    # the p = 83 part of family(83,103,13,11,17) has the flagship's p, indices
    # and signs but other companions; the flagship part with a piece dropped
    # has no other piece of the knot; both are refused
    own = primary_parts(flagship)[0]
    other = primary_parts(build_family(83, 103, 13, 11, 17))[0]
    assert (other.p, other.piece_indices, other.signs) == (own.p, own.piece_indices, own.signs)
    assert other.pieces != own.pieces
    dropped = PrimaryPart(83, own.piece_indices[1:], own.pieces[1:])
    for part in (other, dropped):
        with pytest.raises(ValueError, match="at p=83 does not belong to the knot"):
            verify_primary_part(part, flagship, 1)
        with pytest.raises(ValueError, match="at p=83 does not belong to the knot"):
            check_point((0,) * (part.rank - 2) + (1, 1), part, flagship, 1)


def test_prime_scan_memo_key_holds_the_piece_indices(flagship):
    # T(2,5) # -T(2,5) # F has F's p = 83 pieces and s1 = 0, at indices 2..5:
    # the same result, scanned under its own key
    K = parse_knot("T(2,5) # -T(2,5)") + flagship
    mine, theirs = primary_parts(flagship)[0], primary_parts(K)[1]
    assert theirs.pieces == mine.pieces and theirs.piece_indices == (2, 3, 4, 5)
    assert signature_at_minus_one(K) == signature_at_minus_one(flagship) == 0
    assert verify_primary_part(theirs, K, 1) == verify_primary_part(mine, flagship, 1)
    assert _scan_part.cache_info().currsize == 2


def test_part_too_large_to_enumerate_is_refused_before_any_array(monkeypatch, flagship):
    # the doubled flagship has rank 8 at p = 83: a grid of 44 * 42^5 cells,
    # so the scan is refused before the tables or the enumerator are reached
    import cgobstruct.obstruction as obstruction

    def unreachable(*args):
        raise AssertionError("the scan reached an array")

    monkeypatch.setattr(obstruction, "build_sigma_tables", unreachable)
    monkeypatch.setattr(obstruction, "enumerate_rung_one", unreachable)
    K = flagship + flagship
    part = primary_parts(K)[0]
    assert part.rank == 8
    with pytest.raises(ValueError, match=rf"p=83, rank 8 has 5750414208 cells, over the cap of {GRID_CELLS}"):
        verify_primary_part(part, K, 1)
    assert 258_063 < 3_259_872 <= GRID_CELLS  # the largest golden grid, and rank 6 at p = 83
    assert_grid_budget(form_part(83, (1, -1) * 3))
    with pytest.raises(ValueError, match="over the cap"):
        assert_grid_budget(form_part(1013, (1, -1, 1, -1, 1)))


def test_part_scan_memory_at_p1009():
    # one cold scan of the p = 1009 part, 128,019 classes, of which k = 1
    # leaves 2,288 unwitnessed: the traced peak stays within twice the seed's
    # bytes (a row and a bound each), eight CELLS-cell slabs
    # of scratch and the tables, BLOCK + 8 rank-by-p rows in all (the scan's
    # block table is BLOCK of them); nothing is as long as the class count
    K = build_family(1009, 1013, 17, 11, 13)
    part, s1 = primary_parts(K)[0], signature_at_minus_one(K)
    S = build_sigma_tables(part).scaled_sigma
    seed = len(enumerate_rung_one(part, S, s1, 5).xs)
    assert seed == 2288
    _cable_rows.cache_clear()
    tracemalloc.start()
    try:
        res = _scan_part(part, s1, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.verified and res.points == 1_020_100
    cap = 2 * seed * 8 * (part.rank + 1) + 8 * 8 * CELLS + (BLOCK + 8) * S.nbytes
    assert peak <= cap, (peak, cap)


def test_per_prime_layer_refuses_a_negative_genus_hypothesis(flagship):
    # at g = -2 the threshold 4g+1 is -7, which every point would violate
    part = primary_parts(flagship)[0]
    with pytest.raises(ValueError, match="genus hypothesis must be >= 0, got -2"):
        check_point((0, 0, 1, 1), part, flagship, -2)
    with pytest.raises(ValueError, match="genus hypothesis must be >= 0, got -2"):
        verify_primary_part(part, flagship, -2)
    res = verify_primary_part(part, flagship, 0)  # g = 0 (sliceness) is a hypothesis too
    assert (res.verified, res.margin) == (True, 7)
    assert check_point(res.witnesses[0].x, part, flagship, 0) == res.witnesses[0]


def test_verify_primary_part_refuses_negative_max_witnesses(flagship):
    # -1 used to keep all but the last witnessed class and never stop the
    # walk: 7,048 witnesses of the 7,056 points
    part = primary_parts(flagship)[0]
    with pytest.raises(ValueError, match="max_witnesses must be >= 0, got -1"):
        verify_primary_part(part, flagship, 1, max_witnesses=-1)
    assert verify_primary_part(part, flagship, 1, max_witnesses=0).witnesses == ()


def test_verify_thread_counts_agree(flagship):
    # each prime is one scan; threads is accepted and changes nothing
    a = genus_lower_bound(flagship, g_max=1, threads=1)
    _scan_part.cache_clear()  # the second report scans afresh
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


RANK6 = parse_knot("T(2,3;2,23) # T(2,5;2,23) # -T(2,7;2,23) # -T(2,7;2,23) # T(2,3;2,23) # T(2,7;2,23)")


def test_default_g_max_refutes_only_g1():
    # rank 6 at p = 23 qualifies at g = 2 as well, so a larger default would show
    rep = genus_lower_bound(RANK6)
    assert rep == genus_lower_bound(RANK6, g_max=1)
    assert rep.genus.hypotheses_refuted == (1,)


def test_rank_six_knot_certifies_genus_three():
    # r_23 - 2g = 2 at g = 2; the lower bound is the largest refuted g plus one
    rep = genus_lower_bound(RANK6, g_max=2)
    assert rep.genus_hypothesis == 2
    assert rep.genus.hypotheses_refuted == (1, 2)
    assert rep.genus.lower_bound == 3
    assert [(pr.p, pr.verified, pr.margin) for pr in rep.primes] == [(23, True, 19)]
    assert rep.conclusion() == "g₄^top >= 3"


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


def _leaves(value):
    if isinstance(value, tuple):  # NamedTuples included
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def test_prime_scan_memo_holds_one_plain_result_per_key(flagship):
    # one memo entry per (part, s1, g, max_witnesses); 103 is p2 of the first
    # two knots and p1 of the third, and the fourth shares the flagship's
    # p = 103 part
    from cgobstruct.kernels import _cable_rows

    knots = [flagship, build_family(83, 103, 13, 11, 17), build_family(103, 107, 13, 11, 17)]
    knots.append(build_family(89, 103, 17, 11, 13))
    reports = [genus_lower_bound(K) for K in knots]
    keys = {(part, signature_at_minus_one(K)) for K in knots for part in primary_parts(K)}
    rows = {(pc.companion_q, pc.cable_p) for K in knots for pc in K.pieces}
    assert _scan_part.cache_info().currsize == len(keys) == 7
    assert _cable_rows.cache_info().currsize == len(rows) == 16
    assert reports[3].primes[1] is reports[0].primes[1]
    for K, report in zip(knots, reports):  # a repeat returns the same objects
        assert all(a is b for a, b in zip(genus_lower_bound(K).primes, report.primes, strict=True))
    # entries hold plain ints, bools, Fractions and None: no array outlives its scan
    leaves = set(type(v) for r in reports for pr in r.primes for v in _leaves(pr))
    assert leaves <= {int, bool, Fraction, type(None)} and Fraction in leaves
    sig, eta = _cable_rows(17, 103)
    for arr in (sig, eta):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    for K, report in zip(knots, reports):  # the same reports from cleared memos
        _scan_part.cache_clear()
        _cable_rows.cache_clear()
        assert genus_lower_bound(K) == report


def _companions_permuted(K, p):
    # swap the companions of the first two pieces at p that share a sign
    pc = list(K.pieces)
    idx = [j for j in range(len(pc)) if pc[j].cable_p == p]
    i, j = next((i, j) for i in idx for j in idx if i < j and pc[i].sign == pc[j].sign)
    pc[i], pc[j] = Piece(pc[j].companion_q, p, pc[i].sign), Piece(pc[i].companion_q, p, pc[j].sign)
    return GAKnot(pc)


def test_prime_scan_memo_key_has_every_input(flagship):
    # each pair differs in one key component and in its answer, so a memo
    # that dropped the component would return the first call's entry
    plus5 = flagship + parse_knot("T(2,5)")  # the p = 83 pieces again, with s1 = -4
    swapped = _companions_permuted(flagship, 83)
    assert signature_at_minus_one(plus5) == -4 and signature_at_minus_one(flagship) == 0
    assert primary_parts(swapped)[0].signs == primary_parts(flagship)[0].signs
    pairs = {
        "s1": ((flagship, 1, 3), (plus5, 1, 3)),
        "g": ((flagship, 1, 3), (flagship, 0, 3)),
        "max_witnesses": ((flagship, 1, 3), (flagship, 1, 1)),
        "companion order": ((flagship, 1, 3), (swapped, 1, 3)),
    }
    for name, ((K1, g1, w1), (K2, g2, w2)) in pairs.items():
        _scan_part.cache_clear()
        first = verify_primary_part(primary_parts(K1)[0], K1, g1, max_witnesses=w1)
        second = verify_primary_part(primary_parts(K2)[0], K2, g2, max_witnesses=w2)
        assert second != first, name
        _scan_part.cache_clear()
        assert verify_primary_part(primary_parts(K2)[0], K2, g2, max_witnesses=w2) == second, name


def test_prime_scan_memo_keeps_no_exception(monkeypatch, flagship):
    import cgobstruct.obstruction as obstruction

    # a miscount raises; once the patch is undone the same key scans correctly
    classes, part = obstruction.enumerate_rung_one, primary_parts(flagship)[0]

    def miscounted(*args):
        one = classes(*args)
        return one._replace(points=one.points - 1)

    with monkeypatch.context() as patch:
        patch.setattr(obstruction, "enumerate_rung_one", miscounted)
        with pytest.raises(ArithmeticError, match="point count mismatch at p=83"):
            verify_primary_part(part, flagship, 1)
    res = verify_primary_part(part, flagship, 1)
    assert (res.points, res.verified, res.margin) == (7056, True, 7)
    assert _scan_part.cache_info().currsize == 1


def test_genus_lower_bound_rejects_bad_gmax(flagship):
    with pytest.raises(ValueError):
        genus_lower_bound(flagship, g_max=0)


def _against_full_oracle(K, part, g, max_witnesses):
    s1 = signature_at_minus_one(K)
    got = verify_primary_part(part, K, g, max_witnesses=max_witnesses)
    want = full_scan(list(enumerate_projective_isotropic(part)), part, g, s1, max_witnesses)
    assert got == want, (str(K), part.p, g)
    return got


def test_class_scan_matches_full_oracle_small_knots():
    outcomes = set()
    for p in SMALL_COMPANIONS:
        K = small_knot(p)
        part = primary_parts(K)[0]
        for g in (1, 2):
            for max_witnesses in (0, 1, 3, 10**6):  # none, the first, and every witness in order
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
    res = verify_primary_part(part, K, 115)
    assert (res.verified, res.witnesses, res.margin) == (False, (), 7)
    assert streamed == []
    part = primary_parts(flagship)[0]
    res = verify_primary_part(part, flagship, 1)
    assert res.verified and [w.x for w in res.witnesses] == streamed[:3] == streamed


def test_second_scan_starts_from_the_first_scans_margin(monkeypatch):
    # in the (83,103,11,17,19) layout of the search_pool sweep the witnessed
    # classes whose k = 1 bound lies below the seed's margin (125 and 46)
    # are scanned once more, told that margin instead of TOP
    import cgobstruct.obstruction as obstruction

    select, calls = obstruction.select_kernel, []

    def recording(name=None):
        resolved, scan = select(name)

        def recorded(xs, S, s1, p, thr, bound, least):
            calls.append((p, len(xs), least))
            return scan(xs, S, s1, p, thr, bound, least)

        return resolved, recorded

    monkeypatch.setattr(obstruction, "select_kernel", recording)
    K = build_family(83, 103, 11, 17, 19)
    s1, thr = signature_at_minus_one(K), 5
    margins = []
    for part in primary_parts(K):
        S = build_sigma_tables(part).scaled_sigma
        margins.append(obstruction._settle(part, enumerate_rung_one(part, S, s1, thr), S, s1, thr)[1])
    assert calls == [(83, 278, TOP), (83, 125, 913), (103, 97, TOP), (103, 46, 1133)]
    assert margins == [11 * 83, 11 * 103] == [913, 1133]


def test_every_class_witnessed_at_k1_leaves_an_empty_seed():
    # at g = 0 every one of the 13 classes of small_knot(7) is witnessed at
    # k = 1, so rung one's seed is empty and the first scan has no rows; the
    # smallest k = 1 bound (21, exact best 105) lies below its TOP, so the
    # second takes every class, told TOP, and seeds that one itself, while
    # the margin 49/7 is another's
    import cgobstruct.obstruction as obstruction

    K = small_knot(7)
    [part] = primary_parts(K)
    p, s1, thr = part.p, signature_at_minus_one(K), 1
    S = build_sigma_tables(part).scaled_sigma
    one = enumerate_rung_one(part, S, s1, thr)
    assert one.bound.tolist() == [] and one.xs.shape == (0, part.rank)
    xs, _ = enumerate_isotropic_classes(part)
    bound = loop_scan(xs, S, p, s1, thr, k_max=1)[1]
    want_first, want_best = loop_scan(xs, S, p, s1, thr, k_max=(p - 1) // 2)
    assert (one.low, bound.min(), want_best[bound.argmin()], want_best.min()) == (21, 21, 105, 49)
    first, least = obstruction._settle(part, one, S, s1, thr)
    assert first.tolist() == [] and want_first.tolist() == [1] * 13 and least == 49
    assert [check_point(tuple(x), part, K, 0).k for x in xs.tolist()] == [1] * 13
    res = verify_primary_part(part, K, 0)
    assert res.verified and res.margin == Fraction(49, 7)
    assert [w.k for w in res.witnesses] == [check_point(w.x, part, K, 0).k for w in res.witnesses] == [1, 1, 1]
