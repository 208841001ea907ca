"""Record semantics: every record is immutable, equal and hashed by value
within its type, and keeps its validation messages."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from cgobstruct import (
    Character,
    FoxMilnorResult,
    GAKnot,
    ObstructionReport,
    Piece,
    PrimaryPart,
    PrimeResult,
    RootOfUnity,
    SearchConfig,
    SigmaTable,
    Witness,
)
from cgobstruct.obstruction import GenusConclusion


def _witness(k=10):
    return Witness(83, (0, 0, 1, 1), k, Fraction(8), 1, 5)


def _prime(points=7056):
    return PrimeResult(83, points, True, (_witness(),), Fraction(7))


def _genus(lower=2):
    return GenusConclusion((1,), lower, 2, "cited", ("g=1 refuted",))


# factory(variant) builds equal records for equal variants and different ones otherwise
RECORDS = {
    "Piece": lambda v: Piece(17, 83, v),
    "GAKnot": lambda v: GAKnot((Piece(17, 83, v), Piece(1, 3, 1))),
    "FoxMilnorResult": lambda v: FoxMilnorResult(v == 1, (("cable[3]", 0, 1),), ()),
    "RootOfUnity": lambda v: RootOfUnity(v, 7),
    "Character": lambda v: Character((v, 0, 2)),
    "PrimaryPart": lambda v: PrimaryPart(83, (0, 1), (1, v)),
    "Witness": lambda v: _witness(k=10 + v),
    "PrimeResult": lambda v: _prime(points=7056 + v),
    "GenusConclusion": lambda v: _genus(lower=2 + v),
    "ObstructionReport": lambda v: ObstructionReport("K", 0, 1, (_prime(),), _genus(lower=2 + v), ()),
    "SearchConfig": lambda v: SearchConfig((83, 103), (11, 13, 17), genus=1 + (v == 1)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_and_hash(name):
    make = RECORDS[name]
    a, b, c = make(1), make(1), make(-1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable(name):
    rec = RECORDS[name](1)
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert RECORDS[name](1) == rec


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_copies_and_pickles(name):
    rec = RECORDS[name](1)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec) and twin == rec


def test_sigma_table_record():
    S, E = np.zeros((2, 7), dtype=np.int64), np.zeros((2, 7), dtype=np.int64)
    tab = SigmaTable(7, (0, 1), S, E)
    assert tab == SigmaTable(7, (0, 1), S, E)  # same arrays
    assert tab.piece_indices == (0, 1) and tab.scaled_sigma is S
    with pytest.raises(AttributeError):
        tab.p = 11
    with pytest.raises(TypeError):
        hash(tab)  # arrays are unhashable, as for a frozen dataclass


def test_records_normalise_their_fields():
    assert RootOfUnity(2, 6) == RootOfUnity(1, 3) and RootOfUnity(-1, 7).a == 6
    cfg = SearchConfig(p_primes=(103, 83, 83), q_primes=(17, 11, 13))
    assert (cfg.p_primes, cfg.q_primes) == ((83, 103), (11, 13, 17))
    assert cfg == SearchConfig((83, 103), (11, 13, 17), True, 1, "product", None)
    assert GAKnot([Piece(1, 3, 1)]).pieces == (Piece(1, 3, 1),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Piece(3, 5, 0), "piece sign must be +1 or -1, got 0"),
        (lambda: Piece(2, 5, 1), "companion parameter must be odd and >= 1, got 2"),
        (lambda: Piece(0, 5, 1), "companion parameter must be odd and >= 1, got 0"),
        (lambda: Piece(3, 9, 1), "cable parameter must be an odd prime, got 9"),
        (lambda: Piece(15, 5, 1), "cable prime 5 must not divide twice the companion parameter 15"),
        (lambda: GAKnot(()), "a knot needs at least one piece"),
        (lambda: RootOfUnity(1, 0), "order must be positive, got 0"),
        (lambda: SearchConfig((9, 83), (11,)), "search pools must contain odd primes, got 9"),
        (
            lambda: SearchConfig((83,), (11,), ranking="nope"),
            "unknown ranking 'nope' (have ['lex', 'maxprime', 'product'])",
        ),
        (lambda: SearchConfig((83,), (11,), genus=0), "genus hypothesis must be >= 1, got 0"),
        (lambda: SearchConfig((83,), (11,), limit=0), "limit must be >= 1, got 0"),
    ],
)
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
