"""Generalized algebraic knots as formal connected sums of cabled torus knots.

A knot here is an ordered list of signed pieces, each piece being the
(2,p)-cable of a (2,q') torus knot with p an odd prime.  The companion
parameter q' = 1 degenerates to an unknot companion, so the piece is the
plain torus knot T(2,p).  A sign of -1 marks the reverse mirror image of
the positive piece; every invariant computed in this package is blind to
reversal, so only the mirror flag is stored.  The paper's eight-piece
family is laid out once, in `_family_layout`, which `build_family`
builds and `family_parameters` recognises.

Alexander polynomials are never expanded: the slice-compatibility check
(`fox_milnor_check`) pairs the structured factors that cabling produces,
a finite pairing problem instead of a factorization problem.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional

from .primes import is_odd_prime


class _PieceFields(NamedTuple):
    companion_q: int
    cable_p: int
    sign: int


class Piece(_PieceFields):
    """One signed connected-sum piece: the (2,cable_p)-cable of T(2,companion_q).

    companion_q = 1 encodes the torus knot T(2,cable_p) itself.  sign = -1
    is the reverse mirror image.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, companion_q: int, cable_p: int, sign: int) -> "Piece":
        q, p, s = companion_q, cable_p, sign
        if s not in (1, -1):
            raise ValueError(f"piece sign must be +1 or -1, got {s}")
        if q < 1 or q % 2 == 0:
            raise ValueError(f"companion parameter must be odd and >= 1, got {q}")
        if not is_odd_prime(p):
            raise ValueError(f"cable parameter must be an odd prime, got {p}")
        # nonsingularity of every evaluation downstream needs gcd(p, 2q') = 1
        if math.gcd(p, 2 * q) != 1:
            raise ValueError(
                f"cable prime {p} must not divide twice the companion parameter {q}"
            )
        return super().__new__(cls, q, p, s)

    @property
    def is_plain_torus(self) -> bool:
        return self.companion_q == 1

    def mirror(self) -> "Piece":
        return Piece(self.companion_q, self.cable_p, -self.sign)

    def __str__(self) -> str:
        body = (
            f"T(2,{self.cable_p})"
            if self.is_plain_torus
            else f"T(2,{self.companion_q};2,{self.cable_p})"
        )
        return body if self.sign > 0 else "-" + body


class _KnotFields(NamedTuple):
    pieces: tuple[Piece, ...]


class GAKnot(_KnotFields):
    """Ordered connected sum of pieces (n >= 1)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, pieces) -> "GAKnot":
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a knot needs at least one piece")
        for pc in pieces:
            if not isinstance(pc, Piece):
                raise ValueError(f"a knot is built from Piece values, got {pc!r}")
        return super().__new__(cls, pieces)

    def __add__(self, other: "GAKnot") -> "GAKnot":
        """Connected sum: concatenation of piece lists."""
        return GAKnot(self.pieces + other.pieces)

    def mirror(self) -> "GAKnot":
        return GAKnot(tuple(pc.mirror() for pc in self.pieces))

    def primes(self) -> list[int]:
        """Distinct cable primes in first-appearance order."""
        seen: list[int] = []
        for pc in self.pieces:
            if pc.cable_p not in seen:
                seen.append(pc.cable_p)
        return seen

    def rank(self, p: int) -> int:
        """Number of pieces cabled over the prime p (the rank r_p)."""
        return sum(1 for pc in self.pieces if pc.cable_p == p)

    def __str__(self) -> str:
        return " # ".join(map(str, self.pieces))


def _family_layout(
    p1: int, p2: int, q1: int, q2: int, q3: int
) -> tuple[tuple[int, int, int], ...]:
    """The family's 8 (companion_q, cable_p, sign) triples, in piece order."""
    return (
        (q1, p1, 1), (q2, p1, -1), (1, p1, 1), (q3, p1, -1),
        (q2, p2, 1), (1, p2, -1), (q3, p2, 1), (q1, p2, -1),
    )


def build_family(p1: int, p2: int, q1: int, q2: int, q3: int) -> GAKnot:
    """The 8-piece hyperbolic-form knot over two primes.

    Piece order (signs alternate +,-,+,-,+,-,+,-):

        +T(2,q1;2,p1)  -T(2,q2;2,p1)  +T(2,p1)       -T(2,q3;2,p1)
        +T(2,q2;2,p2)  -T(2,p2)       +T(2,q3;2,p2)  -T(2,q1;2,p2)

    Each prime p1, p2 carries exactly four pieces, so both primary parts
    of the double branched cover are rank 4 with signs (+,-,+,-): two
    hyperbolic planes.  All five parameters must be pairwise distinct odd
    primes.
    """
    params = (p1, p2, q1, q2, q3)
    for v in params:
        if not is_odd_prime(v):
            raise ValueError(f"family parameters must be odd primes, got {v}")
    if len(set(params)) != 5:
        raise ValueError(f"family parameters must be pairwise distinct, got {params}")
    return GAKnot(Piece(*t) for t in _family_layout(*params))


def family_parameters(K: GAKnot) -> Optional[tuple[int, int, int, int, int]]:
    """Recover (p1,p2,q1,q2,q3) if K is exactly a built family knot.

    Compares the pieces with `_family_layout` directly.  Every `Piece` has
    already checked that its cable parameter is an odd prime, so only the
    companions need the prime check.
    """
    pc = K.pieces
    if len(pc) != 8:
        return None
    p1, p2 = pc[0].cable_p, pc[4].cable_p
    q1, q2, q3 = pc[0].companion_q, pc[1].companion_q, pc[3].companion_q
    params = (p1, p2, q1, q2, q3)
    if pc != _family_layout(*params) or len(set(params)) != 5 or not all(
        map(is_odd_prime, (q1, q2, q3))
    ):
        return None
    return params


class FoxMilnorResult(NamedTuple):
    """Outcome of the structured slice-compatibility check.

    ok is true when every irreducible-in-structure factor of the Alexander
    polynomial occurs an even number of times.  pairs lists, per factor,
    the piece indices matched two by two; unpaired lists the leftovers that
    caused a failure.
    """

    ok: bool
    pairs: tuple[tuple[str, int, int], ...]
    unpaired: tuple[tuple[str, int], ...]


def fox_milnor_check(K: GAKnot) -> FoxMilnorResult:
    """Pair up the structured Alexander factors of K.

    The factor multiset consists of one cable factor Delta_{T(2,p)}(t) per
    piece and one companion factor Delta_{T(2,q')}(t^2) per piece with
    q' > 1.  If every factor appears an even number of times then
    Delta_K = f(t) * f(1/t) up to units (each factor is palindromic), which
    is the Alexander-polynomial condition satisfied by every slice knot.
    This decides only the structured form; it never factors polynomials.
    """
    occurrences: dict[str, list[int]] = {}
    for j, pc in enumerate(K.pieces):
        occurrences.setdefault(f"cable[{pc.cable_p}]", []).append(j)
        if pc.companion_q > 1:
            occurrences.setdefault(f"companion[{pc.companion_q}]", []).append(j)
    pairs: list[tuple[str, int, int]] = []
    unpaired: list[tuple[str, int]] = []
    for label in sorted(occurrences):
        idx = occurrences[label]
        for a, b in zip(idx[0::2], idx[1::2]):
            pairs.append((label, a, b))
        if len(idx) % 2:
            unpaired.append((label, idx[-1]))
    return FoxMilnorResult(not unpaired, tuple(pairs), tuple(unpaired))


# ---------------------------------------------------------------------------
# Knot strings
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""^(?P<sign>-?)
         T\(2,(?P<first>\d+)
         (?:;2,(?P<second>\d+))?
         \)$""",
    re.VERBOSE,
)
_FAMILY_RE = re.compile(r"^family\((?P<args>[\d,]+)\)$")


def parse_knot(text: str) -> GAKnot:
    """Parse a knot string.

    Grammar: '#'-separated terms, each 'T(2,q;2,p)', '-T(2,q;2,p)',
    'T(2,p)', '-T(2,p)', or 'family(p1,p2,q1,q2,q3)'.  Whitespace is
    ignored everywhere.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty knot string")
    pieces: list[Piece] = []
    for term in compact.split("#"):
        fam = _FAMILY_RE.match(term)
        if fam:
            args = [int(x) for x in fam.group("args").split(",") if x]
            if len(args) != 5:
                raise ValueError(f"family(...) takes 5 primes, got {len(args)}: {term!r}")
            pieces.extend(build_family(*args).pieces)
            continue
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse knot term {term!r}")
        sign = -1 if m.group("sign") else 1
        first = int(m.group("first"))
        second = m.group("second")
        if second is None:
            pieces.append(Piece(1, first, sign))
        else:
            pieces.append(Piece(first, int(second), sign))
    return GAKnot(tuple(pieces))
