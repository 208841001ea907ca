"""p-primary parts of the double-branched-cover linking form.

Each piece cabled over the prime p contributes one Z_p summand to the
cover's first homology, with self-linking +1/p for a positive piece and
-1/p for a mirror.  The p-primary part is therefore the diagonal form
sum_i eps_i x_i^2 / p on F_p^{r_p}, and the characters relevant to the
genus obstruction are its isotropic vectors.  Since the obstruction
verdict is invariant under scaling a vector, enumeration works projectively:
one representative per scalar class, first nonzero coordinate normalized
to 1, ascending lexicographic order.  `enumerate_projective_isotropic`
streams every point lazily in that order; the scan reads the same points
as int64 sign-flip classes (`kernels.enumerate_rung_one`), and witnesses
are the first streamed points whose class is witnessed.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .casson_gordon import Character
from .knots import GAKnot, Piece

PrimaryVector = tuple[int, ...]


class _PartFields(NamedTuple):
    p: int
    piece_indices: tuple[int, ...]
    pieces: tuple[Piece, ...]


class PrimaryPart(_PartFields):
    """The p-primary part of a knot K, pieces[i] = K.pieces[piece_indices[i]]:
    the form Q(x) = sum eps_i x_i^2 mod p, eps_i = pieces[i].sign.

    Its values are read from the pieces alone; the indices only place a
    vector on K (`to_character`).  Every piece must be cabled over p, so a
    part names no prime but its own.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, p: int, piece_indices, pieces) -> "PrimaryPart":
        piece_indices, pieces = tuple(piece_indices), tuple(pieces)
        if len(piece_indices) != len(pieces) or any(pc.cable_p != p for pc in pieces):
            raise ValueError(f"a part at p={p} needs one index per piece and every piece cabled over {p}")
        return super().__new__(cls, p, piece_indices, pieces)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(pc.sign for pc in self.pieces)

    @property
    def rank(self) -> int:
        return len(self.pieces)

    def to_character(self, x: PrimaryVector, K: GAKnot) -> Character:
        """Place residue x_i on piece piece_indices[i], zero elsewhere."""
        if len(x) != self.rank:
            raise ValueError(f"vector length {len(x)} does not match rank {self.rank}")
        res = [0] * len(K.pieces)
        for i, j in enumerate(self.piece_indices):
            res[j] = x[i] % self.p
        return Character(tuple(res))


def primary_parts(K: GAKnot) -> list[PrimaryPart]:
    """One part per distinct cable prime, in first-appearance piece order:
    the one place that decides which pieces of K sit at p."""
    parts: list[PrimaryPart] = []
    for p in K.primes():
        idx = tuple(j for j, pc in enumerate(K.pieces) if pc.cable_p == p)
        parts.append(PrimaryPart(p, idx, (K.pieces[j] for j in idx)))
    return parts


def isotropic_point_count(part: PrimaryPart) -> int:
    """Projective isotropic points of the part: N = (p^(r-1) - 1)/(p-1) for
    odd rank r, N + chi((-1)^m prod eps_i) * p^(m-1) for r = 2m, with chi the
    Legendre symbol (Lidl and Niederreiter, Finite Fields, ch. 6)."""
    p, r = part.p, part.rank
    if r == 0:
        return 0
    count = (p ** (r - 1) - 1) // (p - 1)
    if r % 2 == 0:
        d = (-1) ** (r // 2) * math.prod(part.signs) % p
        count += (1 if pow(d, (p - 1) // 2, p) == 1 else -1) * p ** (r // 2 - 1)
    return count


def sqrt_table(p: int) -> tuple[int, ...]:
    """Smallest square root of each residue mod p, or -1 for non-residues."""
    table = [-1] * p
    for r in range((p - 1) // 2, -1, -1):
        table[r * r % p] = r
    return tuple(table)


def enumerate_projective_isotropic(part: PrimaryPart) -> Iterator[PrimaryVector]:
    """Projective isotropic vectors: one representative per scalar class.

    Representatives have first nonzero coordinate 1 and stream in
    ascending lexicographic order.  For each leading position, iterate
    the free coordinates lead+1..r-2 over all residues and solve
    coordinate r-1 from the quadratic condition via the square-root
    table (both roots), so the cost is O(p^(rank-2)) classes times O(1),
    never a full p^rank filter.  A lone 1 in the last coordinate has
    Q(x) = eps != 0 mod p, so leads stop at r-2.
    """
    p, signs, r = part.p, part.signs, part.rank
    if r < 2:
        return
    roots = sqrt_table(p)
    inv_last = pow(signs[-1] % p, p - 2, p)
    x = [0] * r

    def rec(pos: int, partial: int) -> Iterator[PrimaryVector]:
        if pos == r - 1:
            root = roots[(-partial) * inv_last % p]
            if root < 0:
                return
            x[pos] = root
            yield tuple(x)
            if root:
                x[pos] = p - root
                yield tuple(x)
            return
        for v in range(p):
            x[pos] = v
            yield from rec(pos + 1, (partial + signs[pos] * v * v) % p)
        x[pos] = 0

    for lead in range(r - 2, -1, -1):
        x[:] = [0] * r
        x[lead] = 1
        yield from rec(lead + 1, signs[lead] % p)
