"""p-primary parts of the double-branched-cover linking form.

Each piece cabled over the prime p contributes one Z_p summand to the
cover's first homology, with self-linking +1/p for a positive piece and
-1/p for a mirror.  The p-primary part is therefore the diagonal form
sum_i eps_i x_i^2 / p on F_p^{r_p}, and the characters relevant to the
genus obstruction are its isotropic vectors.  Since the obstruction
verdict is invariant under scaling a vector, enumeration works projectively:
one representative per scalar class, first nonzero coordinate normalized
to 1, ascending lexicographic order.

The verdict is also invariant under negating single coordinates (every
sigma table row satisfies S[j,a] = S[j,p-a]), so the scan itself reads one
representative per sign-flip class and weighs it by its orbit size.
`enumerate_isotropic_classes` returns both as int64 arrays for the scan
kernel, representatives column-major; `enumerate_projective_isotropic`
streams every point lazily in the same order, and witnesses are the first
of its points whose class is witnessed.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterator, NamedTuple

import numpy as np

from . import kernels
from .casson_gordon import Character
from .knots import GAKnot

PrimaryVector = tuple[int, ...]


class PrimaryPart(NamedTuple):
    """Diagonal sign form of one prime: Q(x) = sum eps_i x_i^2 mod p."""

    p: int
    piece_indices: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.piece_indices)

    def to_character(self, x: PrimaryVector, K: GAKnot) -> Character:
        """Place residue x_i on piece piece_indices[i], zero elsewhere."""
        res = [0] * len(K.pieces)
        for i, j in enumerate(self.piece_indices):
            res[j] = x[i] % self.p
        return Character(tuple(res))


def primary_parts(K: GAKnot) -> list[PrimaryPart]:
    """One part per distinct cable prime, in first-appearance piece order."""
    parts: list[PrimaryPart] = []
    for p in K.primes():
        idx = tuple(j for j, pc in enumerate(K.pieces) if pc.cable_p == p)
        signs = tuple(K.pieces[j].sign for j in idx)
        parts.append(PrimaryPart(p, idx, signs))
    return parts


def is_isotropic(x: PrimaryVector, part: PrimaryPart) -> bool:
    """Whether sum eps_i x_i^2 = 0 mod p."""
    if len(x) != part.rank:
        raise ValueError(f"vector length {len(x)} does not match rank {part.rank}")
    return sum(e * v * v for e, v in zip(part.signs, x)) % part.p == 0


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


def enumerate_isotropic_classes(part: PrimaryPart) -> tuple[np.ndarray, np.ndarray]:
    """Sign-flip classes of projective isotropic vectors, as (xs, sizes).

    Negating any coordinate keeps a vector isotropic, and negating the
    leading 1 is the same projective point as negating all the others, so
    the class of a normalized vector is every sign pattern on its nonzero
    non-leading coordinates: orbit size 2^(that count).  The
    representative is the lexicographically smallest member: non-leading
    coordinates in [0, (p-1)/2], the last one the `sqrt_table` root.

    xs is an (n, rank) int64 array of representatives in ascending
    lexicographic order (per leading position, a C-order grid of the free
    coordinates over [0, (p-1)/2], Q an outer sum of their squares, the
    last one solved from it) and sizes their int64 orbit sizes, which sum
    to the length of `enumerate_projective_isotropic(part)`.  Each grid is
    built in slabs along its first axis, at most `kernels.CELLS` cells or
    one row of it.  xs is column-major, built as (rank, n), so each
    xs[:, j] is contiguous.
    """
    p, signs, r = part.p, part.signs, part.rank
    if r < 2:
        return np.zeros((0, r), dtype=np.int64), np.zeros(0, dtype=np.int64)
    roots = np.array(sqrt_table(p), dtype=np.int64)
    neg_inv = -pow(signs[-1] % p, p - 2, p)
    sq, blocks = np.arange((p + 1) // 2, dtype=np.int64) ** 2 % p, []
    for lead in range(r - 2, -1, -1):
        # the last coordinate is a root of t = -Q(the others)/eps_last mod p, over the grid
        # of coordinates lead+1..r-2 (or of lead alone, set to 1, when that is empty)
        rows = [neg_inv * e * sq % p for e in signs[lead + 1 : r - 1]] or [np.zeros(1, np.int64)]
        inner = reduce(lambda a, b: np.add.outer(a, b) % p, rows[1:], np.zeros((), dtype=np.int64))
        head, step = rows[0] + neg_inv * signs[lead] % p, max(1, kernels.CELLS // inner.size)
        for v in range(0, len(head), step):
            t = np.add.outer(head[v : v + step], inner)
            t %= p
            root = roots[t].ravel()
            keep = np.flatnonzero(root >= 0)
            x = np.zeros((r, len(keep)), dtype=np.int64)
            x[r - 1 - t.ndim : r - 1] = np.unravel_index(keep, t.shape)
            x[r - 1 - t.ndim] += v
            x[lead] = 1
            x[r - 1] = root[keep]
            blocks.append(x)
    cols = np.concatenate(blocks, axis=1)
    del blocks  # release the slabs before the orbit sizes are built
    return cols.T, 1 << (np.count_nonzero(cols, axis=0) - 1)
