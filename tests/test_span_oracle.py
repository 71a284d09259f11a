"""The general subspace calculus, kept as an independent oracle.

``span_ops`` and ``extend_independent`` are the exact Fraction routines the
four-block decomposition was first built from: intersections through a left
kernel of the stacked bases, complements by greedy extension.  The library
now derives the blocks from freeness instead; these routines stay here so the
tests can rebuild every block the general way and compare.  ``contains``,
``full_space`` and ``zero_space`` are the membership test and the two trivial
subspaces, and ``unit`` the coordinates of one basis forest; only the tests
use them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

from hopfcalc.linalg import AmbientMismatch, RationalMatrix, Subspace, _echelon, kernel_basis
from hopfcalc.structure import DegreeDecomposition, HopfStructure
from hopfcalc.trees import Forest, ForestAlgebra


def zero_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, RationalMatrix.from_rows([], cols=ambient_dim))


def full_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, RationalMatrix.identity(ambient_dim))


def unit(alg: ForestAlgebra, forest: Forest) -> list[int]:
    """Coordinates of a basis forest over the canonical basis of its degree."""
    coords = [0] * alg.dim(alg.degree(forest))
    coords[alg.index(forest)] = 1
    return coords


def contains(space: Subspace, vector: Sequence[Fraction | int]) -> bool:
    """Membership by reduction against the canonical basis rows, in Fraction."""
    if len(vector) != space.ambient_dim:
        raise AmbientMismatch(
            f"vector of length {len(vector)} in ambient dimension {space.ambient_dim}"
        )
    v = [Fraction(x) for x in vector]
    for row in space.basis.to_rows():
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None and v[lead]:
            coeff = v[lead]
            v = [a - coeff * b for a, b in zip(v, row)]
    return not any(v)


@dataclass(frozen=True)
class SpanParts:
    sum: Subspace
    intersection: Subspace
    complement_of_a_in_sum: Subspace


def extend_independent(
    base_rows: Sequence[Sequence[Fraction | int]],
    candidates: Sequence[Sequence[Fraction | int]],
    ambient_dim: int,
) -> list[list[Fraction]]:
    """Greedily keep the candidates (in order) that enlarge span(base_rows).

    Returns the kept candidates unchanged; together with the base they span
    base + span(kept).  Earlier candidates win.
    """
    echelon: list[list[Fraction]] = []

    def reduce_and_maybe_insert(vector: Sequence[Fraction | int], insert: bool) -> bool:
        v = [Fraction(x) for x in vector]
        for row in echelon:
            lead = next(j for j, x in enumerate(row) if x)
            if v[lead]:
                coeff = v[lead] / row[lead]
                v = [a - coeff * b for a, b in zip(v, row)]
        if not any(v):
            return False
        if insert:
            echelon.append(v)
            echelon.sort(key=lambda row: next(j for j, x in enumerate(row) if x))
        return True

    for row in base_rows:
        if len(row) != ambient_dim:
            raise AmbientMismatch(f"vector of length {len(row)} in ambient dimension {ambient_dim}")
        reduce_and_maybe_insert(row, insert=True)
    kept: list[list[Fraction]] = []
    for cand in candidates:
        if len(cand) != ambient_dim:
            raise AmbientMismatch(f"vector of length {len(cand)} in ambient dimension {ambient_dim}")
        if reduce_and_maybe_insert(cand, insert=True):
            kept.append([Fraction(x) for x in cand])
    return kept


def span_ops(a: Subspace, b: Subspace) -> SpanParts:
    """Sum, intersection, and a complement of a inside the sum.

    The complement is spanned by the first rows of b's canonical basis that
    enlarge a; so a ⊕ complement = a + b by construction.
    """
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient dimensions {a.ambient_dim} != {b.ambient_dim}")
    n = a.ambient_dim
    a_rows = a.basis.to_rows()
    b_rows = b.basis.to_rows()
    total = Subspace.span(n, a_rows + b_rows)

    stacked = RationalMatrix.from_rows(a_rows + b_rows, cols=n)
    left_kernel = kernel_basis(stacked.transpose())
    meet_vectors = []
    for combo in left_kernel.basis.to_rows():
        x = combo[: a.dim]
        vec = [Fraction(0)] * n
        for coeff, row in zip(x, a_rows):
            if coeff:
                vec = [u + coeff * w for u, w in zip(vec, row)]
        meet_vectors.append(vec)
    meet = Subspace.span(n, meet_vectors)

    kept = extend_independent(a_rows, b_rows, n)
    complement = Subspace.span(n, kept)
    return SpanParts(total, meet, complement)


def oracle_decomposition(structure: HopfStructure, n: int) -> DegreeDecomposition:
    """The four blocks of degree n built with the general subspace calculus.

    Only the primitives come from the structure; the decomposables are
    re-spanned from every product row.
    """
    alg = structure.algebra
    dim = alg.dim(n)
    prim = structure.primitives(n)
    dec = Subspace.span(
        dim,
        [
            unit(alg, f * g)
            for i in range(1, n)
            for f in alg.basis(i)
            for g in alg.basis(n - i)
        ],
    )
    core = span_ops(prim, dec).intersection
    spanned = span_ops(prim, dec).sum
    kept = extend_independent(spanned.basis.to_rows(), RationalMatrix.identity(dim).to_rows(), dim)
    return DegreeDecomposition(
        degree=n,
        primitives=prim,
        decomposables=dec,
        core=core,
        decomposable_complement=span_ops(core, dec).complement_of_a_in_sum,
        primitive_generators=span_ops(core, prim).complement_of_a_in_sum,
        residual=Subspace.span(dim, kept),
    )


def test_span_ops_examples():
    a = Subspace.span(2, [[1, 0]])
    b = Subspace.span(2, [[0, 1]])
    parts = span_ops(a, b)
    assert parts.sum == full_space(2)
    assert parts.intersection == zero_space(2)
    assert parts.complement_of_a_in_sum == b

    same = span_ops(a, a)
    assert same.intersection == a
    assert same.complement_of_a_in_sum == zero_space(2)

    u = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    assert span_ops(u, v).intersection == Subspace.span(3, [[0, 1, 0]])

    with pytest.raises(AmbientMismatch):
        span_ops(a, u)


def test_span_ops_modularity_and_complement_randomized():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = Subspace.span(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        b = Subspace.span(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        parts = span_ops(a, b)
        assert parts.sum.dim + parts.intersection.dim == a.dim + b.dim
        # a ⊕ complement = sum
        assert parts.complement_of_a_in_sum.dim == parts.sum.dim - a.dim
        joined = Subspace.span(n, a.basis.to_rows() + parts.complement_of_a_in_sum.basis.to_rows())
        assert joined == parts.sum
        for v in parts.intersection.basis.to_rows():
            assert contains(a, v) and contains(b, v)


def test_extend_independent_prefers_early_candidates():
    kept = extend_independent([[1, 0, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert kept == [[1, 1, 0], [0, 0, 1]]  # second candidate no longer enlarges


def test_echelon_reading_rule_matches_extend_independent_randomized():
    """The rule HopfStructure.decomposition reads its blocks by, on random rows.

    Columns run over the head coordinates, then the tail ones, each last-first.
    Rows picked with a head lead are those whose head part enlarges the earlier
    rows' head parts; the other picks vanish on the head; and in each part the
    coordinates no pick leads at are the unit vectors a greedy pass keeps.
    """
    rng = random.Random(13)
    for _ in range(300):
        width = rng.randint(1, 7)
        rows = [
            [rng.randint(-2, 2) * rng.randint(0, 1) for _ in range(width)]
            for _ in range(rng.randint(0, 8))
        ]
        head = sorted(rng.sample(range(width), rng.randint(0, width)))
        tail = [c for c in range(width) if c not in head]
        h, order = len(head), head[::-1] + tail[::-1]
        pivots, picks, _ = _echelon(([row[c] for c in order] for row in rows), width)
        led = {order[lead] for lead in pivots}
        on_head = [[row[c] for c in head] for row in rows]
        kept = extend_independent([], on_head, h)
        assert [on_head[k] for k, lead in zip(picks, pivots) if lead < h] == kept
        units = RationalMatrix.identity(h).to_rows()
        unled = [u for u, c in zip(units, head) if c not in led]
        assert extend_independent(kept, units, h) == unled
        rests = [v for lead, v in pivots.items() if lead >= h]
        assert not any(x for v in rests for x in v[:h])
        units = RationalMatrix.identity(width - h).to_rows()
        unled = [u for u, c in zip(units, tail) if c not in led]
        assert extend_independent([v[h:][::-1] for v in rests], units, width - h) == unled
