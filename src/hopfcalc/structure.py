"""Degree-by-degree structure of the decorated forest Hopf algebra.

For each degree this module computes the primitive subspace (kernel of the
reduced coproduct), the decomposable subspace (span of products of lower
degrees), their intersection, and deterministic complements that split the
degree into four blocks.  The splitting is what the pairing construction
consumes; the dimension and bracket checks certify the free-and-cofree
structure at desk scale.
"""

from __future__ import annotations

from typing import Iterator

from ._value import Value
from .linalg import RationalMatrix, Subspace, _echelon, _kernel
from .trees import ForestAlgebra, memo


class FreenessError(RuntimeError):
    """Products of lower degrees do not span exactly the multi-tree forests."""


class DegreeDecomposition(Value):
    """Four-block splitting of one graded piece.

    core = primitives ∩ decomposables.  The three complements satisfy
    core ⊕ decomposable_complement = decomposables,
    core ⊕ primitive_generators = primitives, and the direct sum of all four
    blocks is the whole degree.  residual always has the same dimension as
    core.  The algebra is free on trees, so decomposables, decomposable_complement and
    residual are spanned by basis forests, each stored as the ascending tuple of their indices.
    """

    degree: int
    primitives: Subspace
    decomposables: tuple[int, ...]
    core: Subspace
    decomposable_complement: tuple[int, ...]
    primitive_generators: Subspace
    residual: tuple[int, ...]

    def dims(self) -> dict[str, int]:
        return {
            "degree": self.degree,
            "primitives": self.primitives.dim,
            "decomposables": len(self.decomposables),
            "core": self.core.dim,
            "decomposable_complement": len(self.decomposable_complement),
            "primitive_generators": self.primitive_generators.dim,
            "residual": len(self.residual),
        }


class HopfStructure:
    """Structural analysis of one decorated forest algebra, cached per degree."""

    def __init__(self, algebra: ForestAlgebra | None = None) -> None:
        self.algebra = algebra if algebra is not None else ForestAlgebra()
        self._memo: dict[tuple, object] = {}

    def reduced_matrix(self, n: int) -> RationalMatrix:
        """Matrix of the reduced coproduct on degree n, with the rows of ``_reduced_rows``."""
        return RationalMatrix.from_int_rows(list(self._reduced_rows(n)), self.algebra.dim(n))

    def _reduced_rows(self, n: int) -> Iterator[list[int]]:
        """Rows of the reduced coproduct on degree n, one left degree i at a time.

        Columns run over the degree-n basis; rows over pairs (u, v) of basis forests with
        degrees (i, n - i) for 1 <= i <= n - 1, ordered by i, then u, then v.
        """
        alg = self.algebra
        table, cols = alg.reduced_table(n), alg.dim(n)
        for i in range(1, n):
            width = alg.dim(n - i)
            block = [[0] * cols for _ in range(alg.dim(i) * width)]
            for col, column in enumerate(table):
                for a, b, coeff in column.get(i, ()):
                    block[a * width + b][col] = coeff
            yield from block

    @memo
    def primitives(self, n: int) -> Subspace:
        """Kernel of the reduced coproduct on degree n."""
        if n < 1:
            raise ValueError("primitives are graded by degree >= 1")
        return _kernel(self._reduced_rows(n), self.algebra.dim(n))

    @memo
    def decomposables(self, n: int) -> tuple[int, ...]:
        """Basis indices of the forests spanning all products of positive degrees totalling n.

        The algebra is free on trees, so these are the forests of two or more trees, in
        ascending order; products that say otherwise raise FreenessError.
        """
        if n < 1:
            raise ValueError("decomposables are graded by degree >= 1")
        alg = self.algebra
        hit = {k for i in range(1, n) for row in alg.products(i, n - i) for k in row}
        _, multi = self.coordinates(n)
        if hit != set(multi):
            first = min(hit.symmetric_difference(multi))
            raise FreenessError(
                f"degree-{n} products of basis forests are not exactly the forests of "
                f"two or more trees; they differ at {alg.basis(n)[first].encode()!r}"
            )
        return tuple(multi)

    @memo
    def bracket_space(self, n: int) -> Subspace:
        """Span of commutators of primitives with degrees summing to n."""
        if n < 2:
            raise ValueError("brackets need two positive degrees, so n >= 2")
        alg = self.algebra
        dim = alg.dim(n)
        rows = []
        # [y, x] = -[x, y], so the left degree runs up to n / 2 only
        for i in range(1, n // 2 + 1):
            # index(f g) and index(g f) for basis forests f, g
            fg, gf = alg.products(i, n - i), alg.products(n - i, i)
            xs, ys = (
                [[(a, c) for a, c in enumerate(row) if c] for row in prim.basis.int_rows()]
                for prim in (self.primitives(i), self.primitives(n - i))
            )
            for x_row in xs:
                for y_row in ys:
                    v = [0] * dim
                    for a, x in x_row:
                        for b, y in y_row:
                            v[fg[a][b]] += x * y
                            v[gf[b][a]] -= x * y
                    rows.append(v)
        return Subspace.span(dim, rows)

    @memo
    def decomposition(self, n: int) -> DegreeDecomposition:
        """Split degree n into core, two complements, and the residual block.

        One echelon of the primitive rows on the trees, then the multi-tree forests, each
        last-first: rows led on a tree are the generators, the other rows span the core, and
        the coordinates where no row leads are the residual and decomposable complement.
        """
        if n < 1:
            raise ValueError("decomposition is graded by degree >= 1")
        dim = self.algebra.dim(n)
        prim = self.primitives(n)
        trees, multi = self.coordinates(n)
        order = trees[::-1] + multi[::-1]
        p_rows = prim.basis.int_rows()
        pivots, picks, _ = _echelon(([row[c] for c in order] for row in p_rows), dim)
        t = len(trees)
        # a primitive row keeps a tree lead iff its tree part leaves the span of the earlier
        # ones; the other pivot rows vanish on the trees and span primitives ∩ decomposables
        generators = [p_rows[k] for k, lead in zip(picks, pivots) if lead < t]
        position = {c: j for j, c in enumerate(order)}
        core = [[v[position[c]] for c in range(dim)] for lead, v in pivots.items() if lead >= t]
        # a greedy pass over unit vectors in basis order keeps exactly the unled coordinates
        led = {order[lead] for lead in pivots}
        return DegreeDecomposition(
            degree=n,
            primitives=prim,
            decomposables=self.decomposables(n),
            core=Subspace.span(dim, core),
            decomposable_complement=tuple(k for k in multi if k not in led),
            primitive_generators=Subspace(
                dim, RationalMatrix.from_int_rows(generators, dim, prim.basis.den)
            ),
            residual=tuple(k for k in trees if k not in led),
        )

    def coordinates(self, n: int) -> tuple[list[int], list[int]]:
        """Basis indices of degree n: single trees, and forests of two or more trees."""
        split = self.algebra.first_trees(n)
        trees = [k for k, (i, _, _) in enumerate(split) if i == n]
        multi = [k for k, (i, _, _) in enumerate(split) if i < n]
        return trees, multi

    def degree_report(self, n: int) -> dict:
        """Dimensions and check flags for one degree, JSON-ready.

        Primitives must be as numerous as the algebra's generators (the forests
        minus the decomposables), and commutators of primitives must span
        exactly the core block.
        """
        split = self.decomposition(n)
        generators = self.algebra.dim(n) - len(split.decomposables)
        report = {
            "degree": n,
            "dims": split.dims(),
            "primitive_count_ok": split.primitives.dim == generators,
            "residual_matches_core": len(split.residual) == split.core.dim,
        }
        if n >= 2:
            report["bracket_matches_core"] = self.bracket_space(n) == split.core
        return report
