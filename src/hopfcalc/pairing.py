"""Inductive construction of a symmetric nondegenerate Hopf pairing.

The pairing is built degree by degree over the canonical forest bases.  Three
rules pin it down: values on forests with at least two trees are forced by
pairing a leading tree tensor the remainder against coproducts (strictly lower
degrees), generators in the primitive-generator block pair through a
caller-supplied symmetric base form and vanish everywhere else, and residual
generators vanish on both generator blocks while their values on products are
forced again.  As the algebra is free on trees, the forced values fill every
Gram row at a forest of two or more trees, and symmetry their transposes.
The tree x tree block then follows in closed form (see ``_extend_degree``)
from three facts: the forced rows vanish on primitives, the residual rows are
unit vectors at tree coordinates, and the primitive generators are invertible
on the other tree coordinates, so that square block is the only matrix inverted.

The forced values and the multiplicativity check read the same contraction:
for degrees i and n - i, the reduced table is folded into the columns of the
larger lower Gram and summed by the rows of the smaller one, which gives the
pairing of x tensor y against every reduced coproduct for all x and y at
once.  The check compares those values with the degree-n Gram row by row, and
reads the first failing triple off the rows that differ.

Verification proves each Gram nondegenerate, and the primitives the kernel of
its rows at the multi-tree forests, by one certificate per degree: an exact
product and two ranks modulo a prime.  Where the certificate falls short,
the exact determinant or kernel decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import eq
from typing import Optional, Sequence

from ._value import Value
from .linalg import RationalMatrix, Subspace, kernel_basis, rank_mod_p, stack_rows
from .structure import DegreeDecomposition, HopfStructure
from .trees import memo


class DegenerateBaseForm(ValueError):
    """Raised when a requested base form block is singular."""


class PairingState(Value):
    """Per-degree Gram matrices of the pairing over canonical forest bases.

    Its fields are dicts, so the record is unhashable.
    """

    structure: HopfStructure
    max_degree: int
    base_form: dict[int, RationalMatrix]
    gram: dict[int, RationalMatrix]

    def generator_block(self, n: int) -> RationalMatrix:
        """Gram restricted to the primitive-generator basis H of degree n: H G H^T.

        The first product walks the nonzeros of H's sparse rows.
        """
        h = self.structure.decomposition(n).primitive_generators.basis
        return h @ self.gram[n] @ h.transpose()

    def gram_json(self) -> dict:
        return {
            str(n): [[str(x) for x in g.row(i)] for i in range(g.rows)]
            for n, g in sorted(self.gram.items())
        }


def _validate_base_form(form: RationalMatrix, size: int, n: int) -> None:
    if (form.rows, form.cols) != (size, size):
        raise ValueError(
            f"base form at degree {n} must be {size}x{size}, got {form.rows}x{form.cols}"
        )
    if not form.is_symmetric():
        raise ValueError(f"base form at degree {n} is not symmetric")
    if rank_mod_p(form.int_rows()) < size and form.det() == 0:
        raise DegenerateBaseForm(f"base form at degree {n} is singular")


def _contract(
    terms: Sequence[Sequence[tuple[int, int, int]]], left: RationalMatrix, right: RationalMatrix
) -> list[list[tuple[int, ...]]]:
    """Sum of c * left[x][a] * right[y][b] over the reduced-table terms (a, b, c) of each z.

    Entry [x][y] holds the numerators over left.den * right.den, one per z, for
    every row x of left and y of right.  The terms are folded into the columns
    of the larger Gram first, one row per index of the smaller one; the
    product by the smaller Gram then sums those rows.
    """
    swap = left.rows > right.rows
    small, large = (right, left) if swap else (left, right)
    n, width = large.rows, len(terms) * large.rows
    columns = list(zip(*large.int_rows()))
    folded = [0] * (small.cols * width)
    for z, zterms in enumerate(terms):
        for a, b, c in zterms:
            lo = (b if swap else a) * width + z * n
            column = columns[a if swap else b]
            folded[lo : lo + n] = [v + c * w for v, w in zip(folded[lo : lo + n], column)]
    # by row of the smaller Gram: over z, then over the rows of the larger one
    flat = (
        RationalMatrix(small.rows, small.cols, small.num)
        @ RationalMatrix(small.cols, width, folded)
    ).num

    def over_z(s: int, r: int) -> tuple[int, ...]:
        return flat[s * width + r : (s + 1) * width : n]

    if swap:
        return [[over_z(y, x) for y in range(small.rows)] for x in range(n)]
    return [[over_z(x, y) for y in range(n)] for x in range(small.rows)]


def _forced_products(state: PairingState, n: int) -> RationalMatrix:
    """Forced values on the multi-tree basis forests of degree n, in basis order.

    The row for a basis forest f = t . rest holds the pairing of t tensor rest
    against the reduced coproduct of each degree-n basis forest, evaluated
    with the already-built lower-degree Gram matrices.  The rows are read one
    first-tree degree at a time, so that one contraction is held at once.
    """
    alg = state.structure.algebra
    table = alg.reduced_table(n)
    splits = alg.first_trees(n)
    scales = {i: state.gram[i].den * state.gram[n - i].den for i in range(1, n)}
    den = lcm(*scales.values())
    rows: dict[int, list[int]] = {}  # numerators over den, by basis index
    for i, scale in scales.items():
        values = _contract([column.get(i, ()) for column in table], state.gram[i], state.gram[n - i])
        up = den // scale
        for index, (j, a, b) in enumerate(splits):
            if j == i:
                rows[index] = [up * v for v in values[a][b]]
    return RationalMatrix.from_int_rows([rows[k] for k in sorted(rows)], len(table), den)


def _extend_degree(
    state: PairingState, n: int, split: DegreeDecomposition, form: RationalMatrix
) -> None:
    """Write the degree-n Gram from its forced rows F and its tree x tree block X.

    Three facts give X in closed form: F h^T = 0 for the primitive generators
    h, the residual rows are unit vectors at tree coordinates R, and h on the
    other tree coordinates L is a square invertible h_L.  With K^T = h_M F_T
    (h on the multi-tree coordinates, F on the trees) and U = h_L^-1 on rows
    L, zero on rows R, X = U (form + h_T K) U^T - K U^T - U K^T pairs h as
    form, and h against the residual and the residual with itself as 0.
    """
    trees, multi = state.structure.coordinates(n)
    forced = _forced_products(state, n)
    h = split.primitive_generators.basis
    residual = {row.index(1) for row in split.residual.basis.int_rows()}

    def part(m: RationalMatrix, columns: list[int]) -> RationalMatrix:
        rows = [[row[j] for j in columns] for row in m.int_rows()]
        return RationalMatrix.from_int_rows(rows, len(columns), m.den)

    kt = part(h, multi) @ part(forced, trees)
    h_l_inv = part(h, [j for j in trees if j not in residual]).inverse()
    on_l, zero = iter(h_l_inv.int_rows()), (0,) * h.rows
    u = RationalMatrix.from_int_rows(
        [zero if j in residual else next(on_l) for j in trees], h.rows, h_l_inv.den
    )
    k = kt.transpose()
    # as (U form + U h_T K - K) U^T - U K^T, by subtractions alone
    x = (u @ form - (k - u @ (part(h, trees) @ k))) @ u.transpose() - u @ kt
    den = lcm(forced.den, x.den)
    rows = [[0] * forced.cols for _ in range(forced.cols)]
    for m, row in zip(multi, forced.int_rows()):
        rows[m] = [v * (den // forced.den) for v in row]
        for j in trees:
            rows[j][m] = rows[m][j]
    for i, row in zip(trees, x.int_rows()):
        for j, v in zip(trees, row):
            rows[i][j] = v * (den // x.den)
    state.gram[n] = RationalMatrix.from_int_rows(rows, forced.cols, den)


def build_pairing(
    max_degree: int,
    base_form: Optional[dict[int, RationalMatrix]] = None,
    structure: Optional[HopfStructure] = None,
) -> PairingState:
    """Build the pairing up to max_degree; identity base form by default.

    Each base-form key must be an ``int`` degree in 1..max_degree (a ``bool`` is not).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    overrides = dict(base_form) if base_form else {}
    stray = [k for k in overrides if type(k) is not int or not 1 <= k <= max_degree]
    if stray:
        raise ValueError(f"base form keys {stray!r} are not degrees in 1..{max_degree}")
    structure = structure if structure is not None else HopfStructure()
    state = PairingState(
        structure=structure,
        max_degree=max_degree,
        base_form={},
        gram={0: RationalMatrix.identity(1)},
    )
    for n in range(1, max_degree + 1):
        split = structure.decomposition(n)
        size = split.primitive_generators.dim
        form = overrides.get(n, RationalMatrix.identity(size))
        _validate_base_form(form, size, n)
        state.base_form[n] = form
        _extend_degree(state, n, split, form)
    return state


# ---------------------------------------------------------------------------
# verification


class PairingCheck(Value):
    name: str
    passed: bool
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        return {"check": self.name, "pass": self.passed, "counterexample": self.counterexample}


class PairingReport(Value):
    max_degree: int
    checks: tuple[PairingCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "pass": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _check_shapes(state: PairingState) -> Optional[dict]:
    for n in range(state.max_degree + 1):
        g = state.gram.get(n)
        want = state.structure.algebra.dim(n)
        if g is None or (g.rows, g.cols) != (want, want):
            got = None if g is None else [g.rows, g.cols]
            return {"degree": n, "got_shape": got, "want_size": want}
    return None


def _check_multiplicativity(state: PairingState) -> Optional[dict]:
    """First failing triple of either product-coproduct identity, or None.

    Triples where the pairing degrees disagree vanish on both sides by the
    graded representation, so only matched-degree triples carry content.
    Each (degree, left degree) block is compared row by row over z, one row
    per (x, y, side); the reported triple is the least (z, x, y, side) among
    the first failing z of each failing row.
    """
    alg = state.structure.algebra
    # <x y, z> = <x (x) y, coproduct of z> reads the Grams by rows; its mirror <z, x y> is
    # the same pass on the transposed Grams, so it runs only if some Gram is asymmetric
    grams = {n: state.gram[n] for n in range(1, state.max_degree + 1)}
    views = [grams]
    if not all(g.is_symmetric() for g in grams.values()):
        views.append({n: g.transpose() for n, g in grams.items()})
    for k in range(2, state.max_degree + 1):
        table = alg.reduced_table(k)
        for i in range(1, k):
            terms = [column.get(i, ()) for column in table]
            # both sides as numerators over the product of the Grams' denominators
            scale, den = grams[i].den * grams[k - i].den, grams[k].den
            products, misses = alg.products(i, k - i), []
            for side, view in enumerate(views):
                got, want = view[k].int_rows(), _contract(terms, view[i], view[k - i])
                for ix, row in enumerate(products):
                    for iy, ixy in enumerate(row):
                        have = list(map(scale.__mul__, got[ixy]))
                        need = list(map(den.__mul__, want[ix][iy]))
                        if have != need:
                            iz = list(map(eq, have, need)).index(False)
                            misses.append((iz, ix, iy, side, got[ixy][iz], want[ix][iy][iz]))
            if misses:
                iz, ix, iy, side, got_z, want_z = min(misses)
                return {
                    "identity": ("product-left", "product-right")[side],
                    "x": alg.basis(i)[ix].encode(),
                    "y": alg.basis(k - i)[iy].encode(),
                    "z": alg.basis(k)[iz].encode(),
                    "got": str(Fraction(got_z, den)),
                    "want": str(Fraction(want_z, scale)),
                }
    return None


def verify_hopf_pairing(state: PairingState) -> PairingReport:
    """Run the five pairing checks; exhaustive over basis elements."""
    checks = []

    unit = state.gram.get(0)
    unit_ok = unit == RationalMatrix.identity(1)
    checks.append(
        PairingCheck("unit-counit", unit_ok, None if unit_ok else {"degree": 0})
    )

    shape_fail = _check_shapes(state)
    mult_fail = shape_fail if shape_fail is not None else _check_multiplicativity(state)
    checks.append(PairingCheck("multiplicativity", mult_fail is None, mult_fail))
    checks.append(PairingCheck("homogeneity", shape_fail is None, shape_fail))

    sym_fail = None
    for n in range(state.max_degree + 1):
        g = state.gram.get(n)
        if g is None or not g.is_symmetric():
            sym_fail = {"degree": n}
            break
    checks.append(PairingCheck("symmetry", sym_fail is None, sym_fail))

    det_fail = None
    if shape_fail is not None:
        det_fail = shape_fail
    else:
        for n in range(state.max_degree + 1):
            if not _certified(state, n) and state.gram[n].det() == 0:
                det_fail = {"degree": n, "det": "0"}
                break
    checks.append(PairingCheck("nondegeneracy", det_fail is None, det_fail))

    return PairingReport(state.max_degree, tuple(checks))


def _certified(state: PairingState, n: int) -> bool:
    """The degree-n certificate's verdict for the state's Gram and primitives."""
    structure = state.structure
    return n >= 1 and _certify(structure, n, state.gram[n], structure.primitives(n))


@memo
def _certify(structure: HopfStructure, n: int, g: RationalMatrix, prim: Subspace) -> bool:
    """Whether a certificate proves G nondegenerate, with its rows M at multi of kernel span P.

    P is the basis of the primitives.  The certificate checks M P^T = 0 exactly,
    rank M = columns - |P| modulo ``linalg.PRIME`` and, modulo the same prime, rank |P| for
    P G on the tree columns.  A rank modulo a prime never exceeds the rank over the
    rationals, so these prove ker M = span P with P's rows independent.  For symmetric G,
    G x = 0 gives M x = 0, so x = P^T c, and then c^T (P G) = (G x)^T = 0 forces c = 0.
    False proves nothing: callers then run the exact check.
    """
    if prim.ambient_dim != g.cols or not g.is_symmetric():
        return False
    trees, multi = structure.coordinates(n)
    on_trees = []
    # as G is symmetric, the multi-tree columns of P G are M P^T transposed
    for values in (prim.basis @ g).int_rows():
        if any(values[c] for c in multi):
            return False
        on_trees.append([values[c] for c in trees])
    return (
        rank_mod_p(on_trees) == prim.dim
        and rank_mod_p(g.int_row(k) for k in multi) == g.cols - prim.dim
    )


class OrthogonalityCheck(Value):
    """Gram-orthogonal of the decomposables against the primitives."""

    degree: int
    orthogonal_dim: int
    primitive_dim: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "check": "primitive-orthogonality",
            "degree": self.degree,
            "orthogonal_dim": self.orthogonal_dim,
            "primitive_dim": self.primitive_dim,
            "pass": self.passed,
        }


def check_primitive_orthogonality(state: PairingState, n: int) -> OrthogonalityCheck:
    """The pairing-orthogonal of the decomposables must be the primitives."""
    structure = state.structure
    # raises FreenessError unless they are the multi-tree coordinates
    decomposables = structure.decomposables(n)
    primitives = structure.primitives(n)
    if _certified(state, n):
        # the kernel is span P, and its canonical basis is P's reduced row-echelon form
        dim, passed = primitives.dim, primitives.basis.rref()[0] == primitives.basis
    else:
        orthogonal = kernel_basis(decomposables.basis @ state.gram[n])
        dim, passed = orthogonal.dim, orthogonal == primitives
    return OrthogonalityCheck(n, dim, primitives.dim, passed)


# ---------------------------------------------------------------------------
# basis adaptation


class AdaptedBasis(Value):
    """Ordered block bases whose Gram matrix takes the split block form.

    Stacking core, decomposable_complement, primitive_generators, residual
    rows, the Gram matrix must vanish outside the two central diagonal blocks
    and the two identity blocks pairing core against residual.  The rows are
    kept as explicit ordered matrices: re-canonicalizing them would destroy
    the normalization.
    """

    degree: int
    core_rows: RationalMatrix
    decomposable_complement_rows: RationalMatrix
    primitive_generator_rows: RationalMatrix
    residual_rows: RationalMatrix
    block_gram: RationalMatrix

    def block_pattern_ok(self) -> bool:
        c = self.core_rows.rows
        m = self.decomposable_complement_rows.rows
        s = self.primitive_generator_rows.rows
        g, top = self.block_gram, c + m + s
        if self.residual_rows.rows != c or (g.rows, g.cols) != (top + c, top + c):
            return False
        # a core or residual row may be nonzero only at its partner's column, where it
        # reads 1; a complement or generator row only inside its own diagonal block
        central: tuple[list, list] = ([], [])
        for r, row in enumerate(g.int_rows()):
            if c <= r < top:
                inner = r >= c + m
                lo, hi = (c + m, top) if inner else (c, c + m)
                central[inner].append(row[lo:hi])
            else:
                lo = r + top if r < c else r - top
                hi = lo + 1
                if row[lo] != g.den:
                    return False
            if any(row[:lo]) or any(row[hi:]):
                return False
        for rows in central:
            diag = RationalMatrix.from_int_rows(rows, len(rows), g.den)
            if not diag.is_symmetric():
                return False
            # full rank modulo the prime proves it; short of that the exact rank decides
            if rank_mod_p(rows) < diag.rows and diag.rank() < diag.rows:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "block_form_ok": self.block_pattern_ok(),
            "block_dims": [
                self.core_rows.rows,
                self.decomposable_complement_rows.rows,
                self.primitive_generator_rows.rows,
                self.residual_rows.rows,
            ],
            "block_gram": [[str(x) for x in row] for row in self.block_gram.to_rows()],
        }


def adapt_complement(state: PairingState, n: int) -> AdaptedBasis:
    """Correct the complements so the degree-n Gram takes the block form.

    The residual basis is renormalized to pair identically against the core,
    then the decomposable complement absorbs core multiples so it pairs to
    zero against the new residual.  Spans of core, decomposables, primitives
    and residual are unchanged; only the complement representatives move.
    """
    structure = state.structure
    split = structure.decomposition(n)
    g = state.gram[n]
    dim = structure.algebra.dim(n)
    core, m_mat = split.core.basis, split.decomposable_complement.basis
    h_mat, w_mat = split.primitive_generators.basis, split.residual.basis
    if core.rows:
        duality = core @ g @ w_mat.transpose()
        w_mat = duality.inverse().transpose() @ w_mat
        spill = m_mat @ g @ w_mat.transpose()
        m_mat = m_mat - spill @ core
    stacked = stack_rows([core, m_mat, h_mat, w_mat], cols=dim)
    return AdaptedBasis(
        degree=n,
        core_rows=core,
        decomposable_complement_rows=m_mat,
        primitive_generator_rows=h_mat,
        residual_rows=w_mat,
        block_gram=stacked @ g @ stacked.transpose(),
    )
