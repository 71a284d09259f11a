"""Decorated planar rooted trees and their cut coproduct.

The algebra has one basis element per planar forest of decorated rooted trees;
the product is concatenation (free algebra on trees) and the coproduct sums
over admissible cuts: edge sets meeting each root-to-leaf path at most once.
Pruned branches go to the LEFT tensor factor, concatenated in left-to-right
depth-first order of their roots; the trunk containing the original root goes
RIGHT.  The empty cut yields 1 ⊗ t and the formal total cut yields t ⊗ 1.

That is the definition; the coproduct is computed from two identities instead
of enumerating cuts.  Grafting on a root is a 1-cocycle,
Δ(a[F]) = a[F] ⊗ 1 + (id ⊗ B⁺_a)Δ(F), and Δ is multiplicative, so a forest's
coproduct is the product of its trees' coproducts.

Degrees come from the decoration set (every decoration has degree >= 1, so the
degree-0 component is spanned by the empty forest alone).  The canonical basis
of each degree is sorted by serialized form; serialization is
``label[child child ...]`` with ``1`` for the empty forest.

``Tree`` and ``Forest`` are the public objects.  Internally each tree gets a
number once, and a forest is keyed by the tuple of its trees' numbers, so the
coproduct, the reduced tables and the product tables hash small int tuples
instead of whole trees.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Iterable, Optional

from ._value import Value

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TREE_START_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\[")


class DegreeZeroInput(ValueError):
    """A reduced coproduct was requested for the degree-0 component."""


def memo(method):
    """Per-instance memo keyed by method and arguments; a call that raises stores nothing."""

    @functools.wraps(method)
    def cached(self, *args):
        key = (method, *args)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = method(self, *args)
        return found

    return cached


class DecorationSet(Value):
    """Graded alphabet of vertex decorations; labels distinct, degrees >= 1."""

    entries: tuple[tuple[str, int], ...]

    def __init__(self, entries: Iterable[tuple[str, int]]) -> None:
        entries = tuple((label, degree) for label, degree in entries)
        if not entries:
            raise ValueError("decoration set must not be empty")
        for label, degree in entries:
            if not isinstance(label, str) or not _LABEL_RE.match(label):
                rule = "an ASCII letter or underscore, then ASCII letters, digits or underscores"
                raise ValueError(f"bad decoration label {label!r} ({rule})")
            if isinstance(degree, bool) or not isinstance(degree, int):
                raise ValueError(f"decoration degree {degree!r} is not an integer")
            if degree < 1:
                raise ValueError(f"decoration {label!r} has degree {degree}, must be >= 1")
        labels = [label for label, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate decoration labels in {labels}")
        super().__init__(entries)

    @classmethod
    def default(cls) -> DecorationSet:
        """The single degree-1 decoration; forest counts are the Catalan numbers."""
        return cls((("a", 1),))

    @classmethod
    def from_json(cls, text: str) -> DecorationSet:
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid decoration JSON: {exc}") from exc
        if not isinstance(payload, list):
            raise ValueError("decoration JSON must be a list of objects")
        entries = []
        for item in payload:
            if not isinstance(item, dict) or {"label", "degree"} - item.keys():
                raise ValueError("each decoration needs 'label' and 'degree'")
            entries.append((item["label"], item["degree"]))
        return cls(tuple(entries))

    def to_json(self) -> str:
        return json.dumps([{"label": l, "degree": d} for l, d in self.entries])

    def degree_of(self, label: str) -> int:
        for candidate, degree in self.entries:
            if candidate == label:
                return degree
        raise KeyError(f"unknown decoration {label!r}")

    def degree_counts(self, order: int) -> list[int]:
        """d_n = number of decorations of degree n, for n = 1..order."""
        counts = [0] * order
        for _, degree in self.entries:
            if degree <= order:
                counts[degree - 1] += 1
        return counts


class Tree(Value):
    decoration: str
    children: tuple[Tree, ...] = ()

    def encode(self) -> str:
        return f"{self.decoration}[{' '.join(c.encode() for c in self.children)}]"


class Forest(Value):
    trees: tuple[Tree, ...] = ()

    def encode(self) -> str:
        return " ".join(t.encode() for t in self.trees) if self.trees else "1"

    def __mul__(self, other: Forest) -> Forest:
        return Forest(self.trees + other.trees)


def _parse_tree_prefix(text: str) -> tuple[Tree, str]:
    match = _TREE_START_RE.match(text)
    if not match:
        raise ValueError(f"expected 'label[' at {text[:30]!r}")
    label = match.group(1)
    rest = text[match.end() :]
    children: list[Tree] = []
    while True:
        rest = rest.lstrip()
        if not rest:
            raise ValueError(f"unterminated tree {label!r}")
        if rest.startswith("]"):
            return Tree(label, tuple(children)), rest[1:]
        child, rest = _parse_tree_prefix(rest)
        children.append(child)


def parse_tree(text: str) -> Tree:
    tree, rest = _parse_tree_prefix(text.strip())
    if rest.strip():
        raise ValueError(f"trailing input after tree: {rest!r}")
    return tree


def parse_forest(text: str) -> Forest:
    rest = text.strip()
    if rest in ("", "1"):
        return Forest()
    trees: list[Tree] = []
    while rest:
        tree, rest = _parse_tree_prefix(rest)
        rest = rest.lstrip()
        trees.append(tree)
    return Forest(tuple(trees))


Key = tuple[int, ...]
KeyTerms = dict[tuple[Key, Key], int]
PairTerms = dict[tuple[Forest, Forest], int]
TableColumn = dict[int, tuple[tuple[int, int, int], ...]]


class ForestAlgebra:
    """Canonical bases and Hopf operations for one decoration set.

    Each tree is numbered on first sight, through the graft map from
    (label, children key) to its number, and its degree is recorded then; a
    forest is keyed by the tuple of its trees' numbers.  The coproduct, the
    reduced tables, the product tables and the first-tree split run on these
    keys.  ``Tree`` and ``Forest`` objects are built for the public views only.

    Per-degree tables are kept by ``memo``; all caches are filled deterministically
    and published whole, so concurrent repeated computation is idempotent.
    """

    def __init__(self, decorations: Optional[DecorationSet] = None) -> None:
        self.decorations = decorations if decorations is not None else DecorationSet.default()
        # per tree number: (label, children key), degree, the Tree and its serialized form
        self._nodes: list[tuple[str, Key]] = []
        self._degrees: list[int] = []
        self._tree_objects: list[Tree] = []
        self._codes: list[str] = []
        self._graft: dict[tuple[str, Key], int] = {}
        self._position: dict[Key, tuple[int, int]] = {}
        self._coterms: dict[Key, KeyTerms] = {(): {((), ()): 1}}
        self._memo: dict[tuple, object] = {}

    # -- enumeration ----------------------------------------------------------

    def _intern(self, label: str, children: Key) -> int:
        """Number of the tree label[children], given on first sight.

        A label outside the decoration set raises KeyError before anything is registered.
        """
        node = (label, children)
        found = self._graft.get(node)
        if found is None:
            degrees = self._degrees
            degree = self.decorations.degree_of(label) + sum(map(degrees.__getitem__, children))
            found = len(self._nodes)
            self._graft[node] = found
            self._nodes.append(node)
            degrees.append(degree)
            objects = self._tree_objects
            objects.append(Tree(label, tuple(objects[c] for c in children)))
            self._codes.append(objects[-1].encode())
        return found

    @memo
    def _tree_numbers(self, n: int) -> tuple[int, ...]:
        """Numbers of the degree-n trees in canonical order."""
        found = [
            self._intern(label, children)
            for label, degree in self.decorations.entries
            if degree <= n
            for children in self._forest_keys(n - degree)
        ]
        return tuple(sorted(found, key=self._codes.__getitem__))

    @memo
    def _forest_keys(self, n: int) -> tuple[Key, ...]:
        """Keys of the degree-n basis in canonical order; places each on the position map."""
        found = [
            (first,) + rest
            for k in range(1, n + 1)
            for first in self._tree_numbers(k)
            for rest in self._forest_keys(n - k)
        ]
        keys = tuple(sorted(found, key=self._code)) if n else ((),)
        self._position.update((key, (n, i)) for i, key in enumerate(keys))
        return keys

    def _code(self, key: Key) -> str:
        return " ".join(map(self._codes.__getitem__, key))

    def _forest(self, key: Key) -> Forest:
        return Forest(tuple(map(self._tree_objects.__getitem__, key)))

    def _key(self, trees: tuple[Tree, ...]) -> Key:
        return tuple(self._intern(t.decoration, self._key(t.children)) for t in trees)

    def trees_of_degree(self, n: int) -> tuple[Tree, ...]:
        if n < 1:
            return ()
        return tuple(map(self._tree_objects.__getitem__, self._tree_numbers(n)))

    @memo
    def basis(self, n: int) -> tuple[Forest, ...]:
        """All forests of degree n in canonical (serialized-lexicographic) order."""
        return tuple(map(self._forest, self._forest_keys(n))) if n >= 0 else ()

    def dim(self, n: int) -> int:
        return len(self._forest_keys(n)) if n >= 0 else 0

    def degree(self, forest: Forest) -> int:
        return sum(map(self._degrees.__getitem__, self._key(forest.trees)))

    def index(self, forest: Forest) -> int:
        """Position of a basis forest inside its degree's canonical order."""
        self._forest_keys(self.degree(forest))
        return self._position[self._key(forest.trees)][1]

    @memo
    def first_trees(self, n: int) -> tuple[tuple[int, int, int], ...]:
        """Per degree-n basis forest, (i, a, b): its first tree and the rest of it.

        They are basis(i)[a] and basis(n - i)[b]; i == n marks a single tree.  The
        algebra is free on trees, so the split is unique.
        """
        if n < 1:
            raise ValueError("the first-tree split is graded by degree >= 1")
        position = self._position
        return tuple((*position[key[:1]], position[key[1:]][1]) for key in self._forest_keys(n))

    @memo
    def products(self, i: int, j: int) -> tuple[tuple[int, ...], ...]:
        """Row a holds the index of basis(i)[a] * basis(j)[b] in basis(i + j), at b."""
        self._forest_keys(i + j)
        position, rights = self._position, self._forest_keys(j)
        return tuple(tuple(position[x + y][1] for y in rights) for x in self._forest_keys(i))

    # -- coproduct ------------------------------------------------------------

    def _coproduct(self, key: Key) -> KeyTerms:
        """Memoised coproduct of a forest key: {(left key, right key): coefficient}.

        Each tree a[F] contributes a[F] ⊗ 1 and L ⊗ a[R] for every term L ⊗ R
        of Δ(F).  A forest multiplies its trees' coproducts by concatenation,
        left to right, starting from its longest memoised prefix.
        """
        memo = self._coterms
        cached = memo.get(key)
        if cached is not None:
            return cached
        if len(key) == 1:
            label, children = self._nodes[key[0]]
            terms = {(key, ()): 1}
            for (left, right), coeff in self._coproduct(children).items():
                terms[left, (self._intern(label, right),)] = coeff
            memo[key] = terms
            return terms
        done = len(key) - 1
        while done > 1 and key[:done] not in memo:
            done -= 1
        terms = self._coproduct(key[:done])
        for k in range(done, len(key)):
            tree_terms = self._coproduct(key[k : k + 1]).items()
            combined: KeyTerms = {}
            for (left, right), coeff in terms.items():
                for (tree_left, tree_right), tree_coeff in tree_terms:
                    pair = (left + tree_left, right + tree_right)
                    combined[pair] = combined.get(pair, 0) + coeff * tree_coeff
            terms = combined
            memo[key[: k + 1]] = terms
        return terms

    def coproduct_terms(self, forest: Forest) -> PairTerms:
        """Sparse coproduct: {(left forest, right forest): coefficient}."""
        return {
            (self._forest(left), self._forest(right)): coeff
            for (left, right), coeff in self._coproduct(self._key(forest.trees)).items()
        }

    @memo
    def reduced_table(self, n: int) -> tuple[TableColumn, ...]:
        """Reduced coproduct of every degree-n basis forest, over basis indices.

        Column z maps each left degree i to the terms (a, b, c) of the reduced
        coproduct of basis(n)[z] that read c * basis(i)[a] (x) basis(n - i)[b].
        Raises if a term breaks the grading.
        """
        if n < 1:
            raise DegreeZeroInput("reduced coproduct needs degree >= 1")
        position = self._position
        columns = []
        for key in self._forest_keys(n):
            by_left: dict[int, list[tuple[int, int, int]]] = {}
            for (left, right), coeff in self._coproduct(key).items():
                if not (left and right):
                    continue
                # basis(n) has placed every forest a term can hold; one off the map
                # reads as the unit and fails the check like a unit factor would
                i, a = position.get(left, (0, 0))
                j, b = position.get(right, (0, 0))
                if not 0 < i < n or i + j != n:
                    raise RuntimeError(
                        f"coproduct of {self._code(key)!r} breaks the grading at "
                        f"{self._code(left)!r} (x) {self._code(right)!r}"
                    )
                by_left.setdefault(i, []).append((a, b, coeff))
            columns.append({i: tuple(terms) for i, terms in by_left.items()})
        return tuple(columns)
