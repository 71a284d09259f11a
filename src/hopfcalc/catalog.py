"""Catalog of known free-and-cofree Hopf algebras and their table rows.

Each entry records the dimension series of one algebra for degrees 1..8.
Five entries follow closed forms; the other three are only known here through
their generator series, so their dimension series is reconstructed by series
inversion at import time and round-tripped back as a consistency check.
"""

from __future__ import annotations

from math import comb, factorial

from ._value import Value
from .series import SeriesProfile, d_from_r, r_from_s, s_from_r

TABLE_ORDER = 8


class AlgebraCatalogEntry(Value):
    name: str
    r_coeffs: tuple[int, ...]
    source: str

    def r_series(self) -> SeriesProfile:
        return SeriesProfile.make("R", self.r_coeffs)

    def s_row(self) -> tuple[int, ...]:
        return _ints(s_from_r(self.r_series()))

    def d_row(self) -> tuple[int, ...]:
        return _ints(d_from_r(self.r_series()))


def _ints(series: SeriesProfile) -> tuple[int, ...]:
    bad = series.first_nonintegral()
    if bad is not None:
        raise ValueError(f"{series.kind}-series coefficient {bad} is {series.coeff(bad)}, not an int")
    return tuple(int(c) for c in series.coeffs)


def _catalan_row(top: int) -> tuple[int, ...]:
    return tuple(comb(2 * n, n) // (n + 1) for n in range(1, top + 1))


def _ordered_bell_row(top: int) -> tuple[int, ...]:
    values = [1]
    for n in range(1, top + 1):
        values.append(sum(comb(n, k) * values[n - k] for k in range(1, n + 1)))
    return tuple(values[1:])


def _reconstructed(name: str, s_row: tuple[int, ...]) -> AlgebraCatalogEntry:
    r = r_from_s(SeriesProfile.make("S", s_row))
    entry = AlgebraCatalogEntry(name, _ints(r), "reconstructed from its generator series")
    if entry.s_row() != s_row:
        raise RuntimeError(f"{name}: its dimension series does not give back its generator row")
    return entry


CATALOG: tuple[AlgebraCatalogEntry, ...] = (
    AlgebraCatalogEntry("H_NCK", _catalan_row(TABLE_ORDER), "closed form: Catalan numbers"),
    _reconstructed("2-As(1)", (1, 1, 2, 8, 31, 141, 642, 3070)),
    AlgebraCatalogEntry(
        "FQSym",
        tuple(factorial(n) for n in range(1, TABLE_ORDER + 1)),
        "closed form: factorials",
    ),
    AlgebraCatalogEntry(
        "NCQSym",
        _ordered_bell_row(TABLE_ORDER),
        "closed form: ordered Bell numbers; matches its generator row",
    ),
    AlgebraCatalogEntry(
        "PQSym",
        tuple((n + 1) ** (n - 1) for n in range(1, TABLE_ORDER + 1)),
        "closed form: (n+1)^(n-1); matches its generator row",
    ),
    _reconstructed("H_UBP", (1, 2, 9, 86, 1083, 17621, 353420, 8553300)),
    _reconstructed("H_DP", (1, 2, 12, 165, 3545, 116621, 5722481, 412795614)),
    AlgebraCatalogEntry(
        "RPi",
        tuple(factorial(n) ** 2 for n in range(1, TABLE_ORDER + 1)),
        "closed form: squared factorials; matches its generator row",
    ),
)


def entry_by_name(name: str) -> AlgebraCatalogEntry:
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def render_table(which: str, max_n: int = TABLE_ORDER) -> str:
    """CSV text of the generator (s) or decoration (d) table, without trailing newline."""
    if which not in ("s", "d"):
        raise ValueError(f"table must be 's' or 'd', got {which!r}")
    if not 1 <= max_n <= TABLE_ORDER:
        raise ValueError(f"max_n must be between 1 and {TABLE_ORDER}, got {max_n}")
    header = "name," + ",".join(f"n{i}" for i in range(1, max_n + 1))
    lines = [header]
    for entry in CATALOG:
        row = entry.s_row() if which == "s" else entry.d_row()
        lines.append(entry.name + "," + ",".join(str(v) for v in row[:max_n]))
    return "\n".join(lines)
