"""Catalog of known free-and-cofree Hopf algebras and their table rows.

Each entry records the dimension series of one algebra for degrees 1..8.
Five entries follow closed forms; the other three are only known through
their generator series, so their dimension series was reconstructed by series
inversion and is stored as data.  The tests round-trip it back to the
generator row.  The series layer loads only when a row is converted.
"""

from __future__ import annotations

from math import comb, factorial

from ._value import Value

TABLE_ORDER = 8


class AlgebraCatalogEntry(Value):
    name: str
    r_coeffs: tuple[int, ...]
    source: str

    def r_series(self) -> SeriesProfile:
        from .series import SeriesProfile

        return SeriesProfile.make("R", self.r_coeffs)

    def s_row(self) -> tuple[int, ...]:
        from .series import s_from_r

        return _ints(s_from_r(self.r_series()))

    def d_row(self) -> tuple[int, ...]:
        from .series import d_from_r

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


# the source of an r row that r_from_s gave from the entry's generator row
_RECONSTRUCTED = "reconstructed from its generator series"

CATALOG: tuple[AlgebraCatalogEntry, ...] = (
    AlgebraCatalogEntry("H_NCK", _catalan_row(TABLE_ORDER), "closed form: Catalan numbers"),
    AlgebraCatalogEntry("2-As(1)", (1, 2, 6, 22, 90, 394, 1806, 8558), _RECONSTRUCTED),
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
    AlgebraCatalogEntry("H_UBP", (1, 3, 16, 131, 1496, 22482, 426833, 9934563), _RECONSTRUCTED),
    AlgebraCatalogEntry(
        "H_DP", (1, 3, 19, 219, 4231, 130023, 6129859, 431723379), _RECONSTRUCTED
    ),
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
