"""Exact calculus on truncated Poincaré-Hilbert series.

A graded connected algebra that is free with cofree underlying coalgebra is
pinned down, at the level of dimensions, by any one of four integer sequences:

* ``R``: dimensions of the graded pieces, as the series 1 + r_1 h + r_2 h^2 + ...
* ``P``: dimensions of the primitive elements, P = 1 - 1/R
* ``S``: dimensions of the indecomposable primitives, 1 - S = prod (1-h^n)^{p_n}
* ``D``: decoration counts of the tree model, D = 1/R - 1/R^2, so R = 1 + D R^2

This module converts between the four profiles exactly (truncated at a fixed
order, no floats anywhere) and provides the two realizability gates built on
those conversions.  A profile stores only the coefficients of h^1..h^N, as
``Fraction``s; the constant term is implied by the kind (1 for R, 0 for P, S,
D).  The recurrences run on plain ``int``s, and a ``Fraction`` appears only
where a coefficient is not integral.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from ._value import Value

Coefficient = Union[int, Fraction, str]

KINDS = ("R", "P", "S", "D")

#: constant term (degree-0 coefficient) implied by each profile kind
_CONSTANT_TERM = {"R": 1, "P": 0, "S": 0, "D": 0}

#: a coefficient string of series JSON: a signed integer, or one over a positive integer
_COEFFICIENT_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class NonIntegerExponent(ValueError):
    """A product (1-h^n)^{p_n} was requested with a non-integer exponent."""


def _coefficient(c: Coefficient) -> Fraction:
    """An int, a Fraction, or a string of series JSON's grammar, as a Fraction."""
    if type(c) is int or isinstance(c, Fraction):
        return Fraction(c)
    if not isinstance(c, str) or not _COEFFICIENT_RE.fullmatch(c):
        raise ValueError(f"coefficient {c!r} is not an int, Fraction or fraction string")
    try:
        return Fraction(c)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {c!r} has a zero denominator") from None
    except ValueError as exc:  # more digits than Python converts
        raise ValueError(f"coefficient string: {exc}") from None


class SeriesProfile(Value):
    """A truncated series of one of the four kinds, coefficients for h^1..h^order."""

    kind: str
    order: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, kind: str, order: int, coeffs: Sequence[Coefficient]) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown series kind {kind!r}, expected one of {KINDS}")
        if isinstance(order, bool) or not isinstance(order, int):
            raise ValueError(f"order must be an int, got {order!r}")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        coeffs = tuple(map(_coefficient, coeffs))
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        super().__init__(kind, order, coeffs)

    @classmethod
    def make(cls, kind: str, coeffs: Iterable[Coefficient]) -> SeriesProfile:
        cs = tuple(coeffs)
        return cls(kind, len(cs), cs)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of h^n, 0 <= n <= order (degree 0 comes from the kind)."""
        if n == 0:
            return Fraction(_CONSTANT_TERM[self.kind])
        if not 1 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n - 1]

    def truncate(self, order: int) -> SeriesProfile:
        if not 1 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} profile to {order}")
        return SeriesProfile(self.kind, order, self.coeffs[:order])

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def first_nonintegral(self) -> Optional[int]:
        """Least n with a non-integer coefficient, or None."""
        for n, c in enumerate(self.coeffs, start=1):
            if c.denominator != 1:
                return n
        return None

    def as_dense(self) -> list[Union[int, Fraction]]:
        """Coefficients indexed 0..order, constant term included; integral ones as ``int``."""
        tail = (c.numerator if c.denominator == 1 else c for c in self.coeffs)
        return [_CONSTANT_TERM[self.kind], *tail]


class GateVerdict(Value):
    """Outcome of a realizability gate.

    ``witness`` is the offending coefficient at ``first_failure`` when the gate
    fails; both are None on a pass.
    """

    passed: bool
    first_failure: Optional[int] = None
    witness: Optional[Fraction] = None

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "first_failure": self.first_failure,
            "witness": str(self.witness) if self.witness is not None else None,
        }


# ---------------------------------------------------------------------------
# dense helpers: lists indexed by degree 0..N, of ints or Fractions alike


def _mul(a: Sequence, b: Sequence, order: int) -> list:
    # both of length > order
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]


def _invert_unit(a: Sequence, order: int) -> list:
    # requires a[0] == 1 and len(a) > order; b_n = -sum_{k=1..n} a_k b_{n-k}
    if a[0] != 1:
        raise ValueError("can only invert a series with constant term 1")
    b = [1] + [0] * order
    for n in range(1, order + 1):
        b[n] = -sum(a[k] * b[n - k] for k in range(1, n + 1))
    return b


def _exact(x, n: int):
    """x / n, as an int when n divides the int x, else as a Fraction."""
    if isinstance(x, int) and x % n == 0:
        return x // n
    return Fraction(x) / n


def _divisor_sum(x: Sequence, m: int):
    """sum_{d | m} d * x[d], for x indexed by degree."""
    return sum(d * x[d] for d in range(1, m + 1) if m % d == 0)


def _require_kind(series: SeriesProfile, kind: str, op: str) -> None:
    if series.kind != kind:
        raise ValueError(f"{op} expects a {kind}-profile, got {series.kind}")


def _profile(kind: str, dense: Sequence, order: int) -> SeriesProfile:
    return SeriesProfile(kind, order, tuple(dense[1 : order + 1]))


# ---------------------------------------------------------------------------
# conversions


def p_from_r(r: SeriesProfile) -> SeriesProfile:
    """Primitive dimensions from graded dimensions: P = 1 - 1/R."""
    _require_kind(r, "R", "p_from_r")
    inv = _invert_unit(r.as_dense(), r.order)
    return _profile("P", [0] + [-c for c in inv[1:]], r.order)


def r_from_p(p: SeriesProfile) -> SeriesProfile:
    """Graded dimensions from primitive dimensions: R = 1/(1 - P)."""
    _require_kind(p, "P", "r_from_p")
    one_minus = [1] + [-c for c in p.as_dense()[1:]]
    return _profile("R", _invert_unit(one_minus, p.order), p.order)


# The product formula C = 1 - S = prod_n (1 - h^n)^{p_n} has logarithmic
# derivative h C'/C = -sum_m a_m h^m with a_m = sum_{d | m} d p_d, that is
#     n c_n = -sum_{k=1..n} a_k c_{n-k}.
# s_from_p solves this recurrence for c_n, p_from_s for a_n.


def s_from_p(p: SeriesProfile) -> SeriesProfile:
    """Indecomposable-primitive dimensions: 1 - S = prod_n (1 - h^n)^{p_n}.

    The exponents p_n must be integers (they count free generators of a free
    Lie algebra); a rational exponent raises NonIntegerExponent.  The
    recurrence then runs in integers, and each division by n must be exact.
    """
    _require_kind(p, "P", "s_from_p")
    order = p.order
    bad = p.first_nonintegral()
    if bad is not None:
        raise NonIntegerExponent(
            f"p_{bad} = {p.coeff(bad)} is not an integer, product exponents must be integers"
        )
    exponents = p.as_dense()
    a = [0] + [_divisor_sum(exponents, m) for m in range(1, order + 1)]
    c = [1] + [0] * order
    for n in range(1, order + 1):
        c[n], rest = divmod(-sum(a[k] * c[n - k] for k in range(1, n + 1)), n)
        if rest:
            raise RuntimeError(f"product formula: c_{n} is not an integer")
    return _profile("S", [0] + [-x for x in c[1:]], order)


def p_from_s(s: SeriesProfile) -> SeriesProfile:
    """Invert the product formula through its logarithmic derivative.

    Solves n c_n = -sum_{k=1..n} a_k c_{n-k} for a_n, then peels the
    divisor sum a_n = sum_{d | n} d p_d for p_n.  The result can be
    non-integral when s is not realizable by integer generator counts; it is
    returned anyway, and ``result.is_integral()`` / ``result.first_nonintegral()``
    report the flag.
    """
    _require_kind(s, "S", "p_from_s")
    order = s.order
    c = [1] + [-x for x in s.as_dense()[1:]]
    a = [0] * (order + 1)
    p = [0] * (order + 1)
    for n in range(1, order + 1):
        a[n] = -n * c[n] - sum(a[k] * c[n - k] for k in range(1, n))
        # p[n] is still 0 here, so the divisor sum covers d < n only
        p[n] = _exact(a[n] - _divisor_sum(p, n), n)
    return _profile("P", p, order)


def s_from_r(r: SeriesProfile) -> SeriesProfile:
    return s_from_p(p_from_r(r))


def r_from_s(s: SeriesProfile) -> SeriesProfile:
    return r_from_p(p_from_s(s))


def d_from_r(r: SeriesProfile) -> SeriesProfile:
    """Decoration counts of the tree model: D = (R - 1) / R^2 = 1/R - 1/R^2."""
    _require_kind(r, "R", "d_from_r")
    inv = _invert_unit(r.as_dense(), r.order)
    return _profile("D", [x - y for x, y in zip(inv, _mul(inv, inv, r.order))], r.order)


def r_from_d(d: SeriesProfile) -> SeriesProfile:
    """Graded dimensions from decoration counts: solve R = 1 + D R^2 with R(0) = 1.

    r_n = sum_{k=1..n} d_k q_{n-k} needs the square Q = R^2 only below degree
    n, so Q is extended one degree at a time alongside R; nothing divides.
    """
    _require_kind(d, "D", "r_from_d")
    order, dd = d.order, d.as_dense()
    r = [1] + [0] * order
    q = [1] + [0] * order
    for n in range(1, order + 1):
        r[n] = sum(dd[k] * q[n - k] for k in range(1, n + 1))
        q[n] = sum(r[i] * r[n - i] for i in range(n + 1))
    return _profile("R", r, order)


def convert(series: SeriesProfile, to_kind: str) -> SeriesProfile:
    """Convert between any two of the four profile kinds."""
    if to_kind not in KINDS:
        raise ValueError(f"unknown series kind {to_kind!r}, expected one of {KINDS}")
    if series.kind == to_kind:
        return series
    to_r = {"R": lambda x: x, "P": r_from_p, "S": r_from_s, "D": r_from_d}
    from_r = {"R": lambda x: x, "P": p_from_r, "S": s_from_r, "D": d_from_r}
    return from_r[to_kind](to_r[series.kind](series))


# ---------------------------------------------------------------------------
# realizability gates


def _gate(
    r: SeriesProfile, name: str, derive: Callable[[SeriesProfile], SeriesProfile]
) -> GateVerdict:
    _require_kind(r, "R", name)
    if not r.is_integral():
        raise ValueError(f"{name} expects an integer dimension series")
    values = derive(r)
    for n in range(1, values.order + 1):
        c = values.coeff(n)
        if c.denominator != 1 or c < 0:
            return GateVerdict(False, n, c)
    return GateVerdict(True)


def gate_free_cofree(r: SeriesProfile) -> GateVerdict:
    """Pass iff every s_n derived from r is a nonnegative integer."""
    return _gate(r, "gate_free_cofree", s_from_r)


def gate_nck(r: SeriesProfile) -> GateVerdict:
    """Pass iff every d_n derived from r is a nonnegative integer."""
    return _gate(r, "gate_nck", d_from_r)


# ---------------------------------------------------------------------------
# exchange format


def series_to_json(series: SeriesProfile) -> str:
    payload = {
        "kind": series.kind,
        "order": series.order,
        "coeffs": [str(c) for c in series.coeffs],
    }
    return json.dumps(payload)


def series_from_json(text: str) -> SeriesProfile:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid series JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("series JSON must be an object")
    missing = {"kind", "order", "coeffs"} - payload.keys()
    if missing:
        raise ValueError(f"series JSON missing keys: {sorted(missing)}")
    if not isinstance(payload["coeffs"], list):
        raise ValueError("series JSON: coeffs must be a list")
    return SeriesProfile(payload["kind"], payload["order"], payload["coeffs"])
