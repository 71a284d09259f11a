"""Integer recurrences that check series outputs without the code under test.

A series is a list ``c[0..N]`` of Python ints with the constant term of its
kind in ``c[0]`` (1 for R, 0 for P, S and D).  Only three relations are used,
each solved in the direction that needs no division beyond exact binomials:

* R = 1 / (1 - P)
* R = 1 + D * R^2
* 1 - S = prod_n (1 - h^n)^{p_n}
"""

from __future__ import annotations

import json
from fractions import Fraction

CONSTANT = {"r": 1, "p": 0, "s": 0, "d": 0}


def dense(kind: str, coeffs: list[int]) -> list[int]:
    return [CONSTANT[kind], *coeffs]


def r_from_p(p: list[int]) -> list[int]:
    r = [1] + [0] * (len(p) - 1)
    for n in range(1, len(p)):
        r[n] = sum(p[k] * r[n - k] for k in range(1, n + 1))
    return r


def p_from_r(r: list[int]) -> list[int]:
    # R (1 - P) = 1 solved for p_n, using r_0 = 1
    p = [0] * len(r)
    for n in range(1, len(r)):
        p[n] = r[n] - sum(p[k] * r[n - k] for k in range(1, n))
    return p


def r_from_d(d: list[int]) -> list[int]:
    r = [1] + [0] * (len(d) - 1)
    square = [1] + [0] * (len(d) - 1)  # R^2, filled one degree behind r
    for n in range(1, len(d)):
        r[n] = sum(d[k] * square[n - k] for k in range(1, n + 1))
        square[n] = sum(r[i] * r[n - i] for i in range(n + 1))
    return r


def d_from_r(r: list[int]) -> list[int]:
    # R = 1 + D R^2 solved for d_n, using (R^2)_0 = 1
    square = [sum(r[i] * r[n - i] for i in range(n + 1)) for n in range(len(r))]
    d = [0] * len(r)
    for n in range(1, len(r)):
        d[n] = r[n] - sum(d[k] * square[n - k] for k in range(1, n))
    return d


def s_from_p(p: list[int]) -> list[int]:
    order = len(p) - 1
    prod = [1] + [0] * order
    for n in range(1, order + 1):
        if not p[n]:
            continue
        # (1 - x)^e = sum_k (-1)^k binom(e, k) x^k, for any integer e
        factor, binom = [1], 1
        for k in range(order // n):
            binom = binom * (p[n] - k) // (k + 1)
            factor.append(-binom if k % 2 == 0 else binom)
        for m in range(order, n - 1, -1):
            prod[m] += sum(factor[k] * prod[m - k * n] for k in range(1, m // n + 1))
    return [0] + [-c for c in prod[1:]]


def to_r(kind: str, c: list[int]) -> list[int]:
    if kind == "r":
        return c
    if kind == "p":
        return r_from_p(c)
    if kind == "d":
        return r_from_d(c)
    raise ValueError(f"no forward recurrence from kind {kind!r} to R")


def parse_series(stdout: bytes, kind: str, order: int) -> list[int] | None:
    """Dense integer coefficients of a CLI series output, or None if malformed."""
    try:
        payload = json.loads(stdout)
        if payload["kind"] != kind.upper() or payload["order"] != order:
            return None
        values = [Fraction(c) for c in payload["coeffs"]]
    except (ValueError, KeyError, TypeError):
        return None
    if len(values) != order or any(v.denominator != 1 for v in values):
        return None
    return dense(kind, [int(v) for v in values])


def convert_ok(src_kind: str, src: list[int], dst_kind: str, stdout: bytes) -> bool:
    """True when ``stdout`` is the ``dst_kind`` series of the integer input ``src``."""
    dst = parse_series(stdout, dst_kind, len(src))
    if dst is None:
        return False
    a, b = dense(src_kind, src), dst
    if src_kind == "s":
        a, b, src_kind, dst_kind = b, a, dst_kind, src_kind
    if dst_kind == "s":
        return s_from_p(p_from_r(to_r(src_kind, a))) == b
    return to_r(src_kind, a) == to_r(dst_kind, b)


def gate_verdict(which: str, r_coeffs: list[int]) -> dict:
    """The JSON verdict a realizability gate must print for this R series."""
    r = dense("r", r_coeffs)
    values = d_from_r(r) if which == "nck" else s_from_p(p_from_r(r))
    for n in range(1, len(values)):
        if values[n] < 0:
            return {"pass": False, "first_failure": n, "witness": str(values[n])}
    return {"pass": True, "first_failure": None, "witness": None}


def json_equals(stdout: bytes, expected: dict) -> bool:
    try:
        return json.loads(stdout) == expected
    except ValueError:
        return False
