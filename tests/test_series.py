"""Series-calculus tests.

Every derived expectation is computed here by an oracle that shares no code
with the library: geometric-series inversion, the printed low-degree
polynomials, naive integer polynomial products, the explicit product
prod (1-h^n)^{p_n} from binomial series, the stepwise inversion of that
product, the closed-form free Lie algebra dimension count, and the square-root
route R = 2/(1 + sqrt(1 - 4D)) for r_from_d.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcalc import series
from hopfcalc.series import (
    KINDS,
    GateVerdict,
    NonIntegerExponent,
    SeriesProfile,
    convert,
    d_from_r,
    gate_free_cofree,
    gate_nck,
    p_from_r,
    p_from_s,
    r_from_d,
    r_from_p,
    r_from_s,
    s_from_p,
    s_from_r,
    series_from_json,
    series_to_json,
)

P = SeriesProfile.make

CATALAN_R = [1, 2, 5, 14, 42, 132, 429, 1430]
FACTORIAL_R = [1, 2, 6, 24, 120, 720, 5040, 40320]


# ---------------------------------------------------------------------------
# oracles (independent implementations, no library helpers)


def poly_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i in range(min(len(a), order + 1)):
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] += a[i] * b[j]
    return out


def one_minus_power(step: int, power: Fraction, order: int) -> list[Fraction]:
    """(1 - h^step)^power by the binomial series; any rational power."""
    out = [Fraction(0)] * (order + 1)
    coeff = Fraction(1)
    for k in range(order // step + 1):
        out[k * step] = coeff
        coeff = -coeff * (power - k) / (k + 1)
    return out


def explicit_product(p: list[int]) -> list[Fraction]:
    """prod_n (1 - h^n)^{p_n} to order len(p), one binomial series per exponent."""
    order = len(p)
    prod = [Fraction(1)] + [Fraction(0)] * order
    for n, e in enumerate(p, start=1):
        prod = poly_mul(prod, one_minus_power(n, Fraction(e), order), order)
    return prod


def p_from_s_stepwise(s: SeriesProfile) -> SeriesProfile:
    """Invert 1 - S = prod_n (1 - h^n)^{p_n} one exponent at a time.

    With p_1..p_{n-1} known, the partial product prod_{k<n} (1-h^k)^{p_k}
    determines p_n because (1-h^n)^{p_n} contributes exactly -p_n at h^n.
    """
    order = s.order
    target = [Fraction(1)] + [-c for c in s.coeffs]
    partial = [Fraction(1)] + [Fraction(0)] * order
    p = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        p[n] = partial[n] - target[n]
        if p[n]:
            partial = poly_mul(partial, one_minus_power(n, p[n], order), order)
    return SeriesProfile("P", order, tuple(p[1:]))


def geometric_inverse(r: list[int | Fraction], order: int) -> list[Fraction]:
    """1/R via sum_k (1-R)^k; R given as coefficients of h^1.., constant 1."""
    tail = [Fraction(0)] + [-Fraction(c) for c in r[:order]]
    total = [Fraction(1)] + [Fraction(0)] * order
    power = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(order):
        power = poly_mul(power, tail, order)
        total = [x + y for x, y in zip(total, power)]
    return total


def sqrt_unit(a: list[Fraction], order: int) -> list[Fraction]:
    """Square root with constant term 1: t_n = (a_n - sum_{0<i<n} t_i t_{n-i}) / 2."""
    assert a[0] == 1
    t = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        t[n] = (a[n] - sum((t[i] * t[n - i] for i in range(1, n)), Fraction(0))) / 2
    assert poly_mul(t, t, order) == a[: order + 1]
    return t


def r_from_d_by_root(d: list[int | Fraction], order: int) -> list[Fraction]:
    """R = 2 / (1 + sqrt(1 - 4D)), the branch with R(0) = 1, all in Fractions."""
    root = sqrt_unit([Fraction(1)] + [-4 * Fraction(c) for c in d[:order]], order)
    half = [(1 + root[0]) / 2] + [c / 2 for c in root[1:]]
    return geometric_inverse(half[1:], order)[1:]


def printed_p2(r1, r2):
    return r2 - r1**2


def printed_p3(r1, r2, r3):
    return r3 + r1**3 - 2 * r2 * r1


def printed_s2(p1, p2):
    return p2 - p1**2 / 2 + p1 / 2


def printed_s3(p1, p2, p3):
    return p3 + p1 / 3 - p1 * p2 - p1**2 / 2 + p1**3 / 6


def printed_big_s2(r1, r2):
    return r2 - 3 * r1**2 / 2 + r1 / 2


def printed_big_s3(r1, r2, r3):
    return r3 + r1 / 3 - 3 * r1 * r2 - r1**2 / 2 + 13 * r1**3 / 6


def printed_d2(r1, r2):
    return r2 - 2 * r1**2


def printed_d3(r1, r2, r3):
    # cubic last term: forced by expanding (R-1)/R^2 by hand
    return r3 - 4 * r2 * r1 + 3 * r1**3


def witt_closed_form(m: int, n: int) -> Fraction:
    """(1/n) sum_{d|n} mu(d) m^{n/d}."""

    def mu(k: int) -> int:
        out, d = 1, 2
        while d * d <= k:
            if k % d == 0:
                k //= d
                if k % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if k > 1 else out

    total = sum(mu(d) * m ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return Fraction(total, n)


def brute_force_exponents(s: list[int], order: int) -> list[Fraction]:
    """Solve prod_n (1-h^n)^{p_n} = 1 - S one exponent at a time, naively.

    Integer-coefficient polynomial arithmetic only; negative exponents handled
    by multiplying the target by (1-h^n)^{-p_n} instead, so only nonnegative
    powers are ever expanded.
    """
    target = [Fraction(1)] + [-Fraction(c) for c in s[:order]]
    p: list[Fraction] = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        p[n] = -target[n]
        e = p[n]
        assert e.denominator == 1, "oracle only used on integral cases"
        base = [Fraction(0)] * (order + 1)
        base[0] = Fraction(1)
        if n <= order:
            base[n] = Fraction(-1)
        power = [Fraction(1)] + [Fraction(0)] * order
        for _ in range(abs(int(e))):
            power = poly_mul(power, base, order)
        if e >= 0:
            # divide target by (1-h^n)^{p_n}: multiply the running remainder's
            # inverse instead; cheaper to multiply target by the inverse series
            inv = geometric_inverse(power[1:], order)
            target = poly_mul(target, inv, order)
        else:
            target = poly_mul(target, power, order)
    return p


def catalan_recursion(order: int, copies: int = 1) -> list[int]:
    """r_n from R = 1 + copies * h * R^2 (planar forests on scaled decorations)."""
    r = [1] + [0] * order
    for n in range(1, order + 1):
        r[n] = copies * sum(r[i] * r[n - 1 - i] for i in range(n))
    return r[1:]


def functional_equation_d(r: list[int], order: int) -> list[Fraction]:
    """Solve R = 1 + D R^2 for d_n degree by degree."""
    dense = [Fraction(1)] + [Fraction(c) for c in r[:order]]
    r2 = poly_mul(dense, dense, order)
    d = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        d[n] = dense[n] - sum(d[k] * r2[n - k] for k in range(1, n))
    return d[1:]


# ---------------------------------------------------------------------------
# series inversion, through p_from_r: 1/R = 1 - P


def inverse_of(coeffs):
    return tuple(-c for c in p_from_r(P("R", coeffs)).coeffs)


def test_invert_identity():
    assert inverse_of([0, 0, 0, 0]) == (0, 0, 0, 0)


def test_invert_geometric():
    assert inverse_of([1, 0, 0]) == (-1, 1, -1)
    assert inverse_of([1, 1, 1, 1]) == (-1, 0, 0, 0)


def test_invert_matches_geometric_oracle():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        want = geometric_inverse(coeffs, 6)
        assert list(inverse_of(coeffs)) == want[1:]


# ---------------------------------------------------------------------------
# p_from_r / r_from_p


def test_p_from_r_printed_examples():
    assert p_from_r(P("R", [1, 1, 1, 1])).coeffs == (1, 0, 0, 0)
    assert p_from_r(P("R", [1, 2, 5])).coeffs == (1, 1, 2)
    # frozen via the geometric oracle: two degree-1 generators
    assert p_from_r(P("R", [2, 8])).coeffs == (2, 4)
    inv = geometric_inverse([2, 8], 2)
    assert (-inv[1], -inv[2]) == (2, 4)


def test_r_from_p_examples():
    assert r_from_p(P("P", [1, 0, 0, 0])).coeffs == (1, 1, 1, 1)
    assert r_from_p(P("P", [1, 1, 2])).coeffs == (1, 2, 5)
    assert r_from_p(P("P", [0, 0, 0])).coeffs == (0, 0, 0)


def test_p_r_round_trip_random_rationals():
    rng = random.Random(11)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(7)]
        r = P("R", coeffs)
        assert r_from_p(p_from_r(r)) == r
        p = P("P", coeffs)
        assert p_from_r(r_from_p(p)) == p


def test_p_from_r_matches_printed_polynomials_on_rationals():
    rng = random.Random(13)
    for _ in range(30):
        r1, r2, r3 = (Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(3))
        got = p_from_r(P("R", [r1, r2, r3]))
        assert got.coeffs == (r1, printed_p2(r1, r2), printed_p3(r1, r2, r3))


# ---------------------------------------------------------------------------
# s_from_p / p_from_s


def test_s_from_p_examples():
    assert s_from_p(P("P", [1, 0, 0])).coeffs == (1, 0, 0)
    assert s_from_p(P("P", [1, 1, 2])).coeffs == (1, 1, 1)
    # frozen by hand: (1-h)^2 (1-h^2) = 1 - 2h + 0h^2 + ...
    assert s_from_p(P("P", [2, 1])).coeffs == (2, 0)


def test_s_from_p_matches_printed_polynomials():
    rng = random.Random(17)
    for _ in range(30):
        p1, p2, p3 = (rng.randint(-5, 5) for _ in range(3))
        got = s_from_p(P("P", [p1, p2, p3]))
        assert got.coeffs == (
            Fraction(p1),
            printed_s2(Fraction(p1), Fraction(p2)),
            printed_s3(Fraction(p1), Fraction(p2), Fraction(p3)),
        )


def test_s_from_p_matches_explicit_product():
    rng = random.Random(61)
    cases = [[3, 0, -2, 0, 1, -1] + [0] * 20]
    cases += [[rng.randint(-4, 4) for _ in range(rng.randint(24, 32))] for _ in range(8)]
    for p in cases:
        assert 0 in p and min(p) < 0
        want = explicit_product(p)
        assert s_from_p(P("P", p)).coeffs == tuple(-c for c in want[1:])


def test_s_from_p_raises_on_inexact_division(monkeypatch):
    # a_m = m gives 2 c_2 = -(a_1 c_1 + a_2 c_0) = -1: not divisible by 2
    monkeypatch.setattr(series, "_divisor_sum", lambda x, m: m)
    with pytest.raises(RuntimeError, match="c_2"):
        s_from_p(P("P", [1, 0, 0]))


def test_s_from_p_rejects_rational_exponent():
    with pytest.raises(NonIntegerExponent):
        s_from_p(P("P", [Fraction(1, 2), 0]))


def test_p_from_s_examples_and_flag():
    assert p_from_s(P("S", [1, 0, 0])).coeffs == (1, 0, 0)
    got = p_from_s(P("S", [1, 1, 0]))
    assert got.coeffs == (1, 1, 1)
    assert got.is_integral() and got.first_nonintegral() is None
    # integer s always yields integer p (necklace-transform integrality), so
    # only a rational input can trip the flag
    flagged = p_from_s(P("S", [Fraction(1, 2), 0, 0]))
    assert not flagged.is_integral()
    assert flagged.first_nonintegral() == 1
    assert p_from_s_stepwise(P("S", [Fraction(1, 2), 0, 0])) == flagged


def test_p_from_s_flags_inexact_integer_division(monkeypatch):
    # without the divisor sum p_n = a_n / n, and a_2 = 1 for s = (1, 0, 0)
    monkeypatch.setattr(series, "_divisor_sum", lambda x, m: 0)
    got = p_from_s(P("S", [1, 0, 0]))
    assert got.first_nonintegral() == 2
    assert got.coeff(2) == Fraction(1, 2)


def test_p_from_s_integer_inputs_stay_integral():
    rng = random.Random(59)
    for _ in range(60):
        s = P("S", [rng.randint(-5, 5) for _ in range(8)])
        assert p_from_s(s).is_integral()


def test_p_from_s_witt_values():
    for m in (1, 2, 3):
        s = P("S", [m] + [0] * 7)
        got = p_from_s(s)
        stepwise = p_from_s_stepwise(s)
        brute = brute_force_exponents([m] + [0] * 7, 8)
        for n in range(1, 9):
            assert got.coeff(n) == witt_closed_form(m, n) == stepwise.coeff(n) == brute[n]


def test_p_from_s_two_routes_agree_on_random_input():
    rng = random.Random(19)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(8)]
        s = P("S", coeffs)
        assert p_from_s(s) == p_from_s_stepwise(s)


def test_s_p_round_trip_integer_exponents():
    rng = random.Random(23)
    for _ in range(40):
        coeffs = [rng.randint(-4, 4) for _ in range(7)]
        p = P("P", coeffs)
        assert p_from_s(s_from_p(p)) == p


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=5), min_size=1, max_size=8
    )
)
def test_p_from_s_matches_stepwise_oracle_on_random_rationals(coeffs):
    s = P("S", coeffs)
    assert p_from_s(s) == p_from_s_stepwise(s)


# ---------------------------------------------------------------------------
# s_from_r / r_from_s


def test_s_from_r_printed_rows():
    assert [int(c) for c in s_from_r(P("R", CATALAN_R)).coeffs] == [1, 1, 1, 3, 7, 24, 72, 242]
    assert s_from_r(P("R", [1, 1])).coeffs == (1, 0)
    assert printed_big_s2(Fraction(1), Fraction(1)) == 0


def test_r_from_s_negative_example():
    assert r_from_s(P("S", [1, 1, 0])).coeffs == (1, 2, 4)


def test_s_from_r_matches_printed_polynomials_on_integers():
    rng = random.Random(29)
    for _ in range(30):
        r1, r2, r3 = (rng.randint(-5, 5) for _ in range(3))
        got = s_from_r(P("R", [r1, r2, r3]))
        assert got.coeffs == (
            Fraction(r1),
            printed_big_s2(Fraction(r1), Fraction(r2)),
            printed_big_s3(Fraction(r1), Fraction(r2), Fraction(r3)),
        )


def test_r_s_round_trip_on_integer_series():
    rng = random.Random(31)
    for _ in range(30):
        r = P("R", [rng.randint(-5, 5) for _ in range(8)])
        assert r_from_s(s_from_r(r)) == r


# ---------------------------------------------------------------------------
# d_from_r / r_from_d


def test_d_from_r_examples():
    assert d_from_r(P("R", CATALAN_R)).coeffs == (1, 0, 0, 0, 0, 0, 0, 0)
    assert [int(c) for c in d_from_r(P("R", FACTORIAL_R)).coeffs] == [1, 0, 1, 6, 39, 284, 2305, 20682]
    assert d_from_r(P("R", [1, 2, 4])).coeffs == (1, 0, -1)


def test_d_from_r_matches_functional_equation_oracle():
    rng = random.Random(37)
    for _ in range(30):
        r = [rng.randint(-5, 5) for _ in range(8)]
        got = d_from_r(P("R", r))
        assert list(got.coeffs) == functional_equation_d(r, 8)


def test_d_from_r_matches_printed_polynomials():
    rng = random.Random(41)
    for _ in range(30):
        r1, r2, r3 = (Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(3))
        got = d_from_r(P("R", [r1, r2, r3]))
        assert got.coeffs == (r1, printed_d2(r1, r2), printed_d3(r1, r2, r3))


def test_r_from_d_examples():
    assert list(r_from_d(P("D", [1] + [0] * 7)).coeffs) == CATALAN_R
    assert list(r_from_d(P("D", [1] + [0] * 7)).coeffs) == catalan_recursion(8)
    assert r_from_d(P("D", [0, 0, 0])).coeffs == (0, 0, 0)
    assert r_from_d(P("D", [2, 0, 0])).coeffs == (2, 8, 40)
    assert catalan_recursion(3, copies=2) == [2, 8, 40]


coefficient_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=16) | st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=5), min_size=1, max_size=16
)


@settings(max_examples=60, deadline=None)
@given(coefficient_lists)
def test_r_from_d_matches_square_root_oracle(coeffs):
    got = r_from_d(P("D", coeffs))
    assert list(got.coeffs) == r_from_d_by_root(coeffs, len(coeffs))


@settings(max_examples=60, deadline=None)
@given(coefficient_lists)
def test_d_from_r_matches_functional_equation_on_random_input(coeffs):
    got = d_from_r(P("R", coeffs))
    assert list(got.coeffs) == functional_equation_d(coeffs, len(coeffs))


def test_d_r_round_trip():
    rng = random.Random(43)
    for _ in range(30):
        d = P("D", [rng.randint(-4, 4) for _ in range(8)])
        assert d_from_r(r_from_d(d)) == d
        r = P("R", [rng.randint(-4, 4) for _ in range(8)])
        assert r_from_d(d_from_r(r)) == r


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=10),
    st.sampled_from(["P", "S", "D"]),
)
def test_r_x_r_round_trip_on_random_integer_series(coeffs, kind):
    # R -> S -> R runs p_from_r, s_from_p, p_from_s and r_from_p
    r = P("R", coeffs)
    x = convert(r, kind)
    assert x.kind == kind and x.is_integral()
    assert convert(x, "R") == r


# ---------------------------------------------------------------------------
# integrality


def test_invert_unit_stays_in_int_on_integer_input():
    rng = random.Random(67)
    r = P("R", [rng.randint(-9, 9) * math.factorial(n) for n in range(1, 41)])
    dense = r.as_dense()
    assert {type(x) for x in dense} == {int}
    assert {type(x) for x in series._invert_unit(dense, 40)} == {int}


def test_integer_inputs_give_integer_outputs():
    rng = random.Random(47)
    for _ in range(120):
        r = P("R", [rng.randint(-5, 5) for _ in range(8)])
        assert p_from_r(r).is_integral()
        assert s_from_r(r).is_integral()
        assert d_from_r(r).is_integral()


# ---------------------------------------------------------------------------
# gates


def test_gate_free_cofree():
    assert gate_free_cofree(P("R", FACTORIAL_R)) == GateVerdict(True)
    verdict = gate_free_cofree(P("R", [1, 2, 3]))
    assert verdict == GateVerdict(False, 3, Fraction(-1))
    assert printed_big_s3(Fraction(1), Fraction(2), Fraction(3)) == -1
    assert gate_free_cofree(P("R", [1, 1, 1, 1])).passed
    assert gate_free_cofree(P("R", [1, 2, 4])).passed


def test_gate_nck():
    assert gate_nck(P("R", CATALAN_R)).passed
    assert gate_nck(P("R", [1, 2, 4])) == GateVerdict(False, 3, Fraction(-1))
    assert gate_nck(P("R", [1, 2, 6, 24])).passed


def test_gates_reject_rational_series():
    with pytest.raises(ValueError):
        gate_nck(P("R", [Fraction(1, 2)]))
    with pytest.raises(ValueError):
        gate_free_cofree(P("R", [Fraction(1, 2)]))


def test_nck_gate_implies_free_cofree_gate():
    rng = random.Random(53)
    for _ in range(60):
        d = P("D", [rng.randint(0, 3) for _ in range(7)])
        r = r_from_d(d)
        assert r.is_integral()
        assert gate_nck(r).passed
        assert gate_free_cofree(r).passed


# ---------------------------------------------------------------------------
# convert dispatch, profiles, JSON


def test_convert_all_kind_pairs():
    r = P("R", CATALAN_R)
    for kind in ("R", "P", "S", "D"):
        sk = convert(r, kind)
        assert sk.kind == kind
        assert convert(sk, "R") == r
    assert convert(r, "R") is r


def test_profile_validation():
    with pytest.raises(ValueError):
        SeriesProfile("Q", 1, (Fraction(1),))
    with pytest.raises(ValueError):
        SeriesProfile("R", 2, (Fraction(1),))
    with pytest.raises(ValueError):
        P("R", [1, 2]).coeff(3)
    assert P("R", [1, 2]).coeff(0) == 1
    assert P("S", [1, 2]).coeff(0) == 0
    assert P("R", [1, 2, 3]).truncate(2) == P("R", [1, 2])


def test_profile_rejects_float_and_bool():
    for bad in ([0.1], [True], [1, False], [Fraction(1, 2), 2.0], [None], [b"1"]):
        with pytest.raises(ValueError):
            P("R", bad)
        with pytest.raises(ValueError):
            SeriesProfile("R", len(bad), tuple(bad))
    with pytest.raises(ValueError):
        SeriesProfile("R", True, (Fraction(1),))
    assert P("R", [1, Fraction(1, 2), "-3/4"]).coeffs == (1, Fraction(1, 2), Fraction(-3, 4))


@pytest.mark.parametrize(
    "bad", ["1/0", "-3/00", " 7 ", "7\n", "1e3", "1_000", "\u0661", "0.5", "1/-2", "+-1", ""]
)
def test_profile_rejects_strings_outside_the_grammar(bad):
    # one grammar for the API and the exchange format, and a zero denominator is a ValueError
    with pytest.raises(ValueError):
        P("R", [1, bad])
    with pytest.raises(ValueError):
        series_from_json(json.dumps({"kind": "R", "order": 2, "coeffs": ["1", bad]}))


def test_kind_checks():
    with pytest.raises(ValueError):
        p_from_r(P("P", [1]))
    with pytest.raises(ValueError):
        s_from_p(P("S", [1]))


def test_json_round_trip():
    s = P("S", [1, Fraction(-3, 2), 0])
    text = series_to_json(s)
    assert series_from_json(text) == s
    parsed = series_from_json('{"kind": "R", "order": 3, "coeffs": ["1", "5/1", "-2"]}')
    assert parsed == P("R", [1, 5, -2])


def test_json_rejects_malformed_input():
    for bad in (
        "not json",
        "[]",
        '{"kind": "R"}',
        '{"kind": "R", "order": 1, "coeffs": ["x"]}',
        # Fraction reads these, but series JSON allows only integers and p/q
        '{"kind": "R", "order": 1, "coeffs": ["1e3"]}',
        '{"kind": "R", "order": 1, "coeffs": ["0.5"]}',
    ):
        with pytest.raises(ValueError):
            series_from_json(bad)


def test_order_200_conversions_are_pinned():
    # one small-integer and one factorial-size input for each of the 12 kind
    # pairs; the digest was recorded with the all-Fraction conversions
    rng = random.Random(2010)
    lines = []
    for a in KINDS:
        for b in KINDS:
            if a == b:
                continue
            small = [rng.randint(-3, 3) for _ in range(200)]
            big = [rng.randint(-9, 9) * math.factorial(n) for n in range(1, 201)]
            for coeffs in (small, big):
                lines.append(series_to_json(convert(P(a, coeffs), b)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0fa6ea92af9bdba4fc2fe442f126af77147f88ed4de8bae49bc2d6dc332207df"
