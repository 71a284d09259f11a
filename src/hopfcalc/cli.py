"""Command-line surface for series conversions, gates, tables, and the
tree Hopf algebra analyses.

Exit codes form a contract: 0 success or pass, 1 failed gate or failed
verification, 2 unreadable or malformed input, 3 domain error (bad values in
well-formed input), 4 resource cap exceeded or exhausted, 141 stdout closed
before the output was written.  The environment variable HOPF_CAP overrides
the degree caps of the nck and pairing commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .catalog import TABLE_ORDER, render_table

# the series, tree, structure and pairing layers are imported inside the
# commands that run them, so each command starts with only what it runs
NCK_CAP = 7
PAIRING_CAP = 6


class ParseFailure(Exception):
    """Input file or series payload could not be understood."""


class CapExceeded(Exception):
    """Requested degree is beyond the configured safety cap."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _load_series(path: str, expect_kind: str) -> SeriesProfile:
    from .series import series_from_json

    text = _read_text(path)
    try:
        series = series_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseFailure(f"invalid series input: {exc}") from exc
    if series.kind != expect_kind:
        raise ParseFailure(f"input series has kind {series.kind}, expected {expect_kind}")
    return series


def _load_decorations(path: Optional[str]):
    from .trees import DecorationSet

    if path is None:
        return DecorationSet.default()
    text = _read_text(path)
    try:
        return DecorationSet.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseFailure(f"invalid decoration input: {exc}") from exc


def _degree_cap(max_degree: int, default: int, least: int) -> int:
    """The degree cap, HOPF_CAP or default, once max_degree is checked against it and least."""
    raw = os.environ.get("HOPF_CAP")
    cap = default
    if raw:
        # ASCII digits only, as in series coefficients: int() alone also reads '+7', ' 7' and '1_0'
        try:
            cap = int(raw) if raw.isascii() and raw.isdigit() else 0
        except ValueError:  # more digits than Python converts
            cap = 0
        if cap < 1:
            raise ValueError(f"HOPF_CAP must be a positive integer, got {raw!r}")
    if max_degree > cap:
        raise CapExceeded(f"--max-degree {max_degree} exceeds the cap {cap}")
    if max_degree < least:
        raise ValueError(f"--max-degree must be >= {least}")
    return cap


def _print_in_full() -> None:
    """Lift Python's cap on int-to-decimal digits once the input is parsed; main restores it."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_convert(args: argparse.Namespace) -> int:
    from .series import convert, series_to_json

    series = _load_series(args.input, args.from_kind.upper())
    if args.order is not None:
        if args.order < 1 or args.order > series.order:
            raise ValueError(
                f"--order must be between 1 and the input order {series.order}, got {args.order}"
            )
        series = series.truncate(args.order)
    _print_in_full()
    print(series_to_json(convert(series, args.to_kind.upper())))
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    from .series import gate_free_cofree, gate_nck

    series = _load_series(args.input, "R")
    _print_in_full()
    gate = gate_free_cofree if args.which == "free-cofree" else gate_nck
    verdict = gate(series)
    print(json.dumps(verdict.to_json()))
    return 0 if verdict.passed else 1


def cmd_tables(args: argparse.Namespace) -> int:
    if args.max < 1:
        raise ValueError(f"--max must be >= 1, got {args.max}")
    if args.max > TABLE_ORDER:
        raise CapExceeded(f"tables cover degrees 1..{TABLE_ORDER}, got --max {args.max}")
    print(render_table(args.which, args.max))
    return 0


def cmd_nck(args: argparse.Namespace) -> int:
    from .series import SeriesProfile, p_from_r, r_from_d, s_from_r

    cap = _degree_cap(args.max_degree, NCK_CAP, 1)
    decorations = _load_decorations(args.decorations)
    _print_in_full()
    top = args.max_degree
    # the forests are counted by R = 1 + D R^2, not built; verify builds them
    r_series = r_from_d(SeriesProfile.make("D", decorations.degree_counts(top)))
    if args.mode == "dims":
        _emit(
            {
                "max_degree": top,
                "decorations": json.loads(decorations.to_json()),
                "r": [int(c) for c in r_series.coeffs],
                "p": [int(c) for c in p_from_r(r_series).coeffs],
                "s": [int(c) for c in s_from_r(r_series).coeffs],
            }
        )
        return 0
    # verify's work follows the forest count, so the cap bounds it too: by the default set's
    # count at the cap, Catalan(cap), taken by its recurrence only as far as the test needs
    forests, budget, k = int(r_series.coeff(top)), 1, 0
    while budget < forests and k < cap:
        budget, k = budget * 2 * (2 * k + 1) // (k + 2), k + 1
    if forests > budget:
        raise CapExceeded(
            f"{forests} forests at degree {top} exceed the budget of {budget}, "
            f"the default set's count at the cap {cap}"
        )
    from .structure import HopfStructure
    from .trees import ForestAlgebra

    structure = HopfStructure(ForestAlgebra(decorations))
    reports = [structure.degree_report(n) for n in range(1, top + 1)]
    # every boolean of a report is a check, named by structure.degree_report alone
    ok = all(v for r in reports for v in r.values() if isinstance(v, bool))
    _emit({"max_degree": top, "pass": ok, "reports": reports})
    return 0 if ok else 1


def cmd_pairing(args: argparse.Namespace) -> int:
    _degree_cap(args.max_degree, PAIRING_CAP, 0)
    from .pairing import (
        adapt_complement,
        build_pairing,
        check_primitive_orthogonality,
        verify_hopf_pairing,
    )

    state = build_pairing(args.max_degree)
    top = args.max_degree
    alg = state.structure.algebra
    if args.mode == "build":
        _emit(
            {
                "max_degree": top,
                "basis": {str(n): [f.encode() for f in alg.basis(n)] for n in range(top + 1)},
                "gram": state.gram_json(),
            }
        )
        return 0
    if args.mode == "verify":
        report = verify_hopf_pairing(state)
        orthogonality = [
            check_primitive_orthogonality(state, n).to_json() for n in range(1, top + 1)
        ]
        restriction_ok = all(
            state.generator_block(n) == state.base_form[n] for n in range(1, top + 1)
        )
        ok = report.passed and all(o["pass"] for o in orthogonality) and restriction_ok
        _emit(
            {
                "max_degree": top,
                "pass": ok,
                "report": report.to_json(),
                "orthogonality": orthogonality,
                "base_form_restriction_ok": restriction_ok,
            }
        )
        return 0 if ok else 1
    adapted = [adapt_complement(state, n).to_json() for n in range(1, top + 1)]
    ok = all(a["block_form_ok"] for a in adapted)
    _emit({"max_degree": top, "pass": ok, "degrees": adapted})
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcalc",
        description="Exact calculus of free-and-cofree Hopf algebra series, "
        "decorated tree coproducts, and self-duality pairings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = ["r", "p", "s", "d"]
    p_convert = sub.add_parser("convert", help="convert between series kinds")
    p_convert.add_argument("--from", dest="from_kind", required=True, choices=kinds)
    p_convert.add_argument("--to", dest="to_kind", required=True, choices=kinds)
    p_convert.add_argument("--input", required=True, help="series JSON file, or - for stdin")
    p_convert.add_argument("--order", type=int, default=None, help="truncate input to this order")
    p_convert.set_defaults(handler=cmd_convert)

    p_gate = sub.add_parser("gate", help="run a realizability gate on an r-series")
    p_gate.add_argument("--which", required=True, choices=["free-cofree", "nck"])
    p_gate.add_argument("--input", required=True, help="series JSON file, or - for stdin")
    p_gate.set_defaults(handler=cmd_gate)

    p_tables = sub.add_parser("tables", help="print a bundled catalog table as CSV")
    p_tables.add_argument("--which", required=True, choices=["s", "d"])
    p_tables.add_argument("--max", type=int, default=TABLE_ORDER)
    p_tables.set_defaults(handler=cmd_tables)

    p_nck = sub.add_parser("nck", help="analyze the decorated tree Hopf algebra")
    p_nck.add_argument("mode", choices=["dims", "verify"])
    p_nck.add_argument("--max-degree", type=int, required=True)
    p_nck.add_argument("--decorations", default=None, help="decoration set JSON file")
    p_nck.set_defaults(handler=cmd_nck)

    p_pairing = sub.add_parser("pairing", help="build, verify, or adapt the self-duality pairing")
    p_pairing.add_argument("mode", choices=["build", "verify", "adapt"])
    p_pairing.add_argument("--max-degree", type=int, required=True)
    p_pairing.set_defaults(handler=cmd_pairing)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # input errors are ParseFailures by now, so stdout refused the output (a closed
        # pipe or a full disk); keep the interpreter's exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader closed it
            return 141  # what a shell reports for a process killed by SIGPIPE
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:  # 0: there is no cap, or none to restore
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
