"""The CLI operations of each workload, with their inputs made from a seed.

Each workload is a closed loop with one client: one CLI process at a time, the
next started when the last has exited.

* ``nck``: structure analysis of the tree algebra at the top degree it runs in
  seconds, with the default one-letter decorations and with a two-letter set
  of mixed degrees.  ``HopfStructure.decomposition`` and the elimination
  under it dominate; pairing and series code are absent.
* ``pairing``: the degree-6 pairing verification (above the default cap,
  through ``HOPF_CAP``) plus build and adapt at degree 5.  ``build_pairing``
  and the checks dominate, and the structure layer is used without brackets.
* ``series``: all twelve conversions between the four series kinds at order
  200, both realizability gates, two expected-failure commands and the two
  catalog tables.  No tree work; many short processes, so start-up and the
  catalog import are a visible share.

The tree and pairing commands are fixed, so the seed only orders them; the
series inputs are drawn from the seed.  Outputs of fixed commands are checked
against recorded sha256 digests (``golden.json``), seeded series outputs
against the integer recurrences in ``oracle``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

WORKLOADS = ("nck", "pairing", "series")
ORDER = 200
KINDS = "rpsd"
DECORATIONS = [{"label": "a", "degree": 1}, {"label": "b", "degree": 2}]
# R = 1 + h + 2h^2 + 4h^3: the nck gate must fail at degree 3 (witness -1)
GATE_FAILURE_R = {"kind": "R", "order": 3, "coeffs": ["1", "2", "4"]}
# a non-integer exponent in the product formula is a domain error
HALF_P = {"kind": "P", "order": 3, "coeffs": ["1", "1/2", "0"]}


@dataclass(frozen=True)
class Op:
    """One CLI command and how to judge its output.

    ``check`` is ``golden`` (exit code and stdout digest recorded in
    golden.json), ``convert`` or ``gate`` (recomputed by the oracle from
    ``data``).
    """

    name: str
    argv: tuple[str, ...]
    check: str = "golden"
    env: tuple[tuple[str, str], ...] = ()
    data: dict = field(default_factory=dict, compare=False, hash=False)


def _write(work: Path, name: str, payload) -> str:
    path = work / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def series_payload(kind: str, coeffs: list[int]) -> dict:
    return {"kind": kind.upper(), "order": len(coeffs), "coeffs": [str(c) for c in coeffs]}


def _small(rng: random.Random) -> list[int]:
    return [rng.randint(1, 3) for _ in range(ORDER)]


def _factorial(rng: random.Random) -> list[int]:
    return [rng.randint(1, 9) * math.factorial(n) for n in range(1, ORDER + 1)]


def series_inputs(seed: int) -> tuple[list[tuple[str, str, list[int]]], list[int]]:
    """The twelve (from, to, coefficients) conversions and the gate's R series.

    Every other pair in a fixed order gets factorially growing coefficients,
    so each seed carries the same mix of sizes.  The gate input is the R
    series of small positive decoration counts, so both gates scan all of it.
    """
    rng = random.Random(seed)
    pairs = [(a, b) for a in KINDS for b in KINDS if a != b]
    conversions = [
        (a, b, _factorial(rng) if i % 2 else _small(rng)) for i, (a, b) in enumerate(pairs)
    ]
    gate_r = oracle.r_from_d([0, *_small(rng)])[1:]
    return conversions, gate_r


def fixed_ops(work: Path) -> dict[str, list[Op]]:
    """Commands whose stdout is the same on every run, grouped by workload."""
    decorations = _write(work, "decorations-ab.json", DECORATIONS)
    gate_failure = _write(work, "gate-failure-r.json", GATE_FAILURE_R)
    half_p = _write(work, "half-p.json", HALF_P)
    return {
        "nck": [
            Op("nck.verify.d6", ("nck", "verify", "--max-degree", "6")),
            Op(
                "nck.verify.ab.d5",
                ("nck", "verify", "--max-degree", "5", "--decorations", decorations),
            ),
        ],
        "pairing": [
            Op(
                "pairing.verify.d6",
                ("pairing", "verify", "--max-degree", "6"),
                env=(("HOPF_CAP", "6"),),
            ),
            Op("pairing.build.d5", ("pairing", "build", "--max-degree", "5")),
            Op("pairing.adapt.d5", ("pairing", "adapt", "--max-degree", "5")),
        ],
        "series": [
            Op("gate.nck.failing", ("gate", "--which", "nck", "--input", gate_failure)),
            Op("convert.p-s.half", ("convert", "--from", "p", "--to", "s", "--input", half_p)),
            Op("tables.s", ("tables", "--which", "s")),
            Op("tables.d", ("tables", "--which", "d")),
        ],
    }


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The operations of one workload in the order the seed gives them."""
    ops = list(fixed_ops(work)[workload])
    if workload == "series":
        conversions, gate_r = series_inputs(seed)
        for a, b, coeffs in conversions:
            path = _write(work, f"convert-{a}{b}.json", series_payload(a, coeffs))
            ops.append(
                Op(
                    f"convert.{a}-{b}",
                    ("convert", "--from", a, "--to", b, "--input", path),
                    check="convert",
                    data={"from": a, "to": b, "coeffs": coeffs},
                )
            )
        path = _write(work, "gate-r.json", series_payload("r", gate_r))
        for which in ("nck", "free-cofree"):
            ops.append(
                Op(
                    f"gate.{which}",
                    ("gate", "--which", which, "--input", path),
                    check="gate",
                    data={"which": which, "coeffs": gate_r},
                )
            )
    random.Random(seed).shuffle(ops)
    return ops


def output_ok(op: Op, code: int, stdout: bytes, golden: dict) -> bool:
    """Judge an exit code and stdout without trusting the program."""
    if op.check == "convert":
        return code == 0 and oracle.convert_ok(
            op.data["from"], op.data["coeffs"], op.data["to"], stdout
        )
    if op.check == "gate":
        verdict = oracle.gate_verdict(op.data["which"], op.data["coeffs"])
        return code == (0 if verdict["pass"] else 1) and oracle.json_equals(stdout, verdict)
    want = golden.get(op.name)
    return want == {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
