"""The traced run: in-process timings of each layer's public functions.

Spans (name, start, end, parent) are kept in memory and written when the run
ends.  Each call is timed cold, with only its prerequisites and lower degrees
warmed first, on the inputs the workload commands use:

* trees, structure, linalg: the default one-letter algebra at degree 6 (the
  metrics) and the two-letter ``{a:1, b:2}`` algebra at degree 5 (spans and
  the self-check only);
* pairing: the degree-6 pairing, adapted through degree 5;
* series: the chain of conversions behind the twelve seeded ``convert``
  commands and both gates;
* catalog: its import in a fresh interpreter and the rendering of both tables;
* cli: ``main(argv)`` in-process for every command of the workload.

The same layer set is measured on every workload, so every per-layer metric
exists on each; only ``cli.inproc_s`` and the series inputs depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

TOP = 6
AB_TOP = 5
ADAPT_TOP = 5
IMPORT_PROBES = 5
# exact sizes at this version; a traced run whose counts differ is rejected
EXPECTED_COUNTS = {
    "a.d6": {"trees.forests": 132, "reduced_shape": [165, 132], "structure.reduced_nnz": 1976},
    "ab.d5": {"trees.forests": 113, "reduced_shape": [116, 113], "structure.reduced_nnz": 798},
}
# metric name -> span name; tree and structure spans of the two-letter
# algebra are left out of the metrics
SPAN_METRICS = {
    "trees.basis_s": "trees.basis",
    "trees.coproduct_s": "trees.coproduct",
    "structure.reduced_matrix_s": "structure.reduced_matrix",
    "structure.primitives_s": "structure.primitives",
    "structure.decomposables_s": "structure.decomposables",
    "structure.decomposition_s": "structure.decomposition",
    "structure.bracket_space_s": "structure.bracket_space",
    "linalg.kernel_s": "linalg.kernel",
    "linalg.det_s": "linalg.det",
    "linalg.inverse_s": "linalg.inverse",
    "linalg.matmul_s": "linalg.matmul",
    "pairing.build_s": "pairing.build",
    "pairing.verify_s": "pairing.verify",
    "pairing.orthogonality_s": "pairing.orthogonality",
    "pairing.restriction_s": "pairing.restriction",
    "pairing.adapt_s": "pairing.adapt",
    "series.p_from_r_s": "series.p_from_r",
    "series.r_from_p_s": "series.r_from_p",
    "series.s_from_p_s": "series.s_from_p",
    "series.p_from_s_s": "series.p_from_s",
    "series.d_from_r_s": "series.d_from_r",
    "series.r_from_d_s": "series.r_from_d",
    "series.gate_s": "series.gate",
    "series.json_s": "series.json",
    "catalog.render_s": "catalog.render",
    "cli.inproc_s": "cli.main",
}
COUNT_METRICS = (
    "trees.forests",
    "trees.coproduct_terms",
    "structure.reduced_nnz",
    "structure.primitive_dim",
    "structure.core_dim",
)
# conversions route through R, exactly as hopfcalc.series.convert does
TO_R = {"r": [], "p": ["r_from_p"], "s": ["p_from_s", "r_from_p"], "d": ["r_from_d"]}
FROM_R = {"r": [], "p": ["p_from_r"], "s": ["p_from_r", "s_from_p"], "d": ["d_from_r"]}


class Tracer:
    """In-memory spans; a span's self time excludes the spans nested in it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def report(self) -> list[dict]:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = []
        for s in self.spans:
            took = s["end"] - s["start"]
            out.append({**s, "s": took, "self_s": took - child_time[s["id"]]})
        return out

    def total(self, name: str) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s.get("input", "a.d6") == "a.d6"
        )


def _bits(values) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


def _structure(tracer: Tracer, hc, label: str, decorations, top: int):
    """Trees, structure and kernel spans of one algebra at its top degree."""
    alg = hc.ForestAlgebra(decorations)
    span = lambda name: tracer.span(name, input=label, degree=top)  # noqa: E731
    for n in range(top):
        alg.basis(n)
        alg.trees_of_degree(n)
    with span("trees.basis"):
        basis = alg.basis(top)
    for n in range(top):
        for forest in alg.basis(n):
            alg.coproduct_terms(forest)
    with span("trees.coproduct"):
        terms = sum(len(alg.coproduct_terms(f)) for f in basis)
    st = hc.HopfStructure(alg)
    for n in range(1, top):
        st.reduced_matrix(n)
        st.primitives(n)
    with span("structure.reduced_matrix"):
        reduced = st.reduced_matrix(top)
    with span("linalg.kernel"):
        hc.kernel_basis(reduced)
    with span("structure.primitives"):
        primitives = st.primitives(top)
    with span("structure.decomposables"):
        st.decomposables(top)
    for n in range(1, top):
        st.decomposition(n)
    with span("structure.decomposition"):
        split = st.decomposition(top)
    for n in range(2, top):
        st.bracket_space(n)
    with span("structure.bracket_space"):
        st.bracket_space(top)
    counts = {
        "trees.forests": len(basis),
        "trees.coproduct_terms": terms,
        "reduced_shape": [reduced.rows, reduced.cols],
        "structure.reduced_nnz": sum(1 for x in reduced.entries if x),
        "structure.primitive_dim": primitives.dim,
        "structure.core_dim": split.core.dim,
    }
    return st, counts


def _pairing(tracer: Tracer, hc, st) -> tuple[bool, int]:
    """Pairing spans on a warmed structure; returns (all checks passed, Gram bits)."""
    with tracer.span("pairing.build", degree=TOP):
        state = hc.build_pairing(TOP, structure=st)
    with tracer.span("pairing.verify", degree=TOP):
        ok = hc.verify_hopf_pairing(state).passed
    with tracer.span("pairing.orthogonality", degree=TOP):
        ok &= all(hc.check_primitive_orthogonality(state, n).passed for n in range(1, TOP + 1))
    with tracer.span("pairing.restriction", degree=TOP):
        ok &= all(state.generator_block(n) == state.base_form[n] for n in range(1, TOP + 1))
    with tracer.span("pairing.adapt", degree=ADAPT_TOP):
        adapted = [hc.adapt_complement(state, n).to_json() for n in range(1, ADAPT_TOP + 1)]
    ok &= all(a["block_form_ok"] for a in adapted)
    gram = state.gram[TOP]
    with tracer.span("linalg.det", degree=TOP):
        ok &= gram.det() != 0
    with tracer.span("linalg.inverse", degree=TOP):
        gram.inverse()
    with tracer.span("linalg.matmul", degree=TOP):
        gram @ gram
    return ok, _bits(gram.entries)


def _series(tracer: Tracer, hc, seed: int, checks: list[bool]) -> int:
    """Series spans over the seeded conversions; returns the largest bit length."""
    conversions, gate_r = workloads.series_inputs(seed)
    bits = 0
    for a, b, coeffs in conversions:
        text = json.dumps(workloads.series_payload(a, coeffs))
        with tracer.span("series.json", pair=f"{a}-{b}"):
            x = hc.series_from_json(text)
        for step in TO_R[a] + FROM_R[b]:
            with tracer.span("series." + step, pair=f"{a}-{b}"):
                x = getattr(hc, step)(x)
        with tracer.span("series.json", pair=f"{a}-{b}"):
            out = hc.series_to_json(x)
        bits = max(bits, _bits(x.coeffs))
        checks.append(oracle.convert_ok(a, coeffs, b, out.encode()))
    r = hc.SeriesProfile.make("R", gate_r)
    for which, gate in (("nck", hc.gate_nck), ("free-cofree", hc.gate_free_cofree)):
        with tracer.span("series.gate", which=which):
            verdict = gate(r).to_json()
        checks.append(verdict == oracle.gate_verdict(which, gate_r))
    return bits


def catalog_import_s(root: Path, env: dict) -> float:
    """Median self time of ``hopfcalc.catalog`` in a fresh interpreter's import."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hopfcalc"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "hopfcalc.catalog":
                samples.append(int(fields[0].rsplit(":", 1)[1]) / 1e6)
    return statistics.median(samples)


def _cli(tracer: Tracer, main, ops, expected_outputs: dict, checks: list[bool]) -> None:
    """``main(argv)`` per command, stdout captured and compared."""
    for op in ops:
        saved = {k: os.environ.get(k) for k, _ in op.env}
        os.environ.update(op.env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with tracer.span("cli.main", op=op.name), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(list(op.argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        checks.append((code, out.getvalue().encode()) == expected_outputs[op.name])


def measure(root: Path, env: dict, seed: int, ops, expected_outputs: dict) -> dict:
    """Run every layer's spans and the in-process commands.

    ``expected_outputs`` maps each command to the (exit code, stdout) an
    untraced, checked run of it produced.  Returns the per-layer metrics, the
    number of checks made and failed, the self-check counts and the spans.
    """
    sys.path.insert(0, str(root / "src"))
    import hopfcalc as hc
    from hopfcalc.cli import main

    tracer = Tracer()
    checks: list[bool] = []
    counts = {}
    structures = {}
    # each phase span's self time is the warming and checking around its calls
    for label, decorations, top in (
        ("a.d6", hc.DecorationSet.default(), TOP),
        ("ab.d5", hc.DecorationSet.from_json(json.dumps(workloads.DECORATIONS)), AB_TOP),
    ):
        with tracer.span("phase.structure", input=label):
            structures[label], counts[label] = _structure(tracer, hc, label, decorations, top)
        want = EXPECTED_COUNTS[label]
        checks.append({k: counts[label][k] for k in want} == want)
    with tracer.span("phase.pairing"):
        pairing_ok, gram_bits = _pairing(tracer, hc, structures["a.d6"])
    checks.append(pairing_ok)
    with tracer.span("phase.series"):
        series_bits = _series(tracer, hc, seed, checks)
    with tracer.span("catalog.render"):
        hc.render_table("s")
        hc.render_table("d")
    with tracer.span("phase.cli"):
        _cli(tracer, main, ops, expected_outputs, checks)

    metrics = {metric: (tracer.total(name), "s") for metric, name in SPAN_METRICS.items()}
    metrics["catalog.import_s"] = (catalog_import_s(root, env), "s")
    metrics.update({metric: (counts["a.d6"][metric], "count") for metric in COUNT_METRICS})
    metrics["linalg.gram_max_bits"] = (gram_bits, "bits")
    metrics["series.max_bits"] = (series_bits, "bits")
    return {
        "metrics": metrics,
        "attempted": len(checks),
        "failed": checks.count(False),
        "counts": counts,
        "spans": tracer.report(),
    }
