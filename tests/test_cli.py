from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hopfcalc
from hopfcalc import cli, trees
from hopfcalc.catalog import render_table
from hopfcalc.cli import main
from hopfcalc.trees import DecorationSet, ForestAlgebra
from test_catalog import golden_table

CATALAN = '{"kind": "R", "order": 8, "coeffs": ["1","2","5","14","42","132","429","1430"]}'
S110 = '{"kind": "S", "order": 3, "coeffs": ["1","1","0"]}'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convert_r_to_s_catalan(tmp_path, capsys):
    path = write(tmp_path, "r.json", CATALAN)
    code, out, _ = run_cli(capsys, "convert", "--from", "r", "--to", "s", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "kind": "S",
        "order": 8,
        "coeffs": ["1", "1", "1", "3", "7", "24", "72", "242"],
    }


def test_convert_s_to_r(tmp_path, capsys):
    path = write(tmp_path, "s.json", S110)
    code, out, _ = run_cli(capsys, "convert", "--from", "s", "--to", "r", "--input", path)
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "2", "4"]


def test_convert_identity_and_order(tmp_path, capsys):
    path = write(tmp_path, "r.json", CATALAN)
    code, out, _ = run_cli(
        capsys, "convert", "--from", "r", "--to", "r", "--input", path, "--order", "3"
    )
    assert code == 0
    assert json.loads(out) == {"kind": "R", "order": 3, "coeffs": ["1", "2", "5"]}
    code, _, err = run_cli(
        capsys, "convert", "--from", "r", "--to", "s", "--input", path, "--order", "9"
    )
    assert code == 3 and "--order" in err
    code, _, _ = run_cli(
        capsys, "convert", "--from", "r", "--to", "s", "--input", path, "--order", "0"
    )
    assert code == 3


def test_convert_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(CATALAN))
    code, out, _ = run_cli(capsys, "convert", "--from", "r", "--to", "d", "--input", "-")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1", "0", "0", "0", "0", "0", "0", "0"]


def test_convert_domain_error_non_integer_p(tmp_path, capsys):
    path = write(tmp_path, "p.json", '{"kind": "P", "order": 2, "coeffs": ["1", "1/2"]}')
    code, _, err = run_cli(capsys, "convert", "--from", "p", "--to", "s", "--input", path)
    assert code == 3 and "error" in err


def test_convert_parse_failures(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "not json")
    code, _, _ = run_cli(capsys, "convert", "--from", "r", "--to", "s", "--input", bad)
    assert code == 2
    missing_key = write(tmp_path, "mk.json", '{"kind": "R"}')
    code, _, _ = run_cli(capsys, "convert", "--from", "r", "--to", "s", "--input", missing_key)
    assert code == 2
    code, _, _ = run_cli(capsys, "convert", "--from", "r", "--to", "s", "--input", "/nope.json")
    assert code == 2
    s_file = write(tmp_path, "s.json", S110)
    code, _, err = run_cli(capsys, "convert", "--from", "r", "--to", "s", "--input", s_file)
    assert code == 2 and "kind" in err



@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--from", "r", "--to", "s", "--input", "{path}"],
        ["gate", "--which", "nck", "--input", "{path}"],
        ["nck", "dims", "--max-degree", "2", "--decorations", "{path}"],
        ["convert", "--from", "r", "--to", "s", "--input", "-"],
    ],
    ids=["convert", "gate", "nck-decorations", "stdin"],
)
def test_non_utf8_input_is_a_parse_failure(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.delenv("HOPF_CAP", raising=False)
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize(
    "payload",
    [
        '{"kind": "R", "order": 2, "coeffs": ["1", 0.1]}',
        '{"kind": "R", "order": true, "coeffs": ["1"]}',
        '{"kind": "R", "order": 2, "coeffs": ["1", "1e3"]}',
        '{"kind": "R", "order": 2, "coeffs": ["1", "0.5"]}',
    ],
    ids=["float-coefficient", "bool-order", "exponent-string", "decimal-string"],
)
def test_convert_rejects_inexact_series(tmp_path, capsys, payload):
    path = write(tmp_path, "r.json", payload)
    code, out, err = run_cli(capsys, "convert", "--from", "r", "--to", "r", "--input", path)
    assert (code, out) == (2, "") and "series" in err


def digits_past_the_cap(*values: int) -> list[str]:
    """Decimal strings of ints past Python's int-to-decimal cap, lifted here and restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


needs_digit_cap = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int-to-decimal cap"
)


@needs_digit_cap
@pytest.mark.parametrize("limit", [4300, 5000])
def test_results_past_the_digit_cap_print_in_full(tmp_path, capsys, limit):
    # R = 1 + 10^4000 x + x^2: p_2 = 1 - 10^8000, and the nck gate fails at 2 with 1 - 2·10^8000
    big = 10**4000
    p_2, witness = digits_past_the_cap(1 - big**2, 1 - 2 * big**2)
    payload = {"kind": "R", "order": 2, "coeffs": [str(big), "1"]}
    path = write(tmp_path, "r.json", json.dumps(payload))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)  # main restores the caller's cap, default or not
    try:
        code, out, _ = run_cli(capsys, "convert", "--from", "r", "--to", "p", "--input", path)
        assert (code, json.loads(out)["coeffs"]) == (0, [str(big), p_2])
        assert sys.get_int_max_str_digits() == limit
        code, out, _ = run_cli(capsys, "gate", "--which", "nck", "--input", path)
        verdict = {"pass": False, "first_failure": 2, "witness": witness}
        assert (code, json.loads(out)) == (1, verdict)
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(previous)


@needs_digit_cap
@pytest.mark.parametrize(
    "command", [["convert", "--from", "r", "--to", "p"], ["gate", "--which", "nck"]]
)
def test_input_past_the_digit_cap_is_malformed(tmp_path, capsys, command):
    # the cap on int-to-decimal conversion still bounds what is parsed: 4,301 digits exit 2
    limit = sys.get_int_max_str_digits()
    payload = {"kind": "R", "order": 1, "coeffs": ["1" + "0" * 4300]}
    path = write(tmp_path, "r.json", json.dumps(payload))
    code, out, err = run_cli(capsys, *command, "--input", path)
    assert (code, out) == (2, "") and "coefficient" in err
    assert sys.get_int_max_str_digits() == limit


def test_gate_nck_fails_on_counterexample(tmp_path, capsys):
    path = write(tmp_path, "r.json", '{"kind": "R", "order": 3, "coeffs": ["1","2","4"]}')
    code, out, _ = run_cli(capsys, "gate", "--which", "nck", "--input", path)
    assert code == 1
    assert json.loads(out) == {"pass": False, "first_failure": 3, "witness": "-1"}
    code, out, _ = run_cli(capsys, "gate", "--which", "free-cofree", "--input", path)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_gate_passes_on_catalan(tmp_path, capsys):
    path = write(tmp_path, "r.json", CATALAN)
    for which in ("nck", "free-cofree"):
        code, out, _ = run_cli(capsys, "gate", "--which", which, "--input", path)
        assert code == 0
        assert json.loads(out)["pass"] is True


def test_gate_domain_error_on_rational_series(tmp_path, capsys):
    path = write(tmp_path, "r.json", '{"kind": "R", "order": 2, "coeffs": ["1", "1/2"]}')
    code, _, _ = run_cli(capsys, "gate", "--which", "nck", "--input", path)
    assert code == 3


def test_tables_output_and_cap(capsys):
    for which in ("s", "d"):
        code, out, _ = run_cli(capsys, "tables", "--which", which)
        assert code == 0
        assert out == render_table(which) + "\n"
        assert out == golden_table(which)
    code, _, _ = run_cli(capsys, "tables", "--which", "s", "--max", "9")
    assert code == 4
    for bad in ("0", "-3"):
        code, _, err = run_cli(capsys, "tables", "--which", "s", "--max", bad)
        assert code == 3
        assert err.startswith("error: --max must be >= 1")
    code, out, _ = run_cli(capsys, "tables", "--which", "d", "--max", "2")
    assert code == 0
    assert out.split("\n")[0] == "name,n1,n2"


def test_nck_dims(capsys, monkeypatch):
    monkeypatch.delenv("HOPF_CAP", raising=False)
    code, out, _ = run_cli(capsys, "nck", "dims", "--max-degree", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"] == [1, 2, 5, 14, 42]
    assert payload["p"] == [1, 1, 2, 5, 14]
    assert payload["s"] == [1, 1, 1, 3, 7]
    assert payload["decorations"] == [{"label": "a", "degree": 1}]


@pytest.mark.parametrize(
    "entries",
    [None, {"a": 1, "b": 1}, {"a": 1, "b": 2}, {"a": 2, "b": 3, "c": 1}, {"a": 1, "b": 1, "c": 1}],
    ids=["default", "a1-b1", "a1-b2", "a2-b3-c1", "a1-b1-c1"],
)
def test_nck_dims_two_decorations(tmp_path, capsys, monkeypatch, entries):
    # dims counts the forests by R = 1 + D R^2; the enumerated basis is the oracle
    monkeypatch.delenv("HOPF_CAP", raising=False)
    argv = ["nck", "dims", "--max-degree", "5"]
    if entries is not None:
        text = json.dumps([{"label": k, "degree": d} for k, d in entries.items()])
        argv += ["--decorations", write(tmp_path, "dec.json", text)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    algebra = ForestAlgebra(DecorationSet(entries.items()) if entries else None)
    assert json.loads(out)["r"] == [algebra.dim(n) for n in range(1, 6)]
    bad = write(tmp_path, "bad.json", '[{"label": "a"}]')
    code, _, _ = run_cli(capsys, "nck", "dims", "--max-degree", "2", "--decorations", bad)
    assert code == 2


def test_nck_dims_counts_without_building(tmp_path, capsys, monkeypatch):
    # five letters would need 33,515,625 forests at degree 7
    def refuse(*_):
        raise AssertionError("nck dims built the forest basis")

    monkeypatch.delenv("HOPF_CAP", raising=False)
    monkeypatch.setattr(trees, "ForestAlgebra", refuse)
    path = write(tmp_path, "dec.json", json.dumps([{"label": k, "degree": 1} for k in "abcde"]))
    code, out, _ = run_cli(capsys, "nck", "dims", "--max-degree", "7", "--decorations", path)
    assert code == 0
    assert json.loads(out)["r"] == [5, 50, 625, 8750, 131250, 2062500, 33515625]


@pytest.mark.parametrize("degree", ["1.7", "true"])
def test_nck_rejects_non_integer_degree(tmp_path, capsys, monkeypatch, degree):
    monkeypatch.delenv("HOPF_CAP", raising=False)
    path = write(tmp_path, "dec.json", f'[{{"label": "a", "degree": {degree}}}]')
    code, out, err = run_cli(capsys, "nck", "dims", "--max-degree", "2", "--decorations", path)
    assert (code, out) == (2, "") and "degree" in err


# JSON non-strings, then strings that are not ASCII identifiers (the last is é)
@pytest.mark.parametrize("label", ["null", "true", '["a"]', '"a-b"', '"1a"', '"\\u00e9"'])
def test_nck_rejects_non_string_label(tmp_path, capsys, monkeypatch, label):
    monkeypatch.delenv("HOPF_CAP", raising=False)
    path = write(tmp_path, "dec.json", f'[{{"label": {label}, "degree": 1}}]')
    code, out, err = run_cli(capsys, "nck", "dims", "--max-degree", "2", "--decorations", path)
    assert (code, out) == (2, "") and "label" in err
    # the message states the rule, which `1a` and `é` break although both are word characters
    assert "(an ASCII letter or underscore, then ASCII letters, digits or underscores)" in err


def test_nck_verify(capsys, monkeypatch):
    monkeypatch.delenv("HOPF_CAP", raising=False)
    code, out, _ = run_cli(capsys, "nck", "verify", "--max-degree", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert [r["degree"] for r in payload["reports"]] == [1, 2, 3, 4]
    assert all(r["primitive_count_ok"] for r in payload["reports"])


def test_nck_verify_fails_on_any_false_flag(capsys, monkeypatch):
    from hopfcalc.structure import HopfStructure

    monkeypatch.delenv("HOPF_CAP", raising=False)
    report = HopfStructure.degree_report
    monkeypatch.setattr(
        HopfStructure, "degree_report", lambda self, n: {**report(self, n), "extra_ok": n != 2}
    )
    code, out, _ = run_cli(capsys, "nck", "verify", "--max-degree", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert [r["extra_ok"] for r in payload["reports"]] == [True, False, True]


def test_nck_caps(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "nck", "dims", "--max-degree", "8")
    assert code == 4
    code, _, _ = run_cli(capsys, "nck", "dims", "--max-degree", "0")
    assert code == 3
    monkeypatch.setenv("HOPF_CAP", "3")
    code, _, _ = run_cli(capsys, "nck", "dims", "--max-degree", "4")
    assert code == 4
    code, _, _ = run_cli(capsys, "nck", "dims", "--max-degree", "3")
    assert code == 0
    monkeypatch.setenv("HOPF_CAP", "many")
    code, _, err = run_cli(capsys, "nck", "dims", "--max-degree", "3")
    assert code == 3 and "HOPF_CAP" in err
    # ASCII digits only: int() would read the last four as 10, 10, 7 and 7
    for bad in ("-1", "0", "\u0661\u0660", "1_0", "+7", " 7"):
        monkeypatch.setenv("HOPF_CAP", bad)
        code, _, err = run_cli(capsys, "nck", "verify", "--max-degree", "2")
        assert code == 3 and "HOPF_CAP" in err and "positive" in err


def test_nck_verify_refuses_a_forest_count_over_the_budget(tmp_path, capsys, monkeypatch):
    # {a:1,b:1} has 8,448 forests at degree 6, and the budget at the cap 7 is Catalan(7) = 429
    def refuse(*_):
        raise AssertionError("nck verify built the forest basis")

    monkeypatch.delenv("HOPF_CAP", raising=False)
    monkeypatch.setattr(trees, "ForestAlgebra", refuse)
    path = write(tmp_path, "ab.json", '[{"label":"a","degree":1},{"label":"b","degree":1}]')
    code, out, err = run_cli(capsys, "nck", "verify", "--max-degree", "6", "--decorations", path)
    assert (code, out) == (4, "")
    assert "8448 forests" in err and "budget of 429" in err
    code, _, err = run_cli(capsys, "nck", "verify", "--max-degree", "5", "--decorations", path)
    assert code == 4 and "1344 forests" in err
    # HOPF_CAP raises the budget: Catalan(8) = 1430 admits the 1,344 forests at degree 5
    monkeypatch.setenv("HOPF_CAP", "8")
    with pytest.raises(AssertionError, match="built the forest basis"):
        main(["nck", "verify", "--max-degree", "5", "--decorations", path])
    # dims counts without building, so it has no forest budget
    code, out, _ = run_cli(capsys, "nck", "dims", "--max-degree", "6", "--decorations", path)
    assert code == 0 and json.loads(out)["r"][-1] == 8448


def test_nck_verify_budget_is_the_default_count_at_the_cap(tmp_path, capsys, monkeypatch):
    # at the cap 3 the budget is Catalan(3) = 5: the default set's 5 forests pass, and the
    # 8 of {a:1,b:1} at degree 2 do not; the cap 4 gives 14, which admits them
    path = write(tmp_path, "ab.json", '[{"label":"a","degree":1},{"label":"b","degree":1}]')
    monkeypatch.setenv("HOPF_CAP", "3")
    code, out, _ = run_cli(capsys, "nck", "verify", "--max-degree", "3")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, err = run_cli(capsys, "nck", "verify", "--max-degree", "2", "--decorations", path)
    assert (code, out) == (4, "") and "8 forests" in err and "budget of 5" in err
    monkeypatch.setenv("HOPF_CAP", "4")
    code, out, _ = run_cli(capsys, "nck", "verify", "--max-degree", "2", "--decorations", path)
    assert code == 0 and json.loads(out)["pass"] is True


def test_pairing_build(capsys):
    code, out, _ = run_cli(capsys, "pairing", "build", "--max-degree", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["gram"] == {"0": [["1"]], "1": [["1"]]}
    assert payload["basis"] == {"0": ["1"], "1": ["a[]"]}


def test_pairing_verify_and_adapt(capsys, monkeypatch):
    monkeypatch.delenv("HOPF_CAP", raising=False)
    code, out, _ = run_cli(capsys, "pairing", "verify", "--max-degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["base_form_restriction_ok"] is True
    assert [c["check"] for c in payload["report"]["checks"]] == [
        "unit-counit",
        "multiplicativity",
        "homogeneity",
        "symmetry",
        "nondegeneracy",
    ]
    assert all(o["pass"] for o in payload["orthogonality"])

    code, out, _ = run_cli(capsys, "pairing", "adapt", "--max-degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(a["block_form_ok"] for a in payload["degrees"])


def test_pairing_caps(capsys, monkeypatch):
    monkeypatch.delenv("HOPF_CAP", raising=False)
    code, _, _ = run_cli(capsys, "pairing", "build", "--max-degree", "7")
    assert code == 4
    code, _, _ = run_cli(capsys, "pairing", "build", "--max-degree", "-1")
    assert code == 3
    monkeypatch.setenv("HOPF_CAP", "2")
    code, _, _ = run_cli(capsys, "pairing", "build", "--max-degree", "2")
    assert code == 0


def test_pairing_build_degree_6_digest(capsys, monkeypatch):
    # recorded from the four-block solve; the tree-block solve must match it byte for byte
    monkeypatch.setenv("HOPF_CAP", "6")
    code, out, _ = run_cli(capsys, "pairing", "build", "--max-degree", "6")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b570971acb432a8461634f32ce816b3ab3ddef38bd77ec0f9916a044e80cb06e"


def test_pairing_verify_degree_6_digest(capsys, monkeypatch):
    # perfbench/golden.json's pairing.verify.d6, recorded from the exact determinants and kernels
    monkeypatch.setenv("HOPF_CAP", "6")
    code, out, _ = run_cli(capsys, "pairing", "verify", "--max-degree", "6")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "11f66bf5871501cac8d488bd024bf3d3cecfda26e38f91a766029f185ab1ab70"


@pytest.mark.parametrize(
    "command, want",
    [
        # perfbench/golden.json's pairing.build.d5 and pairing.adapt.d5
        ("build", "2b0dcacae471077b1eff0f5da302a206afa827d2a2748b09318f78cc4c6780b7"),
        ("adapt", "56a2ecb360a018e87144516e0c237c39de70a50648fc22f869057b1b0a180f28"),
    ],
)
def test_pairing_degree_5_digest(capsys, monkeypatch, command, want):
    monkeypatch.delenv("HOPF_CAP", raising=False)
    code, out, _ = run_cli(capsys, "pairing", command, "--max-degree", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_pairing_adapt_degree_6_digest(capsys, monkeypatch):
    # recorded from the block-by-block form check; the one-pass row check must match it
    monkeypatch.setenv("HOPF_CAP", "6")
    code, out, _ = run_cli(capsys, "pairing", "adapt", "--max-degree", "6")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "f1bbd1731b7f2dc4bfb1f445d7e0f733eb9166dde9db5a67c138243a45b67899"


def test_nck_verify_degree_6_digest(capsys, monkeypatch):
    # perfbench/golden.json's nck.verify.d6
    monkeypatch.delenv("HOPF_CAP", raising=False)
    code, out, _ = run_cli(capsys, "nck", "verify", "--max-degree", "6")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "e724451e1bd02743c847ee06aef7a01652662a17327baace8990fe3c6d52cd2f"


def test_nck_verify_two_letters_degree_5_digest(capsys, monkeypatch, tmp_path):
    # perfbench/golden.json's nck.verify.ab.d5
    monkeypatch.delenv("HOPF_CAP", raising=False)
    path = write(tmp_path, "ab.json", '[{"label":"a","degree":1},{"label":"b","degree":2}]')
    code, out, _ = run_cli(capsys, "nck", "verify", "--max-degree", "5", "--decorations", path)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "5e57c8a38c8d8f72f9fc8cc66ad93645e10c8b78bd43223fb445cfadc26a84dc"


def test_pairing_falls_back_to_exact_checks(capsys, monkeypatch):
    # modulo 2 the ranks of the degree 2-5 certificates and of some central blocks of the
    # block form come up short on a valid pairing
    from hopfcalc import linalg, pairing

    monkeypatch.delenv("HOPF_CAP", raising=False)
    dets, kernels, ranks = [], [], []  # sizes of the matrices the exact path reduced
    exact_det, exact_kernel = linalg.RationalMatrix.det, pairing.kernel_basis
    exact_rank = linalg.RationalMatrix.rank

    def det(m):
        dets.append(m.rows)
        return exact_det(m)

    def kernel_basis(m):
        kernels.append(m.cols)
        return exact_kernel(m)

    def rank(m):
        ranks.append(m.rows)
        return exact_rank(m)

    monkeypatch.setattr(linalg.RationalMatrix, "det", det)
    monkeypatch.setattr(pairing, "kernel_basis", kernel_basis)
    monkeypatch.setattr(linalg.RationalMatrix, "rank", rank)
    verify = ("pairing", "verify", "--max-degree", "5")
    adapt = ("pairing", "adapt", "--max-degree", "5")
    code, certified, _ = run_cli(capsys, *verify)
    assert code == 0
    assert 42 not in dets and kernels == []
    code, adapted, _ = run_cli(capsys, *adapt)
    assert code == 0
    assert ranks == []
    monkeypatch.setattr(linalg, "PRIME", 2)
    code, out, _ = run_cli(capsys, *verify)
    assert code == 0
    assert out == certified
    assert {2, 5, 14, 42} <= set(dets)
    assert kernels == [2, 5, 14, 42]
    code, out, _ = run_cli(capsys, *adapt)
    assert code == 0
    assert out == adapted
    # the degree-5 complement and generator blocks among them
    assert {7, 21} <= set(ranks)


def test_exact_fallback_accepts_a_form_singular_modulo_the_prime():
    # [[PRIME]] has rank 0 modulo PRIME: only the exact det and rank can accept it
    from hopfcalc.linalg import PRIME, RationalMatrix
    from hopfcalc.pairing import adapt_complement, build_pairing

    form = RationalMatrix(1, 1, (PRIME,))
    state = build_pairing(1, base_form={1: form})
    adapted = adapt_complement(state, 1)
    # degree 1 is one primitive generator, so the block Gram is its central block
    assert adapted.block_gram == form
    assert adapted.block_pattern_ok()


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["convert", "--from", "q", "--to", "s", "--input", "x"])
    assert info.value.code == 2


def child_env() -> dict:
    """The caller's environment without HOPF_CAP, with the imported package first on the path."""
    env = {k: v for k, v in os.environ.items() if k != "HOPF_CAP"}
    src = str(Path(hopfcalc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def console_script(tmp_path, *argv, flags=()):
    """Run the ``[project.scripts] hopfcalc`` target the way its installed wrapper does.

    The target is read from the repo's pyproject.toml and called in a fresh
    interpreter, started with the interpreter options ``flags``, whose path
    starts with the package this module imported, so the test needs no
    install and no particular cwd or ``HOPF_CAP``.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hopfcalc"]
    module, _, attr = target.partition(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run(
        [sys.executable, *flags, "-c", launcher, *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--from", "r", "--to", "s", "--input", "deep.json"],
        ["gate", "--which", "nck", "--input", "deep.json"],
        ["nck", "dims", "--max-degree", "2", "--decorations", "deep.json"],
    ],
    ids=["convert", "gate", "nck-decorations"],
)
def test_deeply_nested_json_is_malformed_input(tmp_path, argv):
    write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    proc = console_script(tmp_path, *argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_as_for_sigpipe(tmp_path):
    # 323 KB of output, more than a pipe buffer holds, so the writer meets the closed pipe
    with subprocess.Popen(
        [sys.executable, "-m", "hopfcalc", "pairing", "build", "--max-degree", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=tmp_path,
        env=child_env(),
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "max_d'
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 141


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [["tables", "--which", "s"], ["nck", "dims", "--max-degree", "5"]],
    ids=["tables", "nck-dims"],
)
def test_full_disk_on_stdout_exits_as_resource_exhausted(tmp_path, argv):
    # every write to /dev/full fails with ENOSPC, the exit-time flush included
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "hopfcalc", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_out_of_memory_exits_as_resource_exhausted(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_tables", exhausted)
    assert main(["tables", "--which", "s"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_console_script_end_to_end(tmp_path):
    proc = console_script(tmp_path, "tables", "--which", "d")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == golden_table("d")
    proc = console_script(tmp_path, "tables", "--which", "s", "--max", "9")
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:")


def test_pairing_verify_under_optimize(tmp_path):
    argv = ("pairing", "verify", "--max-degree", "5")
    plain, optimized = (console_script(tmp_path, *argv, flags=flags) for flags in ((), ("-O",)))
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout
    script = (
        "import json\n"
        "from hopfcalc.linalg import RationalMatrix\n"
        "from hopfcalc.pairing import build_pairing, verify_hopf_pairing\n"
        "state = build_pairing(3)\n"
        "state.gram[3] = RationalMatrix(5, 5, (0,) * 25)\n"
        "print(json.dumps(verify_hopf_pairing(state).checks[-1].to_json()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, cwd=tmp_path, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "check": "nondegeneracy",
        "pass": False,
        "counterexample": {"degree": 3, "det": "0"},
    }


TREE_LAYERS = {"hopfcalc.linalg", "hopfcalc.pairing", "hopfcalc.structure", "hopfcalc.trees"}
# the standard library's record generator and what it imports: tens of ms per process
RECORD_MACHINERY = {"dataclasses", "inspect"}


def imported(stderr: str) -> set[str]:
    """Names of the modules a ``python -X importtime`` child reports on stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--from", "r", "--to", "s", "--input", "r.json"],
        ["gate", "--which", "nck", "--input", "r.json"],
        ["tables", "--which", "s"],
    ],
    ids=["convert", "gate", "tables"],
)
def test_series_commands_leave_the_tree_layers_unloaded(tmp_path, argv):
    write(tmp_path, "r.json", CATALAN)
    proc = console_script(tmp_path, *argv, flags=("-X", "importtime"))
    assert proc.returncode == 0, proc.stderr
    loaded = imported(proc.stderr)
    assert {"hopfcalc.catalog", "hopfcalc.series"} <= loaded
    assert not loaded & TREE_LAYERS
    assert not loaded & RECORD_MACHINERY


def test_tree_commands_load_their_layers(tmp_path):
    # dims counts by the series alone; it needs the tree layer only for DecorationSet
    proc = console_script(tmp_path, "nck", "dims", "--max-degree", "2", flags=("-X", "importtime"))
    assert proc.returncode == 0, proc.stderr
    assert imported(proc.stderr) & TREE_LAYERS == {"hopfcalc.trees"}
    assert not imported(proc.stderr) & RECORD_MACHINERY
    proc = console_script(
        tmp_path, "nck", "verify", "--max-degree", "2", flags=("-X", "importtime")
    )
    assert proc.returncode == 0, proc.stderr
    assert TREE_LAYERS - imported(proc.stderr) == {"hopfcalc.pairing"}
    assert not imported(proc.stderr) & RECORD_MACHINERY
    proc = console_script(
        tmp_path, "pairing", "build", "--max-degree", "2", flags=("-X", "importtime")
    )
    assert proc.returncode == 0, proc.stderr
    assert TREE_LAYERS <= imported(proc.stderr)
    assert not imported(proc.stderr) & RECORD_MACHINERY


def test_package_import_loads_catalog_and_series_only(tmp_path):
    # the benchmark's catalog.import_s reads the hopfcalc.catalog line of this import
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hopfcalc"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = imported(proc.stderr)
    assert {"hopfcalc.catalog", "hopfcalc.series"} <= loaded
    assert not loaded & TREE_LAYERS
    assert not loaded & RECORD_MACHINERY


def test_python_dash_m(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcalc", "tables", "--which", "d"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_table("d")


@pytest.mark.skipif(shutil.which("hopfcalc") is None, reason="hopfcalc is not installed")
def test_installed_console_script(tmp_path):
    proc = subprocess.run(
        [shutil.which("hopfcalc"), "tables", "--which", "d"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_table("d")
