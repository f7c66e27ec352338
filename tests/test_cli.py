import hashlib
import json
from math import prod

from wreathspringer import reptheory
from wreathspringer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- hasse

def test_hasse_json_22(capsys):
    code, out, _ = run(capsys, "hasse", "--m", "2", "--d", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 2 and data["d"] == 2
    assert len(data["nodes"]) == 8
    assert len(data["covers"]) == 8


def test_hasse_isolated_nodes(capsys):
    code, out, _ = run(capsys, "hasse", "--m", "1", "--d", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 6
    assert data["covers"] == []


def test_hasse_type_a(capsys):
    code, out, _ = run(capsys, "hasse", "--m", "3", "--d", "1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["covers"]) == 8


def test_hasse_dot_deterministic(capsys):
    code, out1, _ = run(capsys, "hasse", "--m", "2", "--d", "2")
    assert code == 0
    code, out2, _ = run(capsys, "hasse", "--m", "2", "--d", "2")
    assert out1 == out2
    assert out1.startswith("digraph")


# -- order

def test_order_incompatible_pair(capsys):
    code, out, _ = run(capsys, "order", "--m", "2", "--d", "2", "--x", "s1^1", "--y", "t1")
    assert code == 0
    assert out.strip().endswith("result: false")


def test_order_reflexive(capsys):
    code, out, _ = run(capsys, "order", "--m", "2", "--d", "2", "--x", "t1", "--y", "t1")
    assert code == 0
    assert out.strip().endswith("result: true")


def test_order_factorwise(capsys):
    code, out, _ = run(
        capsys, "order", "--m", "2", "--d", "2", "--x", "s1^1", "--y", "s1^1 s1^2"
    )
    assert code == 0
    assert "factor 1" in out and "factor 2" in out
    assert out.strip().endswith("result: true")


def test_order_parse_failure(capsys):
    code, _, err = run(capsys, "order", "--m", "2", "--d", "2", "--x", "zz", "--y", "e")
    assert code == 2
    assert "error" in err


# -- verify

def test_verify_all_22(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--d", "2", "--scope", "all")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    names = {c["name"] for c in data["checks"]}
    assert {"quadratic", "wreath", "braid", "springer_correspondence", "dimension_property"} <= names


def test_verify_algebra_24(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--d", "4", "--scope", "algebra")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["braid"]["status"] == "pass"
    assert checks["commuting"]["status"] == "pass"


def test_verify_bound_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--m", "9", "--d", "9")
    assert code == 2
    assert "bound" in err


def test_math_failure_exits_1(capsys, monkeypatch):
    # tensor slots that never move break the slot action of the extension
    monkeypatch.setattr(
        reptheory, "slot_basis_permutation", lambda dims, u: tuple(range(prod(dims)))
    )
    reptheory.clifford_irrep.cache_clear()
    code, out, err = run(capsys, "tables", "--kind", "chars", "--m", "3", "--d", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not a homomorphism" in err


def test_verify_springer_24_output_is_unchanged(capsys):
    # stdout sha256 recorded with dense matrices, where this case took about
    # a minute; block-monomial products must reproduce it byte for byte
    code, out, _ = run(capsys, "verify", "--scope", "springer", "--m", "2", "--d", "4")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "a0bde72fe0644f3cfe4954ed921a9bc22a9fc47f370b1b7cbf4fdf218b46da36"
    )


def test_tables_chars_25_output_is_unchanged(capsys):
    # 36 classes: a slip in the class order or a representative shows here
    code, out, _ = run(capsys, "tables", "--kind", "chars", "--m", "2", "--d", "5")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e5ccd9919441558030c7600717641d4934ea7fbe57abc67b46f4e6f2fae09c05"
    )


def test_usage_error(capsys):
    assert run(capsys, "verify", "--m", "2")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


# -- tables

def test_tables_typeB(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "typeB", "--d", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 5


def test_tables_irreps_dims(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "irreps", "--m", "2", "--d", "2", "--format", "json")
    assert code == 0
    dims = sorted(row["dim"] for row in json.loads(out)["irreps"])
    assert dims == [1, 1, 1, 1, 2]


def test_tables_orbits(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "orbits", "--m", "2", "--d", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["orbits"]) == 3
    assert data["orbits"][0]["gamma"] == {"2": 2}


def test_tables_chars_exact_strings(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "chars", "--m", "2", "--d", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 5
    for row in data["rows"]:
        assert all(isinstance(v, str) for v in row["values"])


def test_tables_chars_csv(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "chars", "--m", "2", "--d", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label,")
    assert len(lines) == 6


def test_tables_markdown(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "typeD", "--d", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("|")
    assert len(lines) == 2 + 13


def test_tables_deterministic(capsys):
    args = ("tables", "--kind", "springer", "--m", "3", "--d", "2", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
