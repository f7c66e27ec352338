import functools
import gc
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from math import prod

import pytest
from hypothesis import given, strategies as st

import wreathspringer
from wreathspringer import clear_caches, cli, convolution, orbits, reptheory, springer
from wreathspringer.cli import _json_text, main


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


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_hasse_refuses_before_the_first_byte(capsys, monkeypatch, fmt):
    # the diagram is streamed, so the bound must refuse before any write
    monkeypatch.setenv("WREATHSPRINGER_MAX_ELEMENTS", "1000")
    code, out, err = run(capsys, "hasse", "--m", "4", "--d", "4", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "exceeds the enumeration bound" in err


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


def test_order_compares_each_factor_once(capsys, monkeypatch):
    from wreathspringer import cli, wreath

    calls = []
    compare = wreath.bruhat_leq_typeA

    def counting(u, w):
        calls.append((u, w))
        return compare(u, w)

    monkeypatch.setattr(cli, "bruhat_leq_typeA", counting)
    monkeypatch.setattr(wreath, "bruhat_leq_typeA", counting)
    code, out, _ = run(capsys, *shlex.split("order --m 2 --d 3 --x 's1^1 t1' --y 's1^1 s1^2 t1'"))
    assert code == 0
    assert out.endswith("result: true\n")
    assert len(calls) == 3


def test_order_result_is_the_wreath_order(capsys):
    from wreathspringer.wreath import WreathGroup, bruhat_leq_wreath

    group = WreathGroup(2, 2)
    for x in group.elements:
        for y in group.elements:
            code, out, _ = run(capsys, "order", "--m", "2", "--d", "2", "--x", group.word(x), "--y", group.word(y))
            assert code == 0
            assert out.endswith(f"result: {str(bruhat_leq_wreath(x, y)).lower()}\n"), (x, y)


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


BOUND_REFUSALS = [
    ("verify --scope springer --m 2 --d 9", "group of order", "185794560"),
    ("tables --kind chars --m 9 --d 1", "group of order", "362880"),
    # orders of thousands of digits: Python refuses to print one past 4,300
    ("tables --kind chars --m 2 --d 1500", "group of order", "over 10^30"),
    ("hasse --m 1500 --d 1500", "group of order", "over 10^30"),
    # dimensions lists the partitions of m under Sigma_m's bound (30! is
    # over 10^30), then refuses its p(m)^d profiles: 22^4 at (8,4)
    ("verify --scope dimensions --m 30 --d 30", "group of order", "over 10^30"),
    ("verify --scope dimensions --m 8 --d 4", "profile count", "234256"),
]


@pytest.mark.parametrize("command, what, stated", BOUND_REFUSALS, ids=[f"{c}-{s}" for c, _, s in BOUND_REFUSALS])
def test_bound_refusal_states_the_order(capsys, monkeypatch, command, what, stated):
    monkeypatch.delenv("WREATHSPRINGER_MAX_ELEMENTS", raising=False)
    code, out, err = run(capsys, *shlex.split(command))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {what} {stated} exceeds the enumeration bound 50000 "
        "(override with WREATHSPRINGER_MAX_ELEMENTS)\n"
    )


def test_commands_call_the_functions_the_tracer_rebinds(capsys, monkeypatch):
    # perfbench/tracer.py rebinds a library function in every loaded module
    # of the package; a command that kept the function objects it was built
    # with would run outside the tracer's spans
    called = []
    for module, name in [
        (springer, "verify_springer"), (convolution, "verify_relations"),
        (reptheory, "clifford_irrep"), (orbits, "enumerate_IC"),
    ]:
        original = getattr(module, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if loaded is not None and loaded.__name__.startswith("wreathspringer"):
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        monkeypatch.setattr(loaded, attr, recording)
    assert run(capsys, "verify", "--scope", "all", "--m", "2", "--d", "2")[0] == 0
    assert {"verify_relations", "verify_springer"} <= set(called)
    called.clear()
    assert run(capsys, "tables", "--kind", "irreps", "--m", "2", "--d", "2")[0] == 0
    assert set(called) == {"clifford_irrep", "enumerate_IC"}


def test_verify_names_an_unreadable_bound(capsys, monkeypatch):
    # a bound below 1 is refused as `abc` is, not read as a bound no group meets
    for raw, message in [
        ("abc", "must be an integer, got 'abc'"),
        ("0", "must be a positive integer, got '0'"),
        ("-5", "must be a positive integer, got '-5'"),
    ]:
        monkeypatch.setenv("WREATHSPRINGER_MAX_ELEMENTS", raw)
        code, out, err = run(capsys, "verify", "--scope", "algebra", "--m", "2", "--d", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: WREATHSPRINGER_MAX_ELEMENTS {message}\n"


def test_math_failure_exits_1(capsys, monkeypatch):
    # tensor slots that never move break the slot action of the extension
    monkeypatch.setattr(
        reptheory, "slot_basis_permutation", lambda dims, u: tuple(range(prod(dims)))
    )
    clear_caches()
    try:
        code, out, err = run(capsys, "tables", "--kind", "irreps", "--m", "3", "--d", "2")
    finally:
        clear_caches()  # nothing built under the broken rule outlives the test
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not a homomorphism" in err


def test_closed_stdout_exits_141_without_a_traceback():
    # a 7.6 MB diagram piped into a reader that takes 10 bytes and closes
    # the pipe, as `head -c 10` does
    src = os.path.dirname(os.path.dirname(wreathspringer.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "wreathspringer", "hasse", "--m", "3", "--d", "4"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b"digraph ha"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def package_caches():
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper)
        and obj.__module__.startswith("wreathspringer.")
    ]


def test_clear_caches_empties_every_cache_of_the_package(capsys):
    # found through the garbage collector, not through the module namespaces
    # that clear_caches walks, so a cache it cannot reach fails this test
    for command in (
        "verify --scope all --m 2 --d 2",
        "tables --kind chars --m 2 --d 2",
        "tables --kind springer --m 2 --d 2",
        "order --m 2 --d 2 --x t1 --y t1",
    ):
        assert run(capsys, *shlex.split(command))[0] == 0
    caches = package_caches()
    filled = {c.__qualname__ for c in caches if c.cache_info().currsize}
    assert {"specht_rep", "symmetric_character", "bruhat_downset"} <= filled
    clear_caches()
    assert [c.__qualname__ for c in caches if c.cache_info().currsize] == []


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


NONPOSITIVE_SIZES = [
    "tables --kind orbits --m 0 --d 2",
    "tables --kind orbits --m 2 --d 0",
    "tables --kind hu --m 0",
    "tables --kind hu --m -1",
    "tables --kind typeB --d 0",
    "tables --kind typeB --d -1",
    "tables --kind typeD --d 0",
    "tables --kind irreps --m 0 --d 2",
    "tables --kind springer --m 2 --d 0",
    "tables --kind chars --m 0 --d 2",
    "tables --kind cells --m 2 --d 0",
    "hasse --m 0 --d 2",
    "verify --m 2 --d 0",
]


@pytest.mark.parametrize("command", NONPOSITIVE_SIZES)
def test_nonpositive_sizes_are_refused_alike(capsys, command):
    code, out, err = run(capsys, *shlex.split(command))
    assert code == 2
    assert out == ""
    assert err == "error: m and d must be positive\n"


@pytest.mark.parametrize(
    "command",
    ["tables --kind typeB --m 0 --d 2", "tables --kind typeD --m 0 --d 2", "tables --kind hu --m 2 --d 0"],
)
def test_tables_check_only_the_sizes_they_read(capsys, command):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert out.startswith("| ")


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


def csv_cell(value) -> str:
    """The md/csv cell of a JSON row value."""
    if isinstance(value, list):
        return ",".join(value)
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


@pytest.mark.parametrize("kind", ["irreps", "springer", "typeB", "typeD", "orbits", "chars", "cells", "hu"])
def test_tables_csv_prints_the_json_rows(capsys, kind):
    # typeB and typeD read d = 3, hu reads m = 3
    outputs = {}
    for fmt in ("csv", "json"):
        code, outputs[fmt], _ = run(capsys, "tables", "--kind", kind, "--m", "3", "--d", "3", "--format", fmt)
        assert code == 0
    header, *rows = csv.reader(io.StringIO(outputs["csv"]))
    payload = json.loads(outputs["json"])
    if kind == "chars":
        assert header == ["label", *payload["classes"]]
        assert rows == [[row["label"], *row["values"]] for row in payload["rows"]]
    elif kind == "cells":
        assert header == ["dimension", "cells"]
        assert rows == [[k, str(v)] for k, v in payload["dimensionCounts"].items()]
    elif kind == "hu":
        assert header == ["label"]
        assert rows == [[label] for label in payload["labels"]]
    else:
        # the row kinds end their payload with their list of row objects
        *_, records = payload.values()
        assert header == list(records[0])
        assert rows == [[csv_cell(v) for v in record.values()] for record in records]


def test_tables_deterministic(capsys):
    args = ("tables", "--kind", "springer", "--m", "3", "--d", "2", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


JSON_VALUES = st.recursive(
    st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_json_text_is_the_text_of_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_a_float():
    # every scalar the commands print is exact, so a float is a bug
    with pytest.raises(TypeError, match="cannot write float as JSON"):
        _json_text(0.5)


# -- pinned bytes

# stdout sha256 of every table kind and format, the diagrams, two comparisons
# and a full verify: a refactor must keep every printed byte
PINNED_OUTPUTS = [
    ('tables --kind irreps --m 2 --d 3 --format md',
     '4d77c85de0d6719a612f6d2fcee0ff97bf1741b926275e7e3ccad97fad731f0f'),
    ('tables --kind irreps --m 2 --d 3 --format csv',
     'b0d7f420262f129cbf1c47e94c1af54568c53d68b326660bfbbe3cb8ffc768f8'),
    ('tables --kind irreps --m 2 --d 3 --format json',
     '91be95349efbf2c37cb6e392760163c56fdd07297c4156b8da65bfe964f3341d'),
    ('tables --kind springer --m 2 --d 3 --format md',
     '2690cc0754bf67d95094198425bcdcd634ba85262e2ca16ca82b6842dc231a1c'),
    ('tables --kind springer --m 2 --d 3 --format csv',
     'bf188e21c0e5a7d71bf5850674df014517346df56c4018481f1edb36f70c8579'),
    ('tables --kind springer --m 2 --d 3 --format json',
     '588b02685d2f80d5b8341863ae1b0e07ecbe84efdeb24655565b84a059fb3bc1'),
    ('tables --kind typeB --m 2 --d 3 --format md',
     'bb929d5fdf41c428fb8b075a739a446066770cfec52722e9ea8d25bf3d9523b8'),
    ('tables --kind typeB --m 2 --d 3 --format csv',
     'bb7825da6e8693a8a7812f820754e74148eee9441179e378b0d224d77025a81f'),
    ('tables --kind typeB --m 2 --d 3 --format json',
     'bedbaf73fffc78ba4c01ed4b6cd91c19752f51781cb1fea0cde603bc4cac0354'),
    ('tables --kind typeD --m 2 --d 3 --format md',
     '8d7e8470d78a0ebbc42ba0cdac0a2578177f05106899139bd46d3d7013d65797'),
    ('tables --kind typeD --m 2 --d 3 --format csv',
     '6f500b7eeebbf61d4be9eec3cf51e24193a307bb39eb939ab1711d0fe4335bdd'),
    ('tables --kind typeD --m 2 --d 3 --format json',
     '85fe394bc10023031edefeb1756c386ad33b6213b03b4b75ca3a72c21f8d4d3b'),
    ('tables --kind orbits --m 2 --d 3 --format md',
     '3b97faa2985e979509d854df1b201b80fec8094dfc3a54162318d0a36867df0b'),
    ('tables --kind orbits --m 2 --d 3 --format csv',
     'e026e3847911a5ddde204c1b6fc7b8319ea8cf194770a843086faff22f136063'),
    ('tables --kind orbits --m 2 --d 3 --format json',
     '322b7588e7a5432bbe66c70edf7efe24b3842549fa865aee5f769f811e1e52b5'),
    ('tables --kind chars --m 2 --d 3 --format md',
     'd59d124af47ef678ce434cb3db5a3ef4b25ad9a944fba2b99fc268cc0a2c075e'),
    ('tables --kind chars --m 2 --d 3 --format csv',
     '9c4889678c61302991e7a7f914cac77a5eea9d233fff743d7a523eb5969c1146'),
    ('tables --kind chars --m 2 --d 3 --format json',
     '1c62271ffb65af0b29fd1c752fd79e63db7247b557818bf692694058ab1f1463'),
    ('tables --kind chars --m 2 --d 5 --format md',
     'e5ccd9919441558030c7600717641d4934ea7fbe57abc67b46f4e6f2fae09c05'),
    ('tables --kind chars --m 2 --d 5 --format csv',
     '4adf78a00b26c819b68f77f48698eed4749395347991fb333ef116c4c1bdce19'),
    ('tables --kind chars --m 2 --d 5 --format json',
     'fadecea7d7cd40afc4b1d72ae40d63653e7e9e1e5c0d9f484d486e1fc4e7354f'),
    ('tables --kind cells --m 2 --d 3 --format md',
     '83d22bf81ff2ee3f9974487503a3405eaea7fee8e75e5f2590044556ce048ccd'),
    ('tables --kind cells --m 2 --d 3 --format csv',
     '0a4377a1348a1a99c5b4a44eb1d46132d1e1266288be11255f1e3fec9c1f5527'),
    ('tables --kind cells --m 2 --d 3 --format json',
     '2c2b85ec6e31d3fa09e7e13dde72caae7768e0074f37831c3eff380f33e2eceb'),
    ('tables --kind hu --m 2 --d 3 --format md',
     '1dd0c0c6396527494691d370acf87051a0df7d22c4706554c2d81d2481d3676d'),
    ('tables --kind hu --m 2 --d 3 --format csv',
     '6ce1469178bb98a47ac24f0b1860d65ae5d11e03684b57db61999690ce71e769'),
    ('tables --kind hu --m 2 --d 3 --format json',
     'ff83c4fc6bf8cbd21653828c34aba684336099b23f11bed4ceeb2657fd361401'),
    ('tables --kind cells --m 3 --d 2 --format md',
     'aff1315d3ff46dd42fad5e4a10444861fccf5609c70cccbf781c2c666de06acf'),
    ('tables --kind cells --m 3 --d 2 --format csv',
     'd27796342aa3de0dbdd924f327399e1d60f237bb9ceb5c7aa76cdb06fe674937'),
    ('tables --kind cells --m 3 --d 2 --format json',
     'af0b43240b175216f82b2700c2edac1902ef23415ea8383c6c01538689deeb81'),
    ('tables --kind hu --m 3 --format md',
     '747f50ebdec6734481b5e848b8159db5c4f218b8f0b450f2f3f43635cbf251cf'),
    ('tables --kind hu --m 3 --format csv',
     '56f8cd018a4d2e826d383b2eff32c24dd2e9e167834124fe2cec2cdae275d906'),
    ('tables --kind hu --m 3 --format json',
     'fc7f3b6675613bd8fa34a769ddd66c4c76b9be1e1ef284c25ea3fd15d2b01a4c'),
    # the signed split of the equal pairs: typeD at d = 4 has the equal
    # pairs ([2],[2]) and ([1,1],[1,1]), and hu at m = 5 has seven
    ('tables --kind typeD --d 4 --format md',
     'fcf75e598a41c7d5b023c37b7dfe7124962c12365cdc8cfc39f789f420a387c4'),
    ('tables --kind typeD --d 4 --format csv',
     '6412bf309e8096f0dfaec6d229689ad1477d1a2d1a322b262510fff271cfe583'),
    ('tables --kind typeD --d 4 --format json',
     'e6890f89621051f9d3e8add656b8a45d952fd3ad02e432085476f1765606c5fe'),
    ('tables --kind hu --m 5 --format md',
     'ba2c80d10f1c96103578852e332e88fa1839f1c3f201556409e09108011cf736'),
    ('tables --kind hu --m 5 --format csv',
     '09f55e8aaa4b8ee7473105cd9641d4b67d9dc497d091b95e3299832b4fbda3c0'),
    ('tables --kind hu --m 5 --format json',
     '28cf17949009ebe443a8c6a49ad6b285b0b32eba5c4bfa191c69ca62db3e1cf9'),
    ('hasse --m 2 --d 3 --format dot',
     '4eddc81e09171d18c63e5fa4f086eda5c90e24be3b39d8a59a7f4242a2f3ef95'),
    ('hasse --m 2 --d 3 --format json',
     '376a1ee25b57ed3baa207d162767863ae3d5a18a12c4ebcf1955837fcddb5a9a'),
    ('hasse --m 3 --d 2 --format dot',
     'f431596a05bcac383e99aedc518fcba30623052710376cafc8364f52ac9cc94d'),
    ('hasse --m 3 --d 2 --format json',
     '13b0a9150be3741677a4944cd2179bbe5b35ed6596d6eb66fa0aa5b5e9abd225'),
    ("order --m 2 --d 3 --x 's1^1 t1 t2' --y 's1^1 s1^3 t1 t2'",
     '39926e83c372921f0d136b0ec8390f448fdcc64f423722d38291e65c8b3d6234'),
    ("order --m 3 --d 2 --x 's1^1 s2^1' --y t1",
     '8c23110b2699206042d08845ea4b98f30363b3b522837877d2797f96d2ccf104'),
    ('verify --scope all --m 2 --d 2',
     'cb56d8d07ae1899c83e06806593242c38be8414108c73a7db10d1df71c05de34'),
    # groups of order 1152 and 1296, where every irreducible and fiber
    # bimodule passes the relation check of the reduced presentation
    ('verify --scope springer --m 4 --d 2',
     'a9a4427c0d7b4cf9d7522cf29c1d1af1f720f28259aa19fe8edea1351995a9a8'),
    ('verify --scope springer --m 3 --d 3',
     '66f08ee8836a2e45884e32846308f25cdb62bf0b37de748fcb8bbab4518ec03a'),
    ('tables --kind chars --m 3 --d 3',
     '96fb88b6f63b5377953e4cf7bcc2d2c9270e33444f7ab2ad0a9c6e558fee0f56'),
    # the json serializer over non-integral seminormal entries at m = 3, and
    # 120 cosets of 1x1 blocks per fiber bimodule at m = 2
    ('tables --kind chars --m 3 --d 3 --format json',
     '3ba27eb6abdaddca0039bb39a850dc64f06ad92e014f4d506e8d3d03976e5dcb'),
    ('verify --scope springer --m 2 --d 5',
     '42e7259c20ab83767bf6ac3c8d1507774d7dd8c07bc9c869aa322effc905ea30'),
    # the class-algebra relation checks, recorded while the products check
    # formed each side as one product of two closure-class sums; at (2,4)
    # the products check is skipped above its limit
    ('verify --scope algebra --m 2 --d 2',
     'd9224916b5f873a1bd3d1f8f96b537bdef3f2a231298253f7fcfbd9bc8713017'),
    ('verify --scope algebra --m 2 --d 3',
     '22d9e1db8bb61d5ea689404a825fd541dabb39ea9aef5328866cf15789c5a8a8'),
    ('verify --scope algebra --m 3 --d 2',
     'ab46999eeb03eb9c2e45c6cd0f741324c3ca51836f915bc255f2a1ab434f1156'),
    ('verify --scope algebra --m 2 --d 4',
     '5b5e5f9adf49aa0198fab24a95aba5abcd2ed1bc2f3e98f3d18aff6929f8cc56'),
    # the row kinds at m = 3, where a label has three keys, and verify with
    # every scope at m = 3 (at (2,2) it is pinned above)
    ('tables --kind springer --m 3 --d 3 --format md',
     '4c79fcf293f6faa78d2049b09c8b7727bc0ed59b3430e106a925f2fb92ffb6a1'),
    ('tables --kind springer --m 3 --d 3 --format csv',
     'c858f450473d76804301fbcce024acbb1d0318c2f9a925fab263b073e4076197'),
    ('tables --kind springer --m 3 --d 3 --format json',
     'aab6a5d1c3d019e489cc169f832afd78cc63cc347c898cccae3df8811d4e7576'),
    ('tables --kind irreps --m 3 --d 3 --format md',
     '3564e959df501d77615a2d549a68d50a765598026140999272578925913156e7'),
    ('tables --kind irreps --m 3 --d 3 --format csv',
     '05f856fcf3e1ae84e83cb73af16e78b94da6cb4cb419f7af728d6c86440177f2'),
    ('tables --kind irreps --m 3 --d 3 --format json',
     '8cc2786232cb0a0d5e737e873be152a5d9d80f4c6c9aa4635cfcd40fd2888857'),
    ('tables --kind orbits --m 3 --d 3 --format md',
     '0e0665dc6f1bfa10b398e1438590912cb214f182762ebf0ba66c7cc1a493e43c'),
    ('tables --kind orbits --m 3 --d 3 --format csv',
     '46773500a032746f6cf0b5ae0a466dbba0fcaa71d557e89f35d3cacdec6bd351'),
    ('tables --kind orbits --m 3 --d 3 --format json',
     'f3ebfd060ea36688d1fceaf365f3402c070101c273ae39984a9affb3469249cd'),
    ('verify --scope all --m 3 --d 2',
     '892e959912e2b491a688ee0626582b41c8b5028b2c9390aa51603e1057934989'),
    # every kind of check at (2,4): the products check is skipped there
    ('verify --scope all --m 2 --d 4',
     '1d38713845af32a4d9829863643b9b921bd643932411cab3fed74ffa4f0645d6'),
    # the 2,401 profiles at (5,4), under the profile count's bound and not
    # the group's; the digest is what 1a20aa1 printed with the bound raised
    ('verify --scope dimensions --m 5 --d 4',
     'cc4a2d87f87a0d218a0626f71ddd4afa86fbd3513c4dab0cb1f1216d275fa084'),
]


def test_every_scope_and_kind_of_the_tables_prints_the_pinned_bytes(capsys):
    # every command that SCOPES and KINDS name, at (2,2) in every format; the
    # digest of their joined stdout was taken before the two tables existed
    commands = [f"verify --scope {scope} --m 2 --d 2" for scope in [*cli.SCOPES, "all"]]
    commands += [f"tables --kind {kind} --m 2 --d 2 --format {f}" for kind in cli.KINDS for f in ("md", "csv", "json")]
    assert len(commands) == 28
    digest = hashlib.sha256()
    for command in commands:
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == "ee220dd66d49632f52d7d3cb23559bfc2b234888f491c1c0641a3e94f44a5d3e"


@pytest.mark.parametrize("command, digest", PINNED_OUTPUTS, ids=[c for c, _ in PINNED_OUTPUTS])
def test_output_bytes_are_pinned(capsys, command, digest):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


PINNED_CHARS = [(c, h) for c, h in PINNED_OUTPUTS if c.startswith(("tables --kind chars --m 2 --d 3", "tables --kind chars --m 2 --d 5"))]


@pytest.mark.parametrize("command, digest", PINNED_CHARS, ids=[c for c, _ in PINNED_CHARS])
def test_chars_build_no_representation(capsys, monkeypatch, command, digest):
    # every value is read off the wreath Murnaghan-Nakayama rule
    def refuse(*args, **kwargs):
        raise AssertionError("tables --kind chars built a representation")

    monkeypatch.setattr(reptheory, "clifford_irrep", refuse)
    monkeypatch.setattr(reptheory.Representation, "__init__", refuse)
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cells_refuse_above_the_bound(capsys):
    # 2^10 * 10! elements: the generating function needs none of them, but the
    # command keeps the enumeration bound's refusal
    code, out, err = run(capsys, "tables", "--kind", "cells", "--m", "2", "--d", "10")
    assert code == 2
    assert out == ""
    assert "exceeds the enumeration bound" in err


def test_chars_refuse_a_specht_module_above_the_bound(capsys):
    # Sigma_9 has 9! = 362,880 elements: the command builds no Specht
    # module, and its explicit `check_bound()` refuses the group
    code, out, err = run(capsys, "tables", "--kind", "chars", "--m", "9", "--d", "1")
    assert code == 2
    assert out == ""
    assert "exceeds the enumeration bound" in err
