import ast
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import wreathspringer
from wreathspringer import cli
from wreathspringer.matrices import BlockMonomial
from wreathspringer.orbits import CliffordLabel
from wreathspringer.wreath import Check, WreathGroup, wreath_identity

SRC = os.path.dirname(os.path.dirname(wreathspringer.__file__))

README = os.path.join(os.path.dirname(SRC), "README.md")
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")

# the public names of the package
PUBLIC_NAMES = {
    "AlgebraVector", "BasisIndex", "BoundExceededError", "CheckFailed",
    "CliffordLabel", "ProductResult", "Representation",
    "WreathElement", "WreathGroup", "all_perms", "bruhat_leq_typeA", "bruhat_leq_wreath",
    "cell_statistics", "char_of", "check_dimension_property", "clifford_irrep",
    "clifford_label", "combinatorics", "conjugate_partition", "convolution",
    "convolve", "convolve_basis", "coxeterB_leq", "embed_md", "enumerate_IC", "enumerate_IS",
    "fiber_dim", "gamma_of", "hasse_covers", "hook_dim",
    "induce", "involution_T", "isotypic_character", "jordan_type", "matrices",
    "n_stat", "orbit_dim", "orbit_label", "orbits", "partitions_of", "perm_compose",
    "perm_inverse", "perm_length", "pi0_act", "reptheory", "specht_rep",
    "springer", "springer_module", "typeB_table", "typeD_table", "verify_relations",
    "verify_springer", "wreath", "y_bar", "y_bar_sum",
}


def loaded_after(code: str, prefix: str = "wreathspringer") -> set[str]:
    """The modules named `prefix`... that a fresh interpreter holds after
    running `code`."""
    report = f"import sys, json; print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def _main_loads(args: list[str]) -> set[str]:
    """Every module a fresh interpreter holds after `cli.main(args)`."""
    code = (
        "import contextlib, io\nfrom wreathspringer import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({args!r}) == 0"
    )
    return loaded_after(code, prefix="")


def test_importing_the_package_loads_no_module():
    assert loaded_after("import wreathspringer") == {"wreathspringer"}


def test_hasse_loads_no_algebra_module():
    loaded = loaded_after('from wreathspringer import cli; cli.main(["hasse", "--m", "2", "--d", "2"])')
    assert "wreathspringer.wreath" in loaded
    assert not loaded & {
        f"wreathspringer.{name}" for name in ("convolution", "matrices", "orbits", "reptheory", "springer")
    }


@pytest.mark.parametrize("command", [
    "verify --scope all", "tables --kind chars", "tables --kind springer", "hasse", "order --x t1 --y t1",
])
def test_commands_load_neither_dataclasses_nor_inspect(command):
    # the immutable records are named tuples, so no command pays for
    # `dataclasses`, which imports `inspect`, `ast`, `dis` and `tokenize`
    loaded = _main_loads([*command.split(), "--m", "2", "--d", "2"])
    assert "wreathspringer.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_algebra_check_loads_no_matrix_module():
    # the class algebra's coefficients are exact ints, and Fractions where a
    # coefficient is not integral; the matrix module's `Scalar` is only an
    # annotation there
    loaded = loaded_after('from wreathspringer import cli; cli.main(["verify", "--scope", "algebra", "--m", "2", "--d", "2"])')
    assert loaded == {
        f"wreathspringer{name}" for name in ("", ".cli", ".combinatorics", ".convolution", ".wreath")
    }


def test_springer_check_loads_no_convolution_module():
    # `Check` lives in `wreath`, so the springer check compiles no class algebra
    loaded = loaded_after('from wreathspringer import cli; cli.main(["verify", "--scope", "springer", "--m", "2", "--d", "2"])')
    assert "wreathspringer.springer" in loaded
    assert "wreathspringer.convolution" not in loaded


def test_algebra_check_loads_no_fractions_module():
    # every coefficient of the check is an int, so `fractions` (which imports
    # `decimal`) is never needed
    loaded = _main_loads(["verify", "--scope", "algebra", "--m", "2", "--d", "3"])
    assert "wreathspringer.convolution" in loaded
    assert not loaded & {"fractions", "decimal"}


def test_character_table_loads_no_matrix_module():
    # every value comes from the wreath Murnaghan-Nakayama rule in `orbits`
    loaded = loaded_after('from wreathspringer import cli; cli.main(["tables", "--kind", "chars", "--m", "2", "--d", "2"])')
    assert "wreathspringer.orbits" in loaded
    assert not loaded & {
        f"wreathspringer.{name}" for name in ("convolution", "matrices", "reptheory", "springer")
    }


def test_hu_table_loads_no_representation_module():
    # the d = 2 labels are the orbit side's, printed from `enumerate_IS(m, 2)`
    loaded = loaded_after('from wreathspringer import cli; cli.main(["tables", "--kind", "hu", "--m", "3"])')
    assert "wreathspringer.orbits" in loaded
    assert not loaded & {f"wreathspringer.{name}" for name in ("reptheory", "springer")}


def test_orbit_labels_load_no_representation_module():
    loaded = loaded_after("from wreathspringer.orbits import enumerate_IS; enumerate_IS(3, 3)")
    assert not loaded & {f"wreathspringer.{name}" for name in ("reptheory", "springer", "wreath")}


def test_no_module_imports_the_package_inside_a_function():
    # the package's import graph has no cycle to break; only the lazy
    # `__init__` defers its imports, and the CLI reaches a module through it
    package = os.path.dirname(wreathspringer.__file__)
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        nested_imports = [
            node
            for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for node in ast.walk(top)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        for node in nested_imports:
            if isinstance(node, ast.ImportFrom):
                local = node.level > 0 or (node.module or "").startswith("wreathspringer")
            else:
                local = any(alias.name.startswith("wreathspringer") for alias in node.names)
            assert not local, f"{filename}:{node.lineno} imports the package below module level"


def test_no_module_imports_a_private_name_of_another():
    # a name that another module needs is part of its owner's public surface
    package = os.path.dirname(wreathspringer.__file__)
    private = []
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            private.extend(
                f"{filename[:-3]} <- {alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names
                if alias.name.startswith("_")
            )
    assert not private, f"private names imported across modules: {private}"


def names_referenced(node) -> set[str]:
    """Every name that `node` reads: Name ids, Attribute attrs and import aliases."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update((sub.name, sub.asname or sub.name))
    return names


def test_every_module_level_function_has_a_caller_in_the_package():
    # a helper that only the tests call belongs in tests/oracles.py; the
    # exported names and clear_caches are reached from outside
    package = os.path.dirname(wreathspringer.__file__)
    tops = []
    for filename in sorted(os.listdir(package)):
        if filename.endswith(".py"):
            with open(os.path.join(package, filename), encoding="utf-8") as fh:
                tops.extend((filename, top) for top in ast.parse(fh.read()).body)
    referenced = [(top, names_referenced(top)) for _, top in tops]
    exempt = {*wreathspringer._EXPORTS, "clear_caches"}
    unreached = [
        f"{filename[:-3]}.{top.name}"
        for filename, top in tops
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (top.name.startswith("__") and top.name.endswith("__"))
        and top.name not in exempt
        and not any(top.name in names for other, names in referenced if other is not top)
    ]
    assert not unreached, f"nothing in the package calls {unreached}"


def test_exports_resolve_lazily_to_their_modules():
    names = set(wreathspringer.__all__)
    assert names == PUBLIC_NAMES
    assert set(dir(wreathspringer)) - names == {
        "clear_caches", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
        "__name__", "__package__", "__path__", "__spec__", "__version__",
    }
    star: dict = {}
    exec("from wreathspringer import *", star)
    assert set(star) - {"__builtins__"} == names
    for name in names:
        value = getattr(wreathspringer, name)
        module = getattr(value, "__module__", None) or value.__name__
        assert module.startswith("wreathspringer.")
    for gone in ["no_such_name", "Character"]:  # a character is its tuple of values
        with pytest.raises(AttributeError):
            getattr(wreathspringer, gone)


def test_records_are_immutable_and_equal_by_their_fields():
    label = CliffordLabel(2, (((2,), (1,)), ((1, 1), (1,))))
    check = Check("products", "pass", 32)
    springer_check = Check("springer_correspondence", "pass", 1, counts=(("orbitSide", 1),), rows=((label, True),))
    records = [
        check, springer_check, BlockMonomial((1, 0), (((1,),), ((-1,),))), label, wreath_identity(2, 2),
    ]
    for record in records:
        twin = type(record)(**record._asdict())
        assert twin == record and hash(twin) == hash(record) and twin is not record
        assert repr(record).startswith(f"{type(record).__name__}(")
        for name in [*record._fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_check_prints_detail_and_counts_only_when_set():
    assert Check("braid", "pass", 0).to_dict() == {"name": "braid", "status": "pass", "instances": 0}
    skipped = Check("products", "skipped", 0, "too many", counts=(("a", 1), ("b", 2)), rows=(("x", True),))
    assert list(skipped.to_dict().items()) == [
        ("name", "products"), ("status", "skipped"), ("instances", 0),
        ("detail", "too many"), ("counts", {"a": 1, "b": 2}),
    ]
    # the one pass rule: only a "fail" status fails
    assert [Check("c", status, 1).failed for status in ("pass", "skipped", "fail")] == [False, False, True]


@pytest.mark.parametrize("make, message", [
    (lambda: CliffordLabel(2, (((1, 1), (1,)), ((2,), (1,)))), "sorted descending by key"),
    (lambda: CliffordLabel(2, (((2,), (1,)), ((2,), (1,)))), "duplicate keys"),
    (lambda: CliffordLabel(m=2, entries=(((3,), (1,)),)), r"key \(3,\) does not partition m=2"),
    (lambda: CliffordLabel(2, (((2,), ()),)), "empty values must be omitted"),
    (lambda: CliffordLabel(2, (((2,), (1, 2)),)), "is not a partition"),
])
def test_records_validate_on_construction(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def readme_blocks(language: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```$", fh.read(), flags=re.M | re.S)


def test_readme_python_examples_run():
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, README, "exec"), {})


def test_readme_cli_examples_exit_0(capsys):
    lines = [
        line for block in readme_blocks("sh") for line in block.splitlines()
        if line.startswith("wreathspringer ")
    ]
    assert len(lines) >= 7
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out, line


def test_console_script_prints_what_main_prints(capsys, monkeypatch):
    # read with a regex: tomllib is new in Python 3.11
    with open(PYPROJECT, encoding="utf-8") as fh:
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", fh.read(), flags=re.M | re.S)
    target = re.search(r'^wreathspringer = "([\w.]+):(\w+)"$', section.group(1), flags=re.M)
    module, function = target.groups()
    args = ["verify", "--m", "2", "--d", "2", "--scope", "dimensions"]
    monkeypatch.setattr(sys, "argv", ["wreathspringer", *args])
    with pytest.raises(SystemExit) as exit_info:
        getattr(importlib.import_module(module), function)()
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert cli.main(args) == 0
    assert out and out == capsys.readouterr().out


FAILING_GIVEN_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="hypothesis imports libcst, whose warning this checks, only where it is installed",
)
def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # a failing @given test makes hypothesis import libcst, which warns; the
    # configured filters must not turn that warning into an internal error
    (tmp_path / "test_two.py").write_text(FAILING_GIVEN_THEN_PASSING, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", PYPROJECT, "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    ).stdout
    assert "INTERNALERROR" not in out
    assert out.splitlines()[-1].startswith("1 failed, 1 passed"), out
