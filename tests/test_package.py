import ast
import json
import os
import subprocess
import sys

import pytest

import wreathspringer
from wreathspringer.convolution import Check, RelationReport
from wreathspringer.matrices import BlockMonomial
from wreathspringer.orbits import CliffordLabel, SpringerLabel
from wreathspringer.reptheory import Character
from wreathspringer.springer import HuLabel, SpringerReport
from wreathspringer.wreath import WreathGroup

SRC = os.path.dirname(os.path.dirname(wreathspringer.__file__))

# the public names of the package before they were resolved lazily
PUBLIC_NAMES = {
    "AlgebraVector", "BasisIndex", "BoundExceededError", "Character", "CheckFailed",
    "CliffordLabel", "HuLabel", "ProductResult", "Representation", "SpringerLabel",
    "WreathElement", "WreathGroup", "all_perms", "bruhat_leq_typeA", "bruhat_leq_wreath",
    "cell_statistics", "char_of", "check_dimension_property", "clifford_irrep",
    "clifford_label", "combinatorics", "component_group", "conjugate_partition", "convolution",
    "convolve", "convolve_basis", "coxeterB_leq", "embed_md", "enumerate_IC", "enumerate_IS",
    "extend_to_wreath", "fiber_dim", "gamma_of", "hasse_covers", "hook_dim", "hu_index",
    "induce", "inflate", "involution_T", "isotypic_character", "jordan_type", "matrices",
    "n_stat", "orbit_dim", "orbit_label", "orbits", "partitions_of", "perm_compose",
    "perm_inverse", "perm_length", "pi0_act", "psi", "psi_inv", "reptheory", "specht_rep",
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
    args = [*command.split(), "--m", "2", "--d", "2"]
    code = (
        "import contextlib, io\nfrom wreathspringer import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({args!r}) == 0"
    )
    loaded = loaded_after(code, prefix="")
    assert "wreathspringer.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_orbit_labels_load_no_representation_module():
    loaded = loaded_after("from wreathspringer.orbits import enumerate_IS; enumerate_IS(3, 3)")
    assert not loaded & {f"wreathspringer.{name}" for name in ("reptheory", "springer", "wreath")}


def test_no_module_imports_the_package_inside_a_function():
    # the package's import graph has no cycle to break; only the CLI and the
    # lazy `__init__` defer their imports
    package = os.path.dirname(wreathspringer.__file__)
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename in ("cli.py", "__init__.py"):
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
    with pytest.raises(AttributeError):
        wreathspringer.no_such_name


def test_records_are_immutable_and_equal_by_their_fields():
    label = CliffordLabel(2, (((2,), (1,)), ((1, 1), (1,))))
    check = Check("products", "pass", 32)
    records = [
        check, RelationReport(2, 2, (check,)), BlockMonomial((1, 0), (((1,),), ((-1,),))),
        label, SpringerLabel(((2,), (1, 1)), label), Character(WreathGroup(2, 2), (1, 1)),
        SpringerReport(2, 2, (), 0), HuLabel(((2,), (2,)), "+"), HuLabel(((2,), (1, 1))),
    ]
    for record in records:
        twin = type(record)(**record._asdict())
        assert twin == record and hash(twin) == hash(record) and twin is not record
        assert repr(record).startswith(f"{type(record).__name__}(")
        for name in [*record._fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


@pytest.mark.parametrize("make, message", [
    (lambda: CliffordLabel(2, (((1, 1), (1,)), ((2,), (1,)))), "sorted descending by key"),
    (lambda: CliffordLabel(2, (((2,), (1,)), ((2,), (1,)))), "duplicate keys"),
    (lambda: CliffordLabel(m=2, entries=(((3,), (1,)),)), r"key \(3,\) does not partition m=2"),
    (lambda: CliffordLabel(2, (((2,), ()),)), "empty values must be omitted"),
    (lambda: CliffordLabel(2, (((2,), (1, 2)),)), "is not a partition"),
    (lambda: SpringerLabel(((1, 1),), CliffordLabel(2, (((2,), (1,)),))), "not an irreducible"),
    (lambda: HuLabel(((2,), (2,))), "sign is carried exactly by the equal pairs"),
    (lambda: HuLabel(pair=((1, 1), (2,)), sign=None), "pair must be sorted"),
])
def test_records_validate_on_construction(make, message):
    with pytest.raises(ValueError, match=message):
        make()
