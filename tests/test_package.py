import ast
import json
import os
import subprocess
import sys

import pytest

import wreathspringer

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


def loaded_after(code: str) -> set[str]:
    """The package modules a fresh interpreter holds after running `code`."""
    report = "import sys, json; print(json.dumps(sorted(m for m in sys.modules if m.startswith('wreathspringer'))))"
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
