import ast
import importlib
from pathlib import Path

import stablebetti

SRC = Path(stablebetti.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_library_has_no_assert():
    # python -O strips assert statements, so invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_library_has_no_unused_import():
    # __init__.py re-exports its imports, and a __future__ import is a
    # compiler directive
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_every_public_definition_has_a_caller():
    # the public API is what a program calls: a module-level def or class
    # without a leading underscore is named by the library, a script or the
    # bench; tests are not callers, nor are names inside strings
    callers = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    callers += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set()
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in used:
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert not found, found


MOVED_TO_TESTS = {
    "oracle": ("SimplicialComplexSmall", "upper_koszul", "reduced_homology_ranks"),
    "ideals": ("ideal_sum", "component_ideal", "restrict_to_subring"),
    "monomials": ("kth_biggest_with_max_index",),
    "betti": ("counts_from_betti",),
}


# helpers that no program called, deleted rather than moved
DELETED = {
    "constructions": ("Block", "lower_segment_blocks", "block_monomials"),
    "monomials": ("deglex_compare",),
    "betti": ("table_from_json", "extremal_from_stable"),
    "ideals": ("generator_counts", "matrix_to_counts"),
    "formats": ("format_profile",),
    "macaulay": ("is_o_sequence_from_zero",),
    "enumeration": ("_walk_setup",),
}


def test_reference_uses_only_public_library_names():
    # the test-side references stay independent of the library's internals
    path = Path(__file__).parent / "reference.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "stablebetti":
            names = node.module.split(".") + [alias.name for alias in node.names]
            found += [f"{node.lineno} {name}" for name in names if name.startswith("_")]
    assert not found, found


def test_test_only_references_left_the_library():
    for module, names in (*MOVED_TO_TESTS.items(), *DELETED.items()):
        for name in names:
            assert not hasattr(stablebetti, name), name
            assert not hasattr(importlib.import_module(f"stablebetti.{module}"), name), f"{module}.{name}"
    assert not hasattr(stablebetti.GeneratorMatrix, "is_zero")
