import ast
from pathlib import Path

import stablebetti

SRC = Path(stablebetti.__file__).parent


def test_library_has_no_assert():
    # python -O strips assert statements, so invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
