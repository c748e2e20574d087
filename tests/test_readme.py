import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_as_commented(capsys):
    # every statement of the README's library tour runs, and every
    # expression commented "# True" evaluates to True
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr) and "# True" in lines[stmt.end_lineno - 1]:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value is True, lines[stmt.lineno - 1]
            checked += 1
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == 6
    capsys.readouterr()
