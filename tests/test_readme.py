import ast
import pathlib
import re

from cdspec.verifier import MATCH

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_does_what_its_comments_say():
    """Runs the block statement by statement, keeping the value of each bare
    expression, and checks each against its comment."""
    ns, shown = {}, []
    for stmt in ast.parse(_library_example()).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), ns)
    small, both_ways, per_c, predictions, big = shown
    assert ns["spec"].omega == {0: 8, 1: 9, 2: 8}
    assert small.eq1_ok and small.eq2_ok
    assert both_ways is True and ns["n4_fourier"](ns["case"]) == 1009
    assert len(per_c) == 25 and per_c[4] == 1009
    assert predictions and all(p.positive() == ns["spec"].positive() for p in predictions)
    assert big.eq1_ok and big.eq2_ok
    assert ns["report"].verdict == MATCH
