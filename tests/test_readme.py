"""README's code examples run as documented."""

import ast
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_prints_what_it_documents():
    # The "Library use" block prints the rows of rho(S) on A1 through the
    # `entries` view, shown as comments under the loop, and ends with an
    # expression documented as True.
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    documented = re.findall(r"^# (\[.*\])$", code, re.M)
    assert len(documented) == 2
    tree = ast.parse(code)
    last = tree.body.pop()
    assert isinstance(last, ast.Expr)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tree, "README.md", "exec"), namespace)
    assert out.getvalue().splitlines() == documented
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace) is True
