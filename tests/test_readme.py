"""The Python blocks under the README's ``## Library`` heading run as shown.

Each block runs line by line in one namespace.  An expression line with a
trailing comment must equal the value the comment shows, and an ``assert``
line must hold, so trimming the API cannot break the documented surface
silently.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_blocks_show_their_values(tmp_cache):
    namespace = {"Fraction": Fraction}
    checked = []
    for block in _library_blocks():
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if not code.strip():
                continue
            (node,) = ast.parse(code).body
            if isinstance(node, ast.Expr):
                assert eval(code, namespace) == eval(comment, namespace), line
                checked.append(comment.strip())
            elif isinstance(node, ast.Assert):
                test = ast.unparse(node.test)
                assert eval(test, namespace) is True, line
                checked.append(test)
            else:
                exec(code, namespace)
    assert checked == ["1320", "17", "Fraction(1, 162)", "recover(proj, mu) == omega"]
