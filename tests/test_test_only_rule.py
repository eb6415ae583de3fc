"""The test-only rule: src/oasweep holds only what the program runs.

Every top-level function and class of the package, and every method that is
not a dunder, must be named somewhere in the program, its benchmark or its
scripts besides its own ``def`` or ``class`` line. A name that only the tests
use belongs in ``tests/`` (as an oracle in ``conftest.py``) or nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oasweep"
USER_DIRS = ("src", "perfbench", "scripts")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def package_definitions():
    """(path, line, name) of each top-level function or class and each non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, DEFINITIONS):
                continue
            yield path, node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        yield path, item.lineno, item.name


def test_every_package_name_is_used_outside_the_tests():
    lines = [(path, number, text)
             for folder in USER_DIRS
             for path in sorted((ROOT / folder).rglob("*.py"))
             for number, text in enumerate(path.read_text().splitlines(), start=1)]
    unused = []
    for def_path, def_line, name in package_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for path, number, text in lines
                   if (path, number) != (def_path, def_line)):
            unused.append(f"{def_path.relative_to(ROOT)}:{def_line} {name}")
    assert not unused, f"used only by the tests (or by nothing): {unused}"
