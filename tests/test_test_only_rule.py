"""The test-only rule: src/oasweep holds only what the program runs.

Every top-level function and class of the package, and every method that is
not a dunder, must be referred to by code somewhere in the program, its
benchmark or its scripts: as a name, an attribute, an imported name, or a
string that is the name alone (the benchmark's tracer wraps functions named
by strings). A comment or docstring that mentions it does not count. A name
that only the tests use belongs in ``tests/`` (as an oracle in
``conftest.py``) or nowhere.

The same holds for parameter defaults: some call in the program, its
benchmark or its scripts must omit the parameter. A default that every such
caller overrides only shadows the value the program really uses (a
``SweepConfig`` field, say) and lets a test run another one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oasweep"
USER_DIRS = ("src", "perfbench", "scripts")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


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


def referenced_names(tree):
    """The names a module's code refers to: Name and Attribute nodes, imported
    names, and string constants (a string may name a function to look up)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_name_is_used_outside_the_tests():
    used = {name
            for folder in USER_DIRS
            for path in sorted((ROOT / folder).rglob("*.py"))
            for name in referenced_names(ast.parse(path.read_text(), filename=str(path)))}
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, line, name in package_definitions() if name not in used]
    assert not unused, f"used only by the tests (or by nothing): {unused}"


def package_functions():
    """(path, def node, bound) of each top-level function and method; a bound
    method's calls pass no ``self`` or ``cls``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, FUNCTIONS):
                yield path, node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        yield path, item, not static


def parameter_defaults(function, bound):
    """(name, positional index in a call, None if keyword-only) of each defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def omits(call, name, index):
    """Whether a call surely leaves the parameter to its default."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if index is not None and len(call.args) > index:
        return False
    return all(k.arg not in (name, None) for k in call.keywords)  # None: a **mapping


def test_every_parameter_default_is_used_outside_the_tests():
    calls = {}
    for folder in USER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    shadowing = [f"{path.relative_to(ROOT)}:{function.lineno} {function.name}({name}=...)"
                 for path, function, bound in package_functions()
                 for name, index in parameter_defaults(function, bound)
                 if not any(omits(call, name, index) for call in calls.get(function.name, ()))]
    assert not shadowing, f"defaults every caller outside the tests overrides: {shadowing}"
