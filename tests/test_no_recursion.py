"""No library function calls itself, with no exception.

Every search keeps its path on an explicit stack, and the Hall-ratio colouring
runs its levels in one loop, so the size of an input never meets the
interpreter's recursion limit.
"""

import ast
from pathlib import Path

import minorlab

ALLOWED: set[str] = set()


def callee_name(call):
    """`f` for f(...), self.f(...) and cls.f(...); None for other calls, such
    as super().f(...), which reach a different function."""
    callee = call.func
    if isinstance(callee, ast.Name):
        return callee.id
    if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
        if callee.value.id in ("self", "cls"):
            return callee.attr
    return None


def self_calls(tree):
    """(name, line) of every call, nested functions included, to the name of
    a function the call sits in."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and callee_name(node) == func.name:
                    yield func.name, node.lineno


def test_no_function_calls_itself():
    package = Path(minorlab.__file__).parent
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.rglob("*.py"))
        for name, line in self_calls(ast.parse(path.read_text()))
        if name not in ALLOWED
    ]
    assert found == []


def test_the_guard_sees_nested_and_method_self_calls():
    source = (
        "def outer():\n"
        "    def rec(n):\n"
        "        return rec(n - 1)\n"
        "    return rec(3)\n"
        "class C:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
    )
    assert list(self_calls(ast.parse(source))) == [("rec", 3), ("walk", 7)]
