"""Rules on the source of `src/pentabft` itself, checked by parsing it."""

import ast
from pathlib import Path

import pentabft

SRC = Path(pentabft.__file__).resolve().parent

# functions whose only callers live outside src/, with the reason they stay
OUTSIDE_CALLERS = {
    "check_delivery_bounds": "perfbench/sample.py checks the runs that record events with it",
}


def test_every_function_is_used_in_src():
    """`src/` holds no entry points that only tests use: each non-dunder
    function or method name appears elsewhere in `src/` as a name, an
    attribute or a string constant. Strings count because the replicas'
    `handlers` tables name their methods by string."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = {
        name: where
        for name, where in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused.keys() == OUTSIDE_CALLERS.keys(), unused
