"""Rules on the source of `src/pentabft` itself, checked by parsing it."""

import ast
from pathlib import Path

import pentabft

SRC = Path(pentabft.__file__).resolve().parent

# functions whose only callers live outside src/, with the reason they stay
OUTSIDE_CALLERS = {
    "check_delivery_bounds": "perfbench/sample.py checks the runs that record events with it",
    # moving it into tests/oracles.py changes the source text of
    # TestOrderIndependence::test_replayed_orders_agree, which seeds that
    # test's derandomized Hypothesis examples
    "decided_slots": "test_properties.py's order-independence property calls it",
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


# attributes that src/ stores on `self` and only code outside src/ reads,
# with the reason they stay
OUTSIDE_READERS = {
    "invalid_blocks": "the invalid-block counter of ROADMAP item 1; tests read it",
    "malformed": "the malformed-message counter of ROADMAP item 1; tests read it",
}


def test_every_stored_attribute_is_read_in_src():
    """`src/` keeps no write-only state: each attribute stored on `self`,
    and each annotated field of a `@dataclass` class body, is read
    elsewhere in `src/` as an attribute, a name or a string constant.
    Strings count as for functions, but the names a `__slots__` declares
    do not, nor does a field's own declaration. Storing an item, as in
    `self.x[k] += 1`, stores `x` and does not read it."""
    stored: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        slots: set[int] = set()  # ids of the nodes inside `__slots__` values
        items: set[int] = set()  # ids of the attributes whose items are stored
        declared: set[int] = set()  # ids of the names that declare dataclass fields
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                slots.update(id(c) for c in ast.walk(node.value))
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                items.add(id(node.value))
            elif isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        stored.setdefault(stmt.target.id, f"{path.name}:{stmt.lineno}")
                        declared.add(id(stmt.target))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Load) or id(node) in items:
                    if isinstance(node.value, ast.Name) and node.value.id == "self":
                        stored.setdefault(node.attr, f"{path.name}:{node.lineno}")
                else:
                    read.add(node.attr)
            elif isinstance(node, ast.Name) and id(node) not in declared:
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in slots:
                read.add(node.value)
    unread = {name: where for name, where in stored.items() if name not in read}
    assert unread.keys() == OUTSIDE_READERS.keys(), unread


def test_the_network_models_draw_without_randint():
    """`simnet.py` draws its delays from `getrandbits` itself: it calls
    neither `randint` nor `randrange`, whose mapping of bits to integers is
    CPython's to change."""
    tree = ast.parse((SRC / "simnet.py").read_text())
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert called.isdisjoint({"randint", "randrange"})


def test_message_shapes_are_defined_only_in_messages():
    """The shape of a peer message has one definition: no `_well_formed*`
    or `_ints` function is defined outside `messages.py`."""
    outside = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "messages.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith(("_well_formed", "_ints"))
    ]
    assert outside == []
