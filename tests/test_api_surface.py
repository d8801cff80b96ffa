"""Every top-level function and class in src/ is reached from the command
line, or it states a result of the paper and is listed in KEPT; every
method of a class in src/ other than a dunder is reached the same way."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fuzzyframes"

#: the library-only names and the paper statement each one implements
KEPT = {
    "alpha_operator_norm": "the norm of a strongly fuzzy bounded operator",
}


def _definitions() -> dict:
    """The top-level statements of src/ by the names they bind."""
    defs: dict = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs.setdefault(target.id, []).append(node)
    return defs


def _reach(defs: dict, roots) -> set:
    """The names reached from roots through Name and Attribute references:
    the roots and every name that a reached definition refers to."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for sub in (s for node in defs.get(name, ()) for s in ast.walk(node)):
            if isinstance(sub, ast.Name):
                todo.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                todo.append(sub.attr)
    return seen


def test_every_definition_is_reached_or_kept():
    defs = _definitions()
    commands = _reach(defs, ["main", "COMMANDS"])
    assert [name for name in KEPT if name not in defs] == [], "KEPT names nothing in src/"
    assert [name for name in KEPT if name in commands] == [], "a command already reaches it"
    reached = _reach(defs, ["main", "COMMANDS", *KEPT])
    unreached = [
        node.name
        for nodes in defs.values()
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in reached
    ]
    assert unreached == []


def test_every_method_is_reached():
    """A method counts as reached when a reached definition refers to its
    name as an attribute (or a name); dunders are called by Python itself."""
    defs = _definitions()
    reached = _reach(defs, ["main", "COMMANDS", *KEPT])
    unreached = [
        f"{cls.name}.{item.name}"
        for nodes in defs.values()
        for cls in nodes
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in reached
    ]
    assert unreached == []
