"""Every top-level function and class in src/ is reached from the command
line, or it states a result of the paper and is listed in KEPT; every
method of a class in src/ other than a dunder is reached the same way."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fuzzyframes"

#: the library-only names and the paper statement each one implements
KEPT: dict = {}


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


def test_no_command_handler_catches_an_exception():
    """run_command is the one place an exception from a command becomes a
    verdict: no _cmd_* handler of cli_io holds a try statement."""
    tree = ast.parse((SRC / "cli_io.py").read_text())
    handlers = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_cmd_")]
    assert len(handlers) == 11
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    caught = [f.name for f in handlers if any(isinstance(n, tries) for n in ast.walk(f))]
    assert caught == []


def test_readme_library_example():
    """README's "Library use" block runs, and each line's comment holds:
    ``A = x, B = y`` are the fields of the value the line computes (or
    assigns), and ``passes`` a verification that passed, at the levels
    listed."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert block
    scope: dict = {}
    exec(block[1], scope)
    pairs = passes = 0
    for line in block[1].splitlines():
        code, _, comment = line.partition("#")
        target = re.match(r"(\w+) = ", code)
        claims = re.findall(r"\b([AB]) = ([\d./]+)", comment)
        for name, value in claims:
            got = getattr(eval(target[1] if target else code, scope), name)
            assert got == pytest.approx(float(Fraction(value)), rel=1e-12), line
        pairs += bool(claims)
        if "passes" in comment:
            result = eval(code, scope)
            assert result.passed, line
            levels = re.findall(r"[\d.]+", comment.partition("levels")[2])
            alphas = sorted({c.alpha for c in result.checks})
            assert not levels or alphas == list(map(float, levels))
            passes += 1
    assert (pairs, passes) == (3, 2)
