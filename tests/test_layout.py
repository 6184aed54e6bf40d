"""Layout guard: `src/odnext` holds only code the program runs.

Every public top-level function of `autograd.py`, `nn.py` and
`stlstm.py` must be named somewhere in `src/` or `perfbench/` outside its
own module, and every public top-level function and every
public method of a class in `src/odnext` outside its own `def`.  A name
counts as an identifier, an attribute, an import or an identifier-like
string constant (perfbench wraps methods by name).  A helper only tests call belongs in
`tests/reference.py`.  Only `autograd.fused` puts a node on the tape,
and no module keeps a process-wide mode (no `global` statement).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "odnext"
GUARDED = ("autograd.py", "nn.py", "stlstm.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name `tree` mentions, leaving out the subtree `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _public_defs(body: list[ast.stmt]) -> list[ast.FunctionDef]:
    return [
        node
        for node in body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _public_functions(path: Path) -> list[str]:
    return [fn.name for fn in _public_defs(_parse(path).body)]


def _program_files() -> list[Path]:
    return sorted(
        p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")
        if "tests" not in p.relative_to(ROOT).parts
    )


@pytest.mark.parametrize("module", GUARDED)
def test_public_functions_are_used_outside_their_module(module):
    own = PACKAGE / module
    files = _program_files()
    assert own in files
    used = set().union(*(_names_used(_parse(p)) for p in files if p != own))
    functions = _public_functions(own)
    assert functions, f"{module} defines no public function"
    unused = [name for name in functions if name not in used]
    assert not unused, f"{module}: only tests call {unused}; move them to tests/reference.py"


def _module_scope(tree: ast.Module) -> list[tuple[str, list[ast.stmt]]]:
    return [("", tree.body)]


def _class_scopes(tree: ast.Module) -> list[tuple[str, list[ast.stmt]]]:
    return [(f"{c.name}.", c.body) for c in tree.body if isinstance(c, ast.ClassDef)]


def _unused_defs(scopes) -> list[str]:
    """Public functions defined directly in the `scopes(tree)` bodies of
    each `src/odnext` module that the program names nowhere outside their
    own `def`."""
    files = _program_files()
    trees = {p: _parse(p) for p in files}
    unused = []
    for own in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(_names_used(t) for p, t in trees.items() if p != own))
        for prefix, body in scopes(trees[own]):
            for fn in _public_defs(body):
                if fn.name not in elsewhere and fn.name not in _names_used(trees[own], fn):
                    unused.append(f"{own.name}: {prefix}{fn.name}")
    return unused


def test_public_functions_of_every_module_are_used_outside_their_def():
    unused = _unused_defs(_module_scope)
    assert not unused, f"only tests call {unused}; move them to tests/reference.py"


def test_public_methods_are_used_outside_their_def():
    unused = _unused_defs(_class_scopes)
    assert not unused, f"only tests call {unused}; move them to tests/reference.py"


def _taped_constructions(tree: ast.AST, skip: ast.AST | None = None) -> list[int]:
    """Lines of the `Tensor(...)` calls in `tree`, outside `skip`, that pass
    parents or a backward (by keyword, or as the third or fourth argument)."""
    lines = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            keywords = {k.arg for k in node.keywords}
            if name == "Tensor" and (len(node.args) > 2 or keywords & {"parents", "backward"}):
                lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_only_fused_puts_a_node_on_the_tape():
    """Every taped `Tensor` of the program and of `tests/reference.py` is
    built by `autograd.fused`."""
    paths = [*sorted((ROOT / "src").rglob("*.py")), ROOT / "tests" / "reference.py"]
    trees = {p: _parse(p) for p in paths}
    fused = next(f for f in _public_defs(trees[PACKAGE / "autograd.py"].body) if f.name == "fused")
    assert _taped_constructions(fused), "fused no longer builds the taped node"
    found = [
        f"{p.name}:{n}" for p, tree in trees.items() for n in _taped_constructions(tree, fused)
    ]
    assert not found, f"taped Tensor built outside autograd.fused at {found}"


def test_no_module_keeps_a_mutable_mode():
    """No `src/odnext` function rebinds a module-level name: whether a path
    builds a tape follows from what it computes on, not from a switch that
    training and inference share."""
    found = [
        f"{p.name}:{node.lineno}"
        for p in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(p))
        if isinstance(node, ast.Global)
    ]
    assert not found, f"`global` statements at {found}"
