"""Layout guard: the tape, layer and encoder modules hold only code the
program runs.  Every public top-level function of `autograd.py`, `nn.py`
and `stlstm.py` must be named somewhere in `src/`, `scripts/` or
`perfbench/` outside its own module; a helper only tests call belongs in
`tests/reference.py`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "odnext"
GUARDED = ("autograd.py", "nn.py", "stlstm.py")


def _names_used(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _public_functions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _program_files() -> list[Path]:
    return sorted(
        p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
        if "tests" not in p.relative_to(ROOT).parts
    )


@pytest.mark.parametrize("module", GUARDED)
def test_public_functions_are_used_outside_their_module(module):
    own = PACKAGE / module
    files = _program_files()
    assert own in files
    used = set().union(*(_names_used(p) for p in files if p != own))
    functions = _public_functions(own)
    assert functions, f"{module} defines no public function"
    unused = [name for name in functions if name not in used]
    assert not unused, f"{module}: only tests call {unused}; move them to tests/reference.py"
