"""Every public top-level function and class in ``src/gg1lab`` has a
caller outside the tests, or is part of the package's exported API, so
code that only the tests use does not collect in the library."""

import ast
import pathlib

import gg1lab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gg1lab").glob("*.py"))
# library and benchmark code; the benchmark's own tests are no callers
CALLERS = PACKAGE + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts
)


def _referenced_names(node) -> set[str]:
    """Names and attributes that a top-level statement reads, apart from
    the name it defines (a recursive call is no caller)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names.discard(node.name)
    return names


def test_public_definitions_have_a_library_caller_or_are_exported():
    referenced = set()
    for path in CALLERS:
        for node in ast.parse(path.read_text()).body:
            referenced |= _referenced_names(node)
    public = [
        f"{path.stem}.{node.name}"
        for path in PACKAGE
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(PACKAGE) >= 10 and any(p.parent.name == "perfbench" for p in CALLERS)
    assert len(public) > 50
    unused = [q for q in public
              if q.split(".")[1] not in referenced and q.split(".")[1] not in gg1lab.__all__]
    assert not unused, f"called only by tests, and not exported: {unused}"

