"""Every public top-level function and class in ``src/gg1lab``, and every
public method and property of a public class, has a caller outside the
tests, or (for top-level names) is part of the package's exported API,
so code that only the tests use does not collect in the library."""

import ast
import pathlib

import gg1lab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gg1lab").glob("*.py"))
# library and benchmark code; the benchmark's own tests are no callers
CALLERS = PACKAGE + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts
)
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _referenced_names(node) -> set[str]:
    """Names, attributes and string constants (perfbench names the
    methods it wraps by string) that a statement reads, apart from the
    name of each definition inside its own body (a recursive call is no
    caller)."""
    names = set()
    for child in ast.iter_child_nodes(node):
        names |= _referenced_names(child)
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names.add(node.value)
    elif isinstance(node, DEFINITIONS):
        names.discard(node.name)
    return names


def _public_definitions(path):
    """(qualified name, exported) for each public top-level function and
    class of a module, and each public method and property of those
    classes; only top-level names can be exported."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name in gg1lab.__all__
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", False


def test_public_definitions_have_a_library_caller_or_are_exported():
    referenced = set()
    for path in CALLERS:
        referenced |= _referenced_names(ast.parse(path.read_text()))
    public = [d for path in PACKAGE for d in _public_definitions(path)]
    assert len(PACKAGE) >= 10 and any(p.parent.name == "perfbench" for p in CALLERS)
    assert sum("." not in q.split(".", 1)[1] for q, _ in public) > 50
    assert sum("." in q.split(".", 1)[1] for q, _ in public) > 50
    unused = [q for q, exported in public
              if q.rsplit(".", 1)[1] not in referenced and not exported]
    assert not unused, f"called only by tests, and not exported: {unused}"
