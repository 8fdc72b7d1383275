"""Every public top-level function and class in ``src/gg1lab``, and every
public method and property of a public class, has a caller outside the
tests (being exported from ``gg1lab`` is no caller); every public field
of a public dataclass or NamedTuple has a reader outside the tests; and
every attribute that a private class, or any class under a private
name, stores on ``self`` is read in ``src/gg1lab``.  So code and state
that only the tests use do not collect in the library.

Callers and readers are found by name, not by type: an attribute of
the same name on another object counts.  A ``cdf`` method read only by
the tests passed because scipy distributions have a ``cdf`` that the
library calls, and a ``to_dict`` or a ``cost_weight`` field because
other classes have one.  What the guard passes may still be dead."""

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
    """The qualified name of each public top-level function and class of
    a module, and of each public method and property of those classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}"


def _stored_attributes(path):
    """The qualified name of each attribute that a top-level class of a
    module stores on ``self``, when the class or the attribute is
    private."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            stored = {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                      and isinstance(n.value, ast.Name) and n.value.id == "self"}
            for attr in sorted(stored):
                if node.name.startswith("_") or attr.startswith("_"):
                    yield f"{path.stem}.{node.name}.{attr}"


def _read_attributes(tree) -> set[str]:
    """Attribute reads and string constants (``getattr`` by name) anywhere
    in a module; a keyword argument or an assignment is no reader."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated with ``dataclass`` or derived from ``NamedTuple``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases))


def _public_fields(path):
    """(qualified name, read through asdict) for each public field of a
    public dataclass or NamedTuple of a module; a class whose body calls
    ``asdict`` reads all its fields."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_record(node):
            as_dict = any(isinstance(n, ast.Name) and n.id == "asdict" for n in ast.walk(node))
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    yield f"{path.stem}.{node.name}.{item.target.id}", as_dict


def test_number_rule_lives_in_checks_only():
    """Only ``_checks`` imports ``numbers`` or calls ``.is_integer()``, so
    the rule for numeric arguments is written once."""
    found = []
    for path in PACKAGE:
        if path.name == "_checks.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            imported = ([a.name for a in node.names] if isinstance(node, ast.Import)
                        else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "numbers" in imported or (isinstance(node, ast.Attribute)
                                         and node.attr == "is_integer"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"numeric checks outside _checks: {found}"


def test_scipy_lives_in_distributions_and_acceptance_only():
    """Only ``distributions`` and ``acceptance`` import ``scipy``, so the
    simulator, the reports and the control model run without it."""
    found = []
    for path in PACKAGE:
        if path.name in ("distributions.py", "acceptance.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            imported = ([a.name for a in node.names] if isinstance(node, ast.Import)
                        else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "scipy" for name in imported):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"scipy imported outside distributions and acceptance: {found}"


def test_public_fields_have_a_library_reader():
    read = set()
    for path in CALLERS:
        read |= _read_attributes(ast.parse(path.read_text()))
    fields = [f for path in PACKAGE for f in _public_fields(path)]
    assert len(fields) > 50 and any(as_dict for _, as_dict in fields)
    unread = [q for q, as_dict in fields if q.rsplit(".", 1)[1] not in read and not as_dict]
    assert not unread, f"read only by tests: {unread}"


def test_private_state_has_a_library_reader():
    read = set()
    for path in PACKAGE:
        read |= _read_attributes(ast.parse(path.read_text()))
    stored = [a for path in PACKAGE for a in _stored_attributes(path)]
    assert len(stored) > 50 and "mdp._Chain.p_up" in stored
    unread = [q for q in stored if q.rsplit(".", 1)[1] not in read]
    assert not unread, f"stored but never read in the library: {unread}"


def test_public_definitions_have_a_library_caller():
    referenced = set()
    for path in CALLERS:
        if path.name != "__init__.py":  # a re-export is no caller
            referenced |= _referenced_names(ast.parse(path.read_text()))
    public = [d for path in PACKAGE for d in _public_definitions(path)]
    assert len(PACKAGE) >= 10 and any(p.parent.name == "perfbench" for p in CALLERS)
    assert sum("." not in q.split(".", 1)[1] for q in public) > 50
    assert sum("." in q.split(".", 1)[1] for q in public) > 50
    assert set(gg1lab.__all__) - {"__version__"} <= {q.split(".")[1] for q in public}
    unused = [q for q in public if q.rsplit(".", 1)[1] not in referenced]
    assert not unused, f"called only by tests: {unused}"
