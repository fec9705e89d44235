"""Every name has one owner: a polyk module imports a name from another
polyk module only where that module defines it, and only to use it.

No linter runs on the tree, so the rule is read off the source with
``ast``.  A name is defined in a module by a top-level ``def``, ``class``
or assignment; an imported name is used when it is loaded anywhere in the
importing module, names inside string annotations included.  A re-export
fails the first rule, and an unused import the second.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyk"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def defined(tree: ast.Module) -> set[str]:
    """The names a module's top-level statements bind, imports left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def used(tree: ast.Module) -> set[str]:
    """The names a module loads, with those named in string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    names.update(n.id for n in ast.walk(ast.parse(text.value, mode="eval"))
                                 if isinstance(n, ast.Name))
    return names


def polyk_imports(module: str, tree: ast.Module) -> list[tuple[str, str, str]]:
    """(source module, name, bound name) for each name imported from polyk."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                source = node.module or "__init__"
            elif node.module and node.module.startswith("polyk"):
                source = node.module.removeprefix("polyk").lstrip(".") or "__init__"
            else:
                continue
            found.extend((source, a.name, a.asname or a.name) for a in node.names)
    return found


def owner_violations(module: str) -> list[str]:
    tree = parse(module)
    loaded = used(tree)
    problems = []
    for source, name, bound in polyk_imports(module, tree):
        if name not in defined(parse(source)):
            problems.append(f"{module} imports {name} from {source}, which does not define it")
        if bound not in loaded:
            problems.append(f"{module} imports {name} from {source} and never uses it")
    return problems


@pytest.mark.parametrize("module", MODULES)
def test_each_polyk_import_is_from_its_owner_and_used(module):
    assert owner_violations(module) == []


def test_the_package_imports_nothing():
    # the package holds its docstring and version; every name lives in the
    # module that defines it
    tree = parse("__init__")
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert defined(tree) == {"__version__"}


def test_the_checks_see_a_re_export_and_an_unused_import():
    tree = ast.parse("from .cellular import Z\nfrom .polytope import face_label\n"
                     "def f(x: 'Face') -> None:\n    return face_label\n")
    assert polyk_imports("m", tree) == [("cellular", "Z", "Z"),
                                        ("polytope", "face_label", "face_label")]
    assert {"Face", "face_label"} <= used(tree) and "Z" not in used(tree)
    assert "Z" in defined(parse("cellular")) and "Z" not in defined(parse("ktheory"))
