"""No unused exports: each public top-level name of the package, and each
public method and property of its classes, is used by the package itself, a
script or the benchmark, not only by the tests."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "painstrata"
USERS = ("src", "scripts", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_bindings(path: pathlib.Path) -> collections.Counter:
    """The module's public top-level names and the public methods and
    properties of its top-level classes, each with its number of bindings."""
    counts = collections.Counter()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        if isinstance(node, ast.ClassDef):
            targets += [item.name for item in node.body if isinstance(item, FUNCTIONS)]
        counts.update(name for name in targets if not name.startswith("_"))
    return counts


def texts(*trees: str) -> list[str]:
    return [path.read_text(encoding="utf-8")
            for tree in trees for path in sorted((ROOT / tree).rglob("*.py"))]


def test_no_public_name_is_used_only_by_tests():
    # a mention outside the package's bindings of the name counts as a use,
    # strings included: the CLI looks its handlers up by name and the
    # benchmark patches by name
    bindings = {module.name: public_bindings(module) for module in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum(bindings.values(), collections.Counter())
    users, tests = texts(*USERS), "\n".join(texts("tests"))
    only_tested = []
    for module, names in bindings.items():
        for name in names:
            word = re.compile(rf"\b{re.escape(name)}\b")
            uses = sum(len(word.findall(text)) for text in users) - everywhere[name]
            if uses <= 0 and word.search(tests):
                only_tested.append(f"{module}: {name}")
    assert not only_tested, only_tested
