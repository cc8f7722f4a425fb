"""The library's public surface, read from the source with `ast`.

Every public module-level function and class of `dynte` is reached from
somewhere other than its own definition: the package itself, `demos/`,
`bench/` or the console-script entry in `pyproject.toml`. A name that only
tests reach is kept only while a ROADMAP item or acceptance criterion
needs it, and is listed below with the reason. Every name a `dynte`
module imports is used in that module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dynte"

# public names no command, demo or bench driver reaches yet, and what keeps each
KEPT_FOR = {
    "sharpe_equality_test": "ROADMAP item 1 runs it across the cap spectrum",
    "signal_agreement": "ROADMAP item 9 wires the regime EM into a command",
    "optimal_theta": "acceptance criterion 1 checks it against a grid search",
}


def modules():
    return {p: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read, attributes taken and names imported anywhere in `tree`,
    leaving out the subtree `skip`."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def script_entries() -> set[str]:
    """The attributes `[project.scripts]` entries point at: `dynte.cli:main` gives `main`."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[].*\n?)*)", text, re.M)
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', section.group(1))) if section else set()


def test_every_public_function_and_class_is_reached():
    others = [ast.parse(p.read_text(), str(p))
              for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    outside = set().union(*map(referenced_names, others), script_entries())
    package = modules()
    each = {path: referenced_names(tree) for path, tree in package.items()}
    unreached = []
    for path, tree in package.items():
        elsewhere = outside.union(*(names for p, names in each.items() if p != path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in elsewhere
                    and node.name not in referenced_names(tree, skip=node)):
                unreached.append(f"{path.stem}.{node.name}")
    assert sorted(n.split(".")[1] for n in unreached) == sorted(KEPT_FOR), unreached


def test_every_import_of_a_module_is_used():
    for path, tree in modules().items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused = [name for name in bound if name not in read]
            assert not unused, f"{path.name}:{node.lineno} imports {unused} and never uses them"
