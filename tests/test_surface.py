"""The library's public surface, read from the source with `ast`.

Every public module-level function and class of `dynte` is reached from
somewhere other than its own definition: the package itself, `demos/`,
`bench/` or the console-script entry in `pyproject.toml`. A name that only
tests reach is kept only while a ROADMAP item or acceptance criterion
needs it, and is listed below with the reason. Every name a `dynte`
module imports is used in that module. Every default of a public
module-level function is left unset by some call in the package, `demos/`
or `bench/`: a default that every such call overrides is a second home for
a value that belongs to its callers.
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


# defaults every call outside the tests overrides, and what keeps each
DEFAULTS_KEPT_FOR = {}


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


def unset_defaults(fn: ast.FunctionDef, call: ast.Call) -> set[str]:
    """The defaulted parameters of `fn` that `call` leaves unset; a starred
    argument may set any of them."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return set()
    positional = fn.args.posonlyargs + fn.args.args
    given = {a.arg for a in positional[:len(call.args)]} | {k.arg for k in call.keywords}
    with_default = [a.arg for a in positional[len(positional) - len(fn.args.defaults):]]
    with_default += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if d is not None]
    return set(with_default) - given


def function_named(node: ast.AST, modules: set[str]) -> str | None:
    """The name `node` refers to a module-level function by: `f`, or `mod.f`
    for a `dynte` module `mod`."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return node.attr
    return None


def test_every_default_is_left_unset_by_some_call():
    package = modules()
    names = {path.stem for path in package}
    functions = {node.name: node for tree in package.values() for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    callers = list(package.values()) + [
        ast.parse(p.read_text(), str(p))
        for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    unset = {name: set() for name in functions}
    for tree in callers:
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        callees = {id(call.func) for call in calls}
        for call in calls:
            name = function_named(call.func, names)
            if name in functions:
                unset[name] |= unset_defaults(functions[name], call)
        for node in ast.walk(tree):
            # a function passed on, e.g. to cli._blame, is called with its defaults
            name = function_named(node, names)
            if (name in functions and id(node) not in callees
                    and not isinstance(node.ctx, ast.Store)):
                unset[name] |= unset_defaults(functions[name], ast.Call(node, [], []))
    always_set = sorted(f"{name}.{arg}" for name, fn in functions.items()
                        for arg in unset_defaults(fn, ast.Call(fn, [], []))
                        if arg not in unset[name])
    assert always_set == sorted(DEFAULTS_KEPT_FOR), always_set
