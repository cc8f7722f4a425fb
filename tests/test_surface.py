"""The library's public surface, read from the source with `ast`.

Every public module-level function and class of `dynte`, and every public
method and property of its classes, is reached from somewhere other than
its own definition: the package itself, `demos/`, `bench/` or the
console-script entry in `pyproject.toml`. A name that only tests reach is
kept only while a ROADMAP item or acceptance criterion needs it, and is
listed below with the reason. Every name a `dynte`
module imports is used in that module. Every default of a public
module-level function is left unset by some call in the package, `demos/`
or `bench/`: a default that every such call overrides is a second home for
a value that belongs to its callers. Conversely, every defaulted parameter
of such a function, and every defaulted field of a record, is set by some
call there: a setting that only tests turn is a constant. Every field of a
record is read there too, as an attribute or by its name in a string (for
`getattr`): a field nothing reads is an echo of an argument, or a second
home for what another field or function computes. A field only tests read
is listed below with the ROADMAP item that keeps it. Only `cli` touches the
file system: no other module calls `open` or imports a file-system module
(FILE_SYSTEM), so the library computes on what it is handed, and the bytes
an output name is hashed from are the bytes its tables were computed from.
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


# public methods and properties, as `Class.name`, no command, demo or bench
# driver reaches yet, and what keeps each
METHODS_KEPT_FOR = {}

# defaults every call outside the tests overrides, and what keeps each
DEFAULTS_KEPT_FOR = {}

# defaults no call outside the tests sets, and what keeps each
NEVER_SET_KEPT_FOR = {}

# record fields, as `Class.field`, that no command, demo or bench driver
# reads yet, and what keeps each
FIELDS_KEPT_FOR = {
    "SharpeEquality.z": "ROADMAP item 1 runs the Sharpe-equality test across the caps",
    "AgreementReport.spearman": "ROADMAP item 9 wires the regime EM into a command",
    "AgreementReport.concordance": "ROADMAP item 9 wires the regime EM into a command",
}

# modules that reach the file system; of dynte's modules only `cli` imports them
FILE_SYSTEM = {"os", "pathlib", "shutil", "tempfile"}



def modules():
    return {p: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def demos_and_bench() -> list[ast.Module]:
    return [ast.parse(p.read_text(), str(p))
            for d in ("demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]


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


def reach():
    """(path, tree, names) for each module of the package, where `names`
    are the names referenced outside that module: in the other modules,
    `demos/`, `bench/` or the console-script entries."""
    outside = set().union(*map(referenced_names, demos_and_bench()), script_entries())
    package = modules()
    each = {path: referenced_names(tree) for path, tree in package.items()}
    for path, tree in package.items():
        yield path, tree, outside.union(*(names for p, names in each.items() if p != path))


def test_every_public_function_and_class_is_reached():
    unreached = []
    for path, tree, elsewhere in reach():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in elsewhere
                    and node.name not in referenced_names(tree, skip=node)):
                unreached.append(f"{path.stem}.{node.name}")
    assert sorted(n.split(".")[1] for n in unreached) == sorted(KEPT_FOR), unreached


def test_every_public_method_and_property_is_reached():
    unreached = []
    for path, tree, elsewhere in reach():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in elsewhere
                        and node.name not in referenced_names(tree, skip=node)):
                    unreached.append(f"{path.stem}.{cls.name}.{node.name}")
    assert sorted(n.split(".", 1)[1] for n in unreached) == sorted(METHODS_KEPT_FOR), unreached


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


def defaulted(sig: ast.arguments) -> list[str]:
    """The parameters of `sig` that have a default."""
    positional = sig.posonlyargs + sig.args
    names = [a.arg for a in positional[len(positional) - len(sig.defaults):]]
    return names + [a.arg for a, d in zip(sig.kwonlyargs, sig.kw_defaults) if d is not None]


def given(sig: ast.arguments, call: ast.Call) -> set[str] | None:
    """The parameters of `sig` that `call` sets; None where a starred
    argument may set any of them."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return None
    positional = sig.posonlyargs + sig.args
    return {a.arg for a in positional[:len(call.args)]} | {k.arg for k in call.keywords}


def called(node: ast.AST, name: str) -> bool:
    """Whether `node` is a call of the bare name `name`."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def record_signature(cls: ast.ClassDef) -> ast.arguments | None:
    """The constructor `@record` gives `cls`: its annotated fields, with
    their defaults; None if it is no record."""
    if not any(getattr(d, "id", None) == "record" for d in cls.decorator_list):
        return None
    fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
    return ast.arguments(posonlyargs=[], args=[ast.arg(f.target.id) for f in fields],
                         vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                         defaults=[f.value for f in fields if f.value is not None])


def signatures(package: dict, records: bool) -> dict[str, ast.arguments]:
    """The parameters of each public module-level function and, with
    `records`, of each record's constructor, by name."""
    out = {}
    for tree in package.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out[node.name] = node.args
            elif (records and isinstance(node, ast.ClassDef)
                  and not node.name.startswith("_")):
                sig = record_signature(node)
                if sig is not None:
                    out[node.name] = sig
    return out


def function_named(node: ast.AST, modules: set[str], aliases: dict[str, str]) -> str | None:
    """The name `node` refers to a module-level definition by: `f`, `g` after
    `from dynte.m import f as g`, or `m.f` or `dynte.m.f` for a `dynte`
    module `m`."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if not isinstance(node, ast.Attribute):
        return None
    owner = node.value
    if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
            and owner.value.id == "dynte"):
        owner = ast.Name(owner.attr)
    if isinstance(owner, ast.Name) and owner.id in modules:
        return node.attr
    return None


# the cli helpers that call the function they are given with the arguments
# that follow it
PASS_ON = {"_checked", "_blame"}


def calls_outside_tests(modules: set[str]):
    """(name, call) for each call in the package, `demos/` and `bench/` of
    whatever `function_named` names. A function passed to a PASS_ON helper
    counts as called with the arguments that follow it, a bare decorator as
    called with what it decorates, and any other function passed on as
    called with no arguments."""
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    for tree in trees + demos_and_bench():
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        done = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                done.add(id(node.func))
                yield function_named(node.func, modules, aliases), node
                if any(called(node, h) for h in PASS_ON) and len(node.args) > 1:
                    done.add(id(node.args[1]))
                    yield (function_named(node.args[1], modules, aliases),
                           ast.Call(node.args[1], node.args[2:], node.keywords))
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                for d in node.decorator_list:
                    if not isinstance(d, ast.Call):
                        done.add(id(d))
                        yield (function_named(d, modules, aliases),
                               ast.Call(d, [ast.Name(node.name)], []))
        for node in ast.walk(tree):
            name = function_named(node, modules, aliases)
            if (name is not None and id(node) not in done
                    and not isinstance(getattr(node, "ctx", None), ast.Store)):
                yield name, ast.Call(node, [], [])


def test_every_default_is_left_unset_by_some_call():
    package = modules()
    functions = signatures(package, records=False)
    unset = {name: set() for name in functions}
    for name, call in calls_outside_tests({path.stem for path in package}):
        if name in functions:
            g = given(functions[name], call)
            if g is not None:
                unset[name] |= set(defaulted(functions[name])) - g
    always_set = sorted(f"{name}.{arg}" for name, sig in functions.items()
                        for arg in defaulted(sig) if arg not in unset[name])
    assert always_set == sorted(DEFAULTS_KEPT_FOR), always_set


def test_every_default_is_set_by_some_call():
    package = modules()
    callables = signatures(package, records=True)
    was_set = {name: set() for name in callables}
    for name, call in calls_outside_tests({path.stem for path in package}):
        if name in callables:
            g = given(callables[name], call)
            was_set[name] |= set(defaulted(callables[name])) if g is None else g
    never_set = sorted(f"{name}.{arg}" for name, sig in callables.items()
                       for arg in defaulted(sig) if arg not in was_set[name])
    assert never_set == sorted(NEVER_SET_KEPT_FOR), never_set


def read_names(tree: ast.AST) -> set[str]:
    """The attributes `tree` loads and the strings it spells out."""
    return {node.attr if isinstance(node, ast.Attribute) else node.value
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Constant) and isinstance(node.value, str))}


def test_every_record_field_is_read():
    package = modules()
    read = set().union(*map(read_names, [*package.values(), *demos_and_bench()]))
    unread = sorted(f"{cls.name}.{field.target.id}"
                    for tree in package.values() for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and record_signature(cls) is not None
                    for field in cls.body
                    if isinstance(field, ast.AnnAssign) and field.target.id not in read)
    assert unread == sorted(FIELDS_KEPT_FOR), unread


def test_only_cli_touches_the_file_system():
    found = []
    for path, tree in modules().items():
        if path.stem == "cli":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = ["open"] if called(node, "open") else []
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in FILE_SYSTEM | {"open"}]
    assert found == [], found
