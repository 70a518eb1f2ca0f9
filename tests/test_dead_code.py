"""Every module-level function and class, and every method, other than a
dunder, is named somewhere in the package: code that only tests reach, or
nothing at all, is not kept.  A dunder is a hook the interpreter calls,
such as the package's module-level __getattr__."""
import ast
from itertools import chain
from pathlib import Path

import quiverhom

PACKAGE = Path(quiverhom.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(node):
    return node.name.startswith("__") and node.name.endswith("__")


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            # an import names the imported definition, alias or not
            yield node.name.rsplit(".", 1)[-1]


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _attributes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr


def _unreferenced(defined, names=_names):
    referenced = set()
    for _, tree in _trees():
        referenced.update(names(tree))
    return [d for d in defined if d[-1] not in referenced]


def test_every_top_level_definition_is_referenced():
    defined = [(name, node.name) for name, tree in _trees()
               for node in tree.body
               if isinstance(node, DEFS + (ast.ClassDef,))
               and not _is_dunder(node)]
    assert _unreferenced(defined) == []


def test_every_method_is_referenced():
    """A method counts as referenced only through attribute access (x.name):
    a bare name of the same spelling, such as a local variable, is not a
    use of it."""
    defined = [(name, cls.name, node.name) for name, tree in _trees()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, DEFS)
               and not _is_dunder(node)]
    assert _unreferenced(defined, _attributes) == []


def test_every_import_is_used():
    """Every name a package module imports is used in that module, apart
    from the re-exports of __init__.py and __future__ imports."""
    unused = []
    for name, tree in _trees():
        if name == "__init__.py":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [(name, b) for b in sorted(imported - used)]
    assert unused == []


# search_orders(a, bound) keeps a bound that no flag depends on: the
# benchmark in perfbench/workloads.py calls it with one.
UNREAD_PARAMETERS = {("stratify.py", "search_orders", "bound")}


def test_every_parameter_is_read():
    """Every parameter of every package def other than self and cls is
    read in its body (nested defs included); a parameter that nothing
    reads is not kept."""
    unread = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + \
                [a for a in (args.vararg, args.kwarg) if a]
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            unread += [(name, node.name, p.arg) for p in params
                       if p.arg not in read | {"self", "cls"}]
    assert sorted(set(unread) - UNREAD_PARAMETERS) == []


# the one value cache (algebra.memo), the resolution table (whose links
# hold the Ext coordinate matrices, every extension dimension read off
# them) and the constructors that make each _cache
CACHE_OWNERS = {"memo", "projective_resolution", "__init__"}


def _cache_users(node, enclosing=()):
    """(enclosing def names, line) of every ._cache access under node."""
    if isinstance(node, DEFS):
        enclosing += (node.name,)
    if isinstance(node, ast.Attribute) and node.attr == "_cache":
        yield enclosing, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _cache_users(child, enclosing)


def test_every_cache_access_is_owned():
    """Values are cached through algebra.memo, not by a hand-written
    check-compute-store block: every ._cache access in the package lies
    inside memo, the resolution table or a constructor."""
    stray = [(name, line, defs[-1] if defs else None)
             for name, tree in _trees()
             for defs, line in _cache_users(tree)
             if not CACHE_OWNERS & set(defs)]
    assert stray == []


def test_no_store_is_keyed_by_id():
    """No package code calls the builtin id: a store keyed by id(x) must
    also hold x, or a new object may reuse the key, so key by x itself."""
    calls = [(name, node.lineno) for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []


def _defined(tree):
    """Names a module binds at its top level other than by an import."""
    for node in tree.body:
        if isinstance(node, DEFS + (ast.ClassDef,)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def _relative_imports(tree):
    """(module, name) of every `from .module import name`; `from . import
    module` names a module, not a definition, and is passed over."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            for alias in node.names:
                yield node.module, alias.name


def test_every_relative_import_names_the_defining_module():
    """A package module other than __init__.py imports each name from the
    module that defines it, not through another module that imports it
    in turn."""
    trees = dict(_trees())
    defined = {name[:-3]: set(_defined(tree)) for name, tree in trees.items()}
    relayed = [(name, module, imported) for name, tree in trees.items()
               if name != "__init__.py"
               for module, imported in _relative_imports(tree)
               if imported not in defined[module]]
    assert relayed == []


def test_named_algebras_are_built_outside_stratify():
    """catalog, which builds every named algebra, imports nothing from
    stratify, and stratify imports none of the names that present an
    algebra."""
    trees = dict(_trees())
    assert "stratify" not in {
        m for m, _ in _relative_imports(trees["catalog.py"])}
    builders = {"Quiver", "build_algebra", "combination_relation",
                "monomial_relation"}
    assert [n for _, n in _relative_imports(trees["stratify.py"])
            if n in builders] == []


REPO = Path(__file__).resolve().parent.parent

# no call passes a testset yet; the planned Auslander-Reiten quiver and
# main-theorem registry ids are to pass their own module lists
UNSET_OPTIONS = {("stratify.py", "verify_main_equivalences", "testset"),
                 ("stratify.py", "verify_duality_consequences", "testset")}


def _optional_parameters(tree):
    """(def name, parameter, position or None) of every parameter with a
    default, the position counted from a call's first argument: a method
    other than a staticmethod takes self or cls first, and __init__ goes
    by its class's name."""
    methods = {node: cls.name for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, DEFS)
               and "staticmethod" not in {d.id for d in node.decorator_list
                                          if isinstance(d, ast.Name)}}
    for node in ast.walk(tree):
        if not isinstance(node, DEFS):
            continue
        cls = methods.get(node)
        name = cls if node.name == "__init__" and cls else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k in range(first, len(positional)):
            yield name, positional[k].arg, k - (cls is not None)
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield name, a.arg, None


def _calls(node, cls=None):
    """(callee name, call) of every call under node; cls(...) inside a
    class calls that class."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        yield (cls if name == "cls" and cls else name), node
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, cls)


def _sets(call, parameter, position):
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_option_is_set_by_a_call():
    """Every optional parameter of a package def is set by at least one
    call in src/, tests/ or perfbench/; an option that no call sets is
    not kept.  bound is exempt: the two bound guards in tests/test_api.py
    cover it."""
    calls = {}
    for path in chain(PACKAGE.glob("*.py"), (REPO / "tests").glob("*.py"),
                      (REPO / "perfbench").glob("*.py")):
        for name, call in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append(call)
    unset = [(file, name, parameter) for file, tree in _trees()
             for name, parameter, position in _optional_parameters(tree)
             if parameter != "bound"
             and not any(_sets(call, parameter, position)
                         for call in calls.get(name, ()))]
    assert sorted(set(unset) - UNSET_OPTIONS) == []


# the modules whose certificate guards are all tripped by a test
TRIPPED = ("homology.py", "modules.py")


def _certificate_messages(tree):
    """The message of every `raise CertificateFailure(...)` whose argument
    is a string literal, or a `%` format of one, read up to its first `%`
    directive.  A message passed in by the caller (homology._factor's
    why) is not a literal here; its callers' literals are."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "CertificateFailure"):
            continue
        arg = node.exc.args[0]
        if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod):
            arg = arg.left
        if isinstance(arg, ast.Constant):
            yield arg.value.split("%", 1)[0]


def test_every_certificate_guard_is_tripped_by_a_test():
    """Every CertificateFailure message of homology.py and modules.py
    appears in a test: a guard that no test makes fire may be wrong or
    unreachable, and nothing would tell."""
    tests = "".join(p.read_text() for p in (REPO / "tests").glob("*.py"))
    trees = dict(_trees())
    untripped = [(name, msg) for name in TRIPPED
                 for msg in _certificate_messages(trees[name])
                 if msg not in tests]
    assert untripped == []
