"""The names the benchmark's tracer wraps, the library's one default
bound, passed on by every caller that takes it, Dim as the one judge
of a computed dimension, and the props-core battery as the one draw at
random.

perfbench/spans.py wraps package functions and methods by name from
outside the package, so renaming or deleting one breaks `--trace 1`
without failing any computation: these tests hold the package to the
names and the Representation signature that file reads.  In the same way
they hold it to the calls, with their positional arguments, that
perfbench/workloads.py makes, so that dropping a parameter a workload
passes fails here and not in a benchmark run."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import quiverhom

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKLOADS_PY = SPANS_PY.parent / "workloads.py"
PACKAGE = Path(quiverhom.__file__).parent


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_exists():
    spans = _spans()
    missing = []
    for name, modname, owner, attr, _, _ in spans.SPANS:
        mod = importlib.import_module("quiverhom." + modname)
        if owner is None:
            found = callable(getattr(mod, attr, None))
        else:
            found = attr in vars(getattr(mod, owner, object))
        if not found:
            missing.append((name, modname, owner, attr))
    assert missing == []


def _workload_calls(tree):
    """(name, positional argument count) of each call the workloads make
    on the package: on a name bound to package(), or on the "q" entry of a
    state dict, directly or through a local name bound to the attribute
    (ext = st["q"].ext_dims; ext(m, n, g))."""
    pkg = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
           and isinstance(node.value, ast.Call)
           and getattr(node.value.func, "id", None) == "package"
           for t in node.targets}

    def is_package(node):
        if isinstance(node, ast.Subscript):
            node = node.slice
            return isinstance(node, ast.Constant) and node.value in pkg
        return isinstance(node, ast.Name) and node.id in pkg

    aliases = {t.id: node.value.attr for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute)
               and is_package(node.value.value) for t in node.targets}
    calls = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and is_package(f.value):
            calls.add((f.attr, len(node.args)))
        elif isinstance(f, ast.Name) and f.id in aliases:
            calls.add((aliases[f.id], len(node.args)))
    return calls


def _workload_inputs(tree):
    """ORDER_INPUTS and EXT_INPUTS, evaluated from the file's top-level
    function definitions and those two assignments alone: importing the
    file would import its `oracles`, a name tests/ has too."""
    keep = [node for node in tree.body if isinstance(node, ast.FunctionDef)
            or isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("ORDER_INPUTS", "EXT_INPUTS")
                for t in node.targets)]
    ns = {}
    exec(compile(ast.Module(body=keep, type_ignores=[]), str(WORKLOADS_PY),
                 "exec"), ns)
    return ns["ORDER_INPUTS"] + ns["EXT_INPUTS"]


def test_every_workload_call_binds():
    """Each package name the workloads call exists and accepts the
    positional arguments they pass, the constructors of the order-search
    and ext-sweep inputs with their argument tuples among them."""
    tree = ast.parse(WORKLOADS_PY.read_text(), filename=str(WORKLOADS_PY))
    calls = _workload_calls(tree)
    assert calls >= {("verify_paper_example", 3), ("search_orders", 2),
                     ("canonical_test_set", 1), ("ext_dims", 3),
                     ("all_example_ids", 0)}
    inputs = _workload_inputs(tree)
    assert {ctor for _, ctor, _, _ in inputs} == {
        "nakayama_from_kupisch", "bnlambda_family"}
    unbound = []
    for name, args in sorted(calls) + [(c, a) for _, c, a, _ in inputs]:
        fn = getattr(quiverhom, name, None)
        try:
            inspect.signature(fn).bind(
                *(args if isinstance(args, tuple) else (None,) * args))
        except (TypeError, ValueError):
            unbound.append((name, args))
    assert unbound == []


def test_representation_takes_the_arguments_the_tracer_reads():
    from quiverhom.modules import Representation
    want = inspect.signature(_spans()._validates)
    got = inspect.signature(Representation.__init__)
    assert list(got.parameters) == list(want.parameters)
    assert got.parameters["validate"].default is True


def test_every_bound_defaults_to_64():
    from quiverhom.homology import mueller_domdim
    assert inspect.signature(mueller_domdim).parameters["bound"].default == 64
    defaults = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        mod = importlib.import_module("quiverhom." + path.stem)
        for fname, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                p = inspect.signature(fn).parameters.get("bound")
                if p is not None and p.default is not p.empty:
                    defaults[mod.__name__ + "." + fname] = p.default
    assert defaults and set(defaults.values()) == {64}, defaults


def _takes_bound(fn):
    a = fn.args
    return any(p.arg == "bound" for p in a.posonlyargs + a.args + a.kwonlyargs)


def _passes_bound(call):
    values = call.args + [k.value for k in call.keywords]
    return any(k.arg == "bound" for k in call.keywords) or any(
        isinstance(v, ast.Name) and v.id == "bound" for v in values)


def test_every_bound_is_passed_on():
    """A def or lambda that takes bound passes it, by position or keyword,
    to every package function it calls that also takes one; a call that
    drops it computes at the default bound instead of the caller's.
    Dunder callees such as super().__init__ are not package functions."""
    trees = [(path.name, ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py"))]
    takers = {fn.name for _, tree in trees for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and _takes_bound(fn) and not fn.name.startswith("__")}
    dropped = set()
    for name, tree in trees:
        for fn in ast.walk(tree):
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)) and _takes_bound(fn)):
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                callee = f.id if isinstance(f, ast.Name) else \
                    getattr(f, "attr", None)
                if callee in takers and not _passes_bound(call):
                    dropped.add((name, call.lineno, callee))
    assert sorted(dropped) == []


def _makes_dim(node):
    """A Dim.exact/at_least/infinite(...) call, or a tuple holding one."""
    if isinstance(node, ast.Tuple):
        return any(_makes_dim(e) for e in node.elts)
    f = getattr(node, "func", None)
    return isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
        and f.value.id == "Dim" and f.attr in ("exact", "at_least", "infinite")


def test_no_dim_is_compared_with_eq():
    """A computed dimension is settled by Dim.geq, leq or eq, which refuse
    a value the bound cut off; == against a made Dim reads that value as
    a plain mismatch.  No package == or != has a Dim.exact/at_least/
    infinite(...) call, or a tuple holding one, on either side."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                    and any(map(_makes_dim, [node.left] + node.comparators)):
                found.append((path.name, node.lineno))
    assert found == []


def test_only_the_props_battery_draws_at_random():
    """Only verify.py (the props-core battery of random matrices) imports
    random, and no package file names the constants of a seeded search:
    decompose and Algebra.symmetric_form each decide over a finite
    candidate list."""
    importers, searchers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported = {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported = {node.module}
            else:
                imported = set()
            if "random" in imported:
                importers.add(path.name)
            # a name read or assigned (ast.Name) or imported (ast.alias)
            if {getattr(node, "id", None), getattr(node, "name", None)} & {
                    "SEARCH_BUDGET", "SEARCH_SEED"}:
                searchers.add(path.name)
    assert importers == {"verify.py"}
    assert searchers == set()
