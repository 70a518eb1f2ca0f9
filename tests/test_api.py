"""The names the benchmark's tracer wraps, and the library's one default
bound.

perfbench/spans.py wraps package functions and methods by name from
outside the package, so renaming or deleting one breaks `--trace 1`
without failing any computation: these tests hold the package to the
names and the Representation signature that file reads."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import quiverhom

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
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
