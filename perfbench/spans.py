"""Per-layer tracing from outside the package.

A Tracer replaces each traced function or method with a wrapper that
records a span (name, parent span, start, end) and the layer's counters.
Modules bind names with `from .linalg import rref`, so a function is
replaced in every quiverhom module namespace that holds it, not only where
it is defined.  Spans stay in memory until `write_spans`; self time (a
span's duration minus the spans it encloses) is summed as spans close.
"""
import gzip
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# -- counters read around calls ---------------------------------------------

def _validates(self, algebra, dims, mats, validate=True):
    return validate


def _rref_before(tr, mat):
    tr.counts["linalg.rref.cells"] += mat.nrows * mat.ncols


def _quotient_before(tr, alg, killed):
    killed = frozenset(killed)
    if killed and killed != set(alg.quiver.vertices) \
            and killed not in alg._quotients:
        tr.counts["algebra.quotient.built"] += 1


def _resolution_before(tr, m):
    if "projres" in m._cache:
        tr.counts["homology.resolution.hits"] += 1


def _ext_before(tr, m, n, imax):
    entry = m._cache.get("extco", {}).get(id(n))
    if entry is not None and len(entry[1]) > imax:
        tr.counts["homology.ext.hits"] += 1


def _iso_after(tr, out):
    if out.kind == "inconclusive":
        tr.counts["modules.iso_test.inconclusive"] += 1


def _decompose_after(tr, out):
    # decompose recurses through the wrapper; count only outermost results
    if not any(tr.names[s[3]] == "modules.decompose" for s in tr.stack):
        tr.counts["modules.decompose.summands"] += len(out)


def _orders_after(tr, out):
    tr.counts["stratify.orders.rows"] += len(out)


# (span, module, owner or None for a module-level function, attribute,
#  before(tr, *args) or None, after(tr, result) or None)
SPANS = [
    ("linalg.rref", "linalg", None, "rref", _rref_before, None),
    ("linalg.matmul", "linalg", "Matrix", "__matmul__", None, None),
    ("linalg.solve", "linalg", None, "solve_linear", None, None),
    ("linalg.minpoly", "linalg", None, "minimal_polynomial", None, None),
    ("algebra.build", "algebra", None, "build_algebra", None, None),
    ("algebra.quotient", "algebra", "BoundQuiverAlgebra",
     "quotient_by_idempotent_ideal", _quotient_before, None),
    # only constructions that validate the relations count as spans
    ("modules.validate", "modules", "Representation", "__init__", None, None),
    ("modules.hom_basis", "modules", None, "hom_basis", None, None),
    ("modules.iso_test", "modules", None, "iso_test", None, _iso_after),
    ("modules.decompose", "modules", None, "decompose", None,
     _decompose_after),
    ("modules.kernel", "modules", None, "kernel_of_map", None, None),
    ("homology.cover", "homology", None, "projective_cover", None, None),
    ("homology.resolution", "homology", None, "projective_resolution",
     _resolution_before, None),
    ("homology.ext", "homology", None, "ext_dims_proj", _ext_before, None),
    ("invariants.dimension", "invariants", None, "dominant_dimension",
     None, None),
    ("invariants.dimension", "invariants", None, "codominant_dimension",
     None, None),
    ("invariants.dimension", "invariants", None, "projective_dimension",
     None, None),
    ("invariants.dimension", "invariants", None, "injective_dimension",
     None, None),
    ("invariants.testset", "invariants", None, "canonical_test_set",
     None, None),
    ("stratify.classify", "stratify", None, "classify_stratification",
     None, None),
    ("stratify.filtration", "stratify", None, "filtration_test", None, None),
    ("stratify.orders", "stratify", None, "search_orders", None,
     _orders_after),
    ("stratify.tilting", "stratify", None, "characteristic_tilting",
     None, None),
    ("stratify.tilting", "stratify", None, "characteristic_cotilting",
     None, None),
    ("relar.sequence", "relar", None, "relative_ar_sequence", None, None),
    ("dsl.parse", "dsl", None, "parse_algebra_dsl", None, None),
    ("reports.emit", "reports", None, "emit_report", None, None),
    ("cli.run", "cli", None, "main", None, None),
]


class Tracer:
    """Spans and counters for one traced run; `install` wraps, `uninstall`
    restores every original binding."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # [span index, start, time in child spans, name id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._undo = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, before, after, validating_init):
        tr = self
        nid = self._name_id(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            if validating_init and not _validates(*args, **kwargs):
                return fn(*args, **kwargs)
            if before is not None:
                before(tr, *args, **kwargs)
            t0 = perf_counter()
            idx = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_start.append(t0)
            tr.span_end.append(0.0)
            frame = [idx, t0, 0.0, nid]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.span_end[idx] = t1
                dur = t1 - t0
                tr.self_s[nid] += dur - frame[2]
                tr.total_s[nid] += dur
                tr.calls[nid] += 1
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(tr, out)
            return out

        return wrapper

    def install(self):
        """Wrap every entry of SPANS in the imported quiverhom package."""
        mods = [m for k, m in list(sys.modules.items())
                if k == "quiverhom" or k.startswith("quiverhom.")]
        for name, modname, owner, attr, before, after in SPANS:
            mod = sys.modules.get("quiverhom." + modname)
            if mod is None:  # cli is imported only by the command line
                continue
            if owner is not None:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(
                    name, orig, before, after,
                    owner == "Representation"))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, before, after, False)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo = []

    # -- results ---------------------------------------------------------

    def totals(self):
        """Calls, self and total seconds per span name, plus the counters;
        a JSON-ready dict that `merge` can add up across processes."""
        return {
            "calls": {self.names[i]: c for i, c in self.calls.items()},
            "self_s": {self.names[i]: s for i, s in self.self_s.items()},
            "total_s": {self.names[i]: s for i, s in self.total_s.items()},
            "counts": dict(self.counts),
        }

    def write_spans(self, path):
        """Gzipped text: one `# id name` line per span name, then one
        `name_id parent start end` line per span (parent -1 at the root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                fh.write("# %d %s\n" % (i, name))
            for rec in zip(self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                fh.write("%d %d %.9f %.9f\n" % rec)


def merge(totals_list):
    out = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(),
           "counts": Counter()}
    for t in totals_list:
        for key in out:
            out[key].update(t[key])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tot, import_s, sympy_s, overhead_s):
    """The benchmark's per-layer metrics from merged totals.  A ratio whose
    base is zero reads 0."""
    calls, self_s, counts = tot["calls"], tot["self_s"], tot["counts"]
    m = {}

    def span(name, with_self=True):
        m[name + ".calls"] = (calls.get(name, 0), "count")
        if with_self:
            m[name + ".self_s"] = (self_s.get(name, 0.0), "s")

    span("linalg.rref")
    m["linalg.rref.cells"] = (counts.get("linalg.rref.cells", 0), "count")
    span("linalg.matmul")
    span("linalg.solve")
    span("linalg.minpoly", with_self=False)
    span("algebra.build")
    span("algebra.quotient")
    m["algebra.quotient.built"] = (counts.get("algebra.quotient.built", 0),
                                   "count")
    span("modules.validate")
    span("modules.hom_basis")
    span("modules.iso_test")
    iso = calls.get("modules.iso_test", 0)
    inc = counts.get("modules.iso_test.inconclusive", 0)
    m["modules.iso_test.inconclusive"] = (inc, "count")
    m["modules.iso_test.certain_ratio"] = (_ratio(iso - inc, iso), "ratio")
    span("modules.decompose")
    m["modules.decompose.summands"] = (
        counts.get("modules.decompose.summands", 0), "count")
    span("modules.kernel")
    span("homology.cover")
    m["homology.resolution.hit_ratio"] = (_ratio(
        counts.get("homology.resolution.hits", 0),
        calls.get("homology.resolution", 0)), "ratio")
    span("homology.ext")
    m["homology.ext.hit_ratio"] = (_ratio(
        counts.get("homology.ext.hits", 0), calls.get("homology.ext", 0)),
        "ratio")
    span("invariants.dimension")
    m["invariants.testset.self_s"] = (self_s.get("invariants.testset", 0.0),
                                      "s")
    span("stratify.classify")
    span("stratify.filtration")
    m["stratify.orders.rows"] = (counts.get("stratify.orders.rows", 0),
                                 "count")
    m["stratify.tilting.self_s"] = (self_s.get("stratify.tilting", 0.0), "s")
    span("relar.sequence")
    m["cli.import_s"] = (import_s, "s")
    m["cli.import.sympy_s"] = (sympy_s, "s")
    m["cli.run_s"] = (tot["total_s"].get("cli.run", 0.0), "s")
    m["dsl.parse.self_s"] = (self_s.get("dsl.parse", 0.0), "s")
    m["reports.emit.self_s"] = (self_s.get("reports.emit", 0.0), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def sympy_import_s(stderr_text):
    """Cumulative seconds of the top `sympy` import in `-X importtime`
    output; 0 when sympy was not imported."""
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "sympy":
            return int(parts[1]) / 1e6
    return 0.0
