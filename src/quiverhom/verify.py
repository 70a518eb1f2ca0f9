"""Registry of recorded benchmark scenarios behind the verify-paper
command.  Every id rebuilds its scenario from scratch, recomputes the
values and compares them with the recorded expectations; any mismatch
fails the whole report.  Dim settles every computed dimension, so a value
the bound cut off refuses the id with BoundExceeded and never fails it."""
import math
import random

from .algebra import (
    bnlambda_family, nakayama_from_kupisch, symmetric_chain_family,
)
from .catalog import (
    endo_quiver_construction, klein_endo_algebra, klein_module_pair,
    verify_endo_presentation,
)
from .errors import BoundExceeded, UnknownExampleId
from .homology import (
    cosyzygy, ext_dim, ext_dims, ext_dims_proj, injective_term_vertices,
    is_projective, mueller_domdim, projective_resolution, syzygy,
)
from .invariants import (
    algebra_dominant_dimension, all_uniserial_quotients,
    auslander_gorenstein_parameter, canonical_test_set, codominant_dimension,
    dominant_dimension, gendo_gorenstein_check, global_dimension,
    gorenstein_dimension, injective_dimension, injective_projective_vertices,
    projective_dimension, verify_dom_gproj,
)
from .linalg import Matrix, kernel_vectors, left_kernel, rank, solve_linear
from .modules import (
    decompose, direct_sum, dualize, iso_test, projective_rep, regular_rep,
    same_add_closure, simple_rep, uniserial_quotient,
)
from .relar import omega_approximation, relative_ar_sequence
from .stratify import (
    characteristic_cotilting, characteristic_tilting, classify_stratification,
    filtration_test, search_orders, tilting_conjecture_report,
    verify_duality_consequences,
)
from .values import Dim


def _agrees(got, expected):
    """got equals expected, element by element in tuples; a Dim is settled
    by Dim.eq against the exact Dim expected."""
    if isinstance(expected, tuple):
        return all(map(_agrees, got, expected))
    if isinstance(expected, Dim):
        return got.eq(expected.n)
    return got == expected


class Checks:
    """Accumulates named comparisons for one verification report."""

    def __init__(self):
        self.rows = []

    def expect(self, name, got, expected):
        ok = _agrees(got, expected)
        self.rows.append({"check": name, "expected": expected, "got": got,
                          "ok": ok})
        return ok

    def hold(self, name, ok, detail=None):
        row = {"check": name, "ok": bool(ok)}
        if detail is not None:
            row["detail"] = detail
        self.rows.append(row)
        return ok

    @property
    def passed(self):
        return all(r["ok"] for r in self.rows)

    def report(self, example_id):
        return {"id": example_id, "pass": self.passed, "checks": self.rows}


def _serial_tower(n, bound):
    """Cyclic Nakayama tower: both headline dimensions equal the vertex
    count, one order is quasi-hereditary, and the standard/costandard
    filtration classes match the dominant/codominant ones."""
    c = Checks()
    a = nakayama_from_kupisch([2] * (n - 1) + [3])
    c.expect("gldim", global_dimension(a, bound), Dim.exact(n))
    c.expect("domdim", algebra_dominant_dimension(a, bound), Dim.exact(n))
    order = tuple(range(1, n)) + (0,)
    st = classify_stratification(a, order)
    c.hold("quasi-hereditary at the rotated order", st.quasi_hereditary)
    uni = all_uniserial_quotients(a)
    c.expect("indecomposable count", len(uni), 2 * (n - 1) + 3)
    c.hold("standard filtration = dominant class", all(
        filtration_test(u, "delta", st)[0]
        == dominant_dimension(u, bound).geq(1) for _, u in uni))
    c.hold("costandard filtration = codominant class", all(
        filtration_test(u, "nabla", st)[0]
        == codominant_dimension(u, bound).geq(n - 1) for _, u in uni))
    return c


def _gorenstein_serial(bound):
    c = Checks()
    a = nakayama_from_kupisch([4, 5, 5])
    right, left, gor = gorenstein_dimension(a, bound)
    c.expect("gordim", (right, left, gor),
             (Dim.exact(2), Dim.exact(2), True))
    c.expect("domdim", algebra_dominant_dimension(a, bound), Dim.exact(2))
    g = global_dimension(a, bound)
    c.hold("gldim infinite with periodicity certificate",
           g.eq(math.inf) and g.period is not None, detail=str(g))
    rows = search_orders(a, bound)
    c.hold("no standardly stratified order", len(rows) == 6 and not any(
        r["standardly_stratified"] for r in rows))
    out = verify_dom_gproj(a, testset=all_uniserial_quotients(a), bound=bound)
    c.expect("dominant class = Gorenstein class on all indecomposables",
             (out["r"], len(out["modules"]), out["agree"]), (2, 14, True))
    return c


def _acyclic_serial(bound):
    c = Checks()
    a = nakayama_from_kupisch([3, 4, 4])
    c.expect("gldim", global_dimension(a, bound), Dim.exact(4))
    c.expect("domdim", algebra_dominant_dimension(a, bound), Dim.exact(4))
    rows = search_orders(a, bound)
    c.hold("no quasi-hereditary order", len(rows) == 6 and not any(
        r["quasi_hereditary"] for r in rows))
    return c


def _klein_gendo(bound):
    c = Checks()
    a, xa = klein_module_pair()
    c.hold("second syzygy of the loop submodule is itself",
           iso_test(syzygy(xa, 2), xa).is_iso)
    c.expect("generator self-orthogonality gap",
             gendo_gorenstein_check(xa, bound), 2)
    pair = direct_sum([regular_rep(a), xa])
    c.expect("endo dominant dimension via hom-vanishing",
             mueller_domdim(pair, bound), Dim.exact(2))
    b = klein_endo_algebra()
    cert = verify_endo_presentation(b)
    c.expect("endo ring dimension", (b.dim, cert["hom_dim"], cert["rank"]),
             (10, 10, 10))
    st = classify_stratification(b, (1, 2), duality_asserted=True)
    c.hold("properly stratified with duality", st.properly_stratified)
    out = verify_duality_consequences(st, bound=bound)
    c.expect("proper filtration = dominant = Gorenstein class",
             (out["m"], out["gordim"], out["agree"]), (1, 2, True))
    conj = tilting_conjecture_report(st, bound)
    c.expect("tilting/cotilting consistency", conj["verdict"],
             "conjecture consistent")
    return c


def _serial_pair_d1(bound):
    c = Checks()
    a = nakayama_from_kupisch([2, 3])
    res = relative_ar_sequence(simple_rep(a, 1), 1, bound)
    c.hold("sequence determinate", res.determinate and res.ext1_dim == 1)
    c.hold("left term", iso_test(res.translate, projective_rep(a, 0)).is_iso)
    c.hold("middle term", iso_test(res.middle, projective_rep(a, 1)).is_iso)
    return c


def _serial_pair_d2(bound):
    c = Checks()
    a = nakayama_from_kupisch([4, 5])

    def u(v, k):
        return uniserial_quotient(a, v, k)
    for family, m, left, middle in (
            ("first", u(0, 2), u(1, 3), [u(1, 1), u(0, 4)]),
            ("second", u(1, 3), u(0, 4), [u(1, 5), u(0, 2)])):
        res = relative_ar_sequence(m, 1, bound)
        c.hold("%s family determinate" % family, res.determinate)
        c.hold("%s family left term" % family,
               iso_test(res.translate, left).is_iso)
        c.hold("%s family middle term" % family,
               iso_test(res.middle, direct_sum(middle)).is_iso)
    return c


def _serial_pair_parity(bound):
    c = Checks()
    for kup in ([2, 3], [4, 5], [6, 7]):
        a = nakayama_from_kupisch(kup)
        c.hold("parity rule on %s" % (kup,), all(
            dominant_dimension(uniserial_quotient(a, i, k), bound).geq(1)
            == ((i - k) % 2 == 0)
            for i, cap in enumerate(kup) for k in range(1, cap + 1)))
    return c


def _two_way_zero_twist(bound):
    c = Checks()
    a = bnlambda_family(3, (0,))
    c.expect("domdim", algebra_dominant_dimension(a, bound), Dim.exact(0))
    return c


def _two_way_tower(n, bound):
    c = Checks()
    b = bnlambda_family(n, tuple([1] * (n - 2)))
    c.expect("domdim", algebra_dominant_dimension(b, bound),
             Dim.exact(2 * n - 2))
    c.expect("gldim", global_dimension(b, bound), Dim.exact(2 * n - 2))
    chain = symmetric_chain_family(n)
    s = simple_rep(chain, n)
    exts = ext_dims(s, s, 2 * n - 1)
    c.hold("boundary simple self-extension gap over the chain",
           all(e == 0 for e in exts[1:2 * n - 1]) and exts[2 * n - 1] != 0,
           detail=exts[1:])
    st = classify_stratification(b, tuple(range(1, n + 1)),
                                 duality_asserted=True)
    c.hold("quasi-hereditary with duality", st.quasi_hereditary)
    t = characteristic_tilting(st, bound)
    c.expect("tilting projective dimension", t.projdim, n - 1)
    pins = [projective_rep(b, v) for v in injective_projective_vertices(b)]
    c.hold("tilting = faithful projective-injective plus one simple",
           same_add_closure(t.summands, pins + [simple_rep(b, 1)]))
    out = verify_duality_consequences(st, bound=bound)
    c.expect("gldim is twice the tilting projective dimension",
             out.get("gldim"), 2 * (n - 1))
    m = n - 1
    c.hold("standard filtration = dominant class = projective class", all(
        filtration_test(x, "delta", st)[0]
        == dominant_dimension(x, bound).geq(m)
        == projective_dimension(x, bound).leq(m)
        for _, x in canonical_test_set(b, depth=min(m, 2))))
    return c


def _chain_endo(n, bound):
    c = Checks()
    base = symmetric_chain_family(n - 1)
    soc = n - 1
    out = endo_quiver_construction(base, [soc], bound)
    c.expect("dimension grows by three", out.dim, base.dim + 3)
    got = algebra_dominant_dimension(out, bound)
    pair = direct_sum([regular_rep(base), simple_rep(base, soc)])
    c.expect("endo dominant dimension = hom-vanishing bound", got,
             mueller_domdim(pair, bound))
    c.expect("value", got, Dim.exact(2 * n - 2))
    return c


def _exact_core_battery(seed):
    rng = random.Random(seed)
    c = Checks()
    kernel_ok = rank_ok = solve_ok = True
    for _ in range(100):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(nc)]
                              for _ in range(nr)])
        lk = left_kernel(m)
        if lk.nrows and not (lk @ m).is_zero():
            kernel_ok = False
        rk = kernel_vectors(m)
        if rk and not (Matrix(rk, len(rk), nc) @ m.transpose()).is_zero():
            kernel_ok = False
        if rank(m) != rank(m.transpose()):
            rank_ok = False
        x0 = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(nr)]
                               for _ in range(2)])
        b = x0 @ m
        x = solve_linear(m.transpose(), b.transpose())
        if x is None or x.transpose() @ m != b:
            solve_ok = False
    c.hold("kernel bases multiply to zero", kernel_ok)
    c.hold("rank equals transpose rank", rank_ok)
    c.hold("solver reproduces solvable right-hand sides", solve_ok)
    return c


def _ext_algebras():
    """The three algebras of the Ext batteries, built afresh."""
    return (nakayama_from_kupisch([2, 2, 3]), nakayama_from_kupisch([4, 5]),
            symmetric_chain_family(2))


def _simple_ext_support():
    """Nonvanishing of Ext against a simple is read off the resolution
    terms: covers on one side, envelopes on the other."""
    c = Checks()
    for a in _ext_algebras():
        ok = True
        count = 0
        mods = [(nm, m) for nm, m in canonical_test_set(a)
                if not m.is_zero() and len(decompose(m)) == 1]
        for _, m in mods:
            res = projective_resolution(m)
            for l in range(7):
                top = set(res.term(l).proj_summand_vertices)
                soc = set(injective_term_vertices(m, l))
                for v in a.quiver.vertices:
                    s = simple_rep(a, v)
                    if (ext_dim(m, s, l) != 0) != (v in top):
                        ok = False
                    if (ext_dim(s, m, l) != 0) != (v in soc):
                        ok = False
                    count += 2
        c.hold("support matches resolution terms (%d vertices)"
               % len(a.quiver.vertices), ok, detail=count)
    return c


def _dominant_lower_bound(bound):
    """Resolution segments as long exact sequences: the end term's
    dominant dimension is bounded below through the segment, floors of
    cut-off values only weakening it; floors that leave it vacuous refuse."""
    c = Checks()
    algebras = [nakayama_from_kupisch([2, 2, 3]),
                nakayama_from_kupisch([4, 5, 5]),
                bnlambda_family(3, (1,)), symmetric_chain_family(2)]
    ok = True
    checked = 0
    floored = False
    for a in algebras:
        for _, mod in canonical_test_set(a, depth=1):
            if mod.is_zero() or is_projective(mod):
                continue
            res = projective_resolution(mod)
            for m in (1, 2, 3):
                ys = [syzygy(mod, m)] + [res.term(m - 1 - j)
                                         for j in range(m)]
                vals = []
                for j, y in zip(range(-1, m), ys):
                    if y.is_zero():
                        continue
                    d = dominant_dimension(y, bound)
                    if d.is_infinite:
                        continue
                    floored |= not d.is_exact
                    vals.append(d.n + j)
                if not vals:
                    continue
                rhs = min(vals) - m + 1
                if rhs <= 0:
                    continue
                checked += 1
                if not dominant_dimension(mod, bound).geq(rhs):
                    ok = False
    if not checked and floored:
        raise BoundExceeded("bound %d cut dominant dimensions off and left "
                            "the segment battery vacuous" % bound, bound)
    c.hold("segment inequality", ok, detail=checked)
    c.hold("battery nonvacuous", checked > 0, detail=checked)
    return c


def _ext_agreement():
    c = Checks()
    for a in _ext_algebras():
        mods = [m for _, m in canonical_test_set(a) if not m.is_zero()][:8]
        agree = shift = True
        for m in mods:
            for n in mods:
                dims = ext_dims_proj(m, n, 6)
                if dims != ext_dims_proj(dualize(n), dualize(m), 6):
                    agree = False
                om = syzygy(m, 1)
                for i in range(1, 6):
                    expected = 0 if om.is_zero() else ext_dim(om, n, i)
                    if dims[i + 1] != expected:
                        shift = False
        c.hold("projective-side = two-sided (%d modules)" % len(mods), agree)
        c.hold("dimension shift by one syzygy", shift)
    return c


def _parameter_cases():
    """Algebras with their Auslander-Gorenstein parameters, built afresh."""
    return [(nakayama_from_kupisch([4, 5, 5]), 2),
            (nakayama_from_kupisch([2, 2, 3]), 3),
            (nakayama_from_kupisch([3, 4, 4]), 4),
            (bnlambda_family(3, (1,)), 4)]


def _syzygy_image(bound):
    """Below the dominant dimension, membership in the syzygy-image
    category is decided by the dominant dimension; witnessed by
    reconstructing each module from its cosyzygy."""
    c = Checks()
    ok_back = ok_forth = True
    checked = 0
    for a, r in _parameter_cases():
        c.expect("certified parameter", auslander_gorenstein_parameter(
            a, bound), r)
        for _, mod in canonical_test_set(a, depth=2):
            if mod.is_zero():
                continue
            for i in range(1, r + 1):
                y = syzygy(mod, i)
                if not y.is_zero() and not dominant_dimension(
                        y, bound).geq(i):
                    ok_forth = False
            if is_projective(mod):
                continue
            nonproj = [s for s in decompose(mod) if not is_projective(s)]
            for i in range(1, r + 1):
                if not dominant_dimension(mod, bound).geq(i):
                    continue
                core, _ = omega_approximation(mod, i)
                checked += 1
                if not same_add_closure(core, nonproj):
                    ok_back = False
    c.hold("syzygies gain dominant dimension", ok_forth)
    c.hold("nonprojective part returns through the cosyzygy", ok_back,
           detail=checked)
    c.hold("battery nonvacuous", checked > 0, detail=checked)
    return c


def _cosyzygy_class(bound):
    c = Checks()
    for a, r in _parameter_cases():
        reg = regular_rep(a)
        ok = True
        for i in range(1, r):
            for s in decompose(cosyzygy(reg, i)):
                ok &= all(f(s, bound).eq(k) for f, k in (
                    (projective_dimension, i), (injective_dimension, r - i),
                    (dominant_dimension, r - i), (codominant_dimension, i)))
        c.hold("cosyzygy summand dimensions at parameter %d" % r, ok)
    return c


def _stratified_gorenstein(bound):
    c = Checks()
    instances = [
        ("endo of the two-loop pair", klein_endo_algebra(), (1, 2)),
        ("two-way chain n=2", bnlambda_family(2, ()), (1, 2)),
        ("two-way chain n=3", bnlambda_family(3, (1,)), (1, 2, 3)),
        ("two-way chain n=4", bnlambda_family(4, (1, 1)), (1, 2, 3, 4)),
    ]
    for name, a, order in instances:
        st = classify_stratification(a, order, duality_asserted=True)
        if not c.hold("%s: properly stratified" % name,
                      st.properly_stratified):
            continue
        t = characteristic_tilting(st, bound)
        ct = characteristic_cotilting(st, bound)
        if not c.hold("%s: tilting = cotilting" % name,
                      same_add_closure(t.summands, ct.summands)):
            continue
        right, left, gor = gorenstein_dimension(a, bound)
        c.expect("%s: Gorenstein dimension is twice the tilting projective "
                 "dimension" % name, (right, left, gor),
                 (Dim.exact(2 * t.projdim), Dim.exact(2 * t.projdim), True))
    return c


REGISTRY = {
    "ex3.1-n3": lambda bound, seed: _serial_tower(3, bound),
    "ex3.1-n4": lambda bound, seed: _serial_tower(4, bound),
    "ex3.1-n5": lambda bound, seed: _serial_tower(5, bound),
    "ex3.2": lambda bound, seed: _gorenstein_serial(bound),
    "ex3.3": lambda bound, seed: _acyclic_serial(bound),
    "ex3.5": lambda bound, seed: _klein_gendo(bound),
    "ex3.6-d1": lambda bound, seed: _serial_pair_d1(bound),
    "ex3.6-d2": lambda bound, seed: _serial_pair_d2(bound),
    "ex3.6-parity": lambda bound, seed: _serial_pair_parity(bound),
    "prop4.4-B3lambda0": lambda bound, seed: _two_way_zero_twist(bound),
    "thm4.7-n2": lambda bound, seed: _two_way_tower(2, bound),
    "thm4.7-n3": lambda bound, seed: _two_way_tower(3, bound),
    "thm4.7-n4": lambda bound, seed: _two_way_tower(4, bound),
    "lemma4.3-n3": lambda bound, seed: _chain_endo(3, bound),
    "lemma4.3-n4": lambda bound, seed: _chain_endo(4, bound),
    "props-core": lambda bound, seed: _exact_core_battery(seed),
    "props-benson": lambda bound, seed: _simple_ext_support(),
    "props-xidom": lambda bound, seed: _dominant_lower_bound(bound),
    "props-ext": lambda bound, seed: _ext_agreement(),
    "props-omega": lambda bound, seed: _syzygy_image(bound),
    "props-quadruple": lambda bound, seed: _cosyzygy_class(bound),
    "props-mazov": lambda bound, seed: _stratified_gorenstein(bound),
}


def all_example_ids():
    return list(REGISTRY)


def verify_paper_example(example_id, bound=64, seed=0):
    """Pass/fail report for one recorded benchmark id."""
    if example_id not in REGISTRY:
        raise UnknownExampleId(
            "unknown id %r; known ids: %s"
            % (example_id, ", ".join(all_example_ids())))
    checks = REGISTRY[example_id](bound, seed)
    report = checks.report(example_id)
    report["bound"] = bound
    report["seed"] = seed
    return report
