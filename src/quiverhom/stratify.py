"""Stratifications of a bound quiver algebra along a vertex order.

Builds the four families of standard-type modules, decides filtration
membership by the trace recursion, classifies orders (standardly and
properly stratified, quasi-hereditary), constructs and certifies the
characteristic tilting module, and provides the extensional verifiers for
the tilting-orthogonality and duality consequences.  Also contains the
quiver surgery that presents the endomorphism algebra of a symmetric
algebra extended by socle simples.
"""
from __future__ import annotations

from itertools import permutations
from math import factorial

from .algebra import (
    Quiver, build_algebra, combination_relation, monomial_relation,
)
from .errors import (
    CertificateFailure, NotApplicable, NotAuslanderGorenstein, NotStratified,
    NotTilting, PreconditionFailed, TooManyVertices,
)
from .homology import (
    cosyzygy, ext1_cocycles, ext_dims, extension_from_cocycle, mueller_domdim,
)
from .invariants import (
    algebra_dominant_dimension, auslander_gorenstein_parameter,
    canonical_test_set, codominant_dimension, dominant_dimension,
    gi_dimension, global_dimension, gorenstein_dimension, gp_dimension,
    injective_dimension, injective_projective_vertices, projective_dimension,
)
from .linalg import hstack
from .modules import (
    ModuleMap, cokernel_of_map, decompose, direct_sum, dualize, hom_basis,
    iso_test, kernel_of_map, map_in_span, projective_rep,
    quotient_by_submodule, radical_power_rows, radical_rows, regular_rep,
    same_add_closure, simple_rep, socle_submodule, sub_representation,
    vertex_trace,
)

FAMILIES = ("delta", "deltabar", "nabla", "nablabar")


class StratData:
    """Vertex order plus the four standard-type families and, once
    classified, the stratification flags and tilting data."""

    def __init__(self, algebra, order):
        self.algebra = algebra
        self.order = tuple(order)
        self.delta = {}
        self.deltabar = {}
        self.nabla = {}
        self.nablabar = {}
        self.standardly_stratified = None
        self.delta_filtered_regular = None
        self.properly_stratified = None
        self.quasi_hereditary = None
        self.schurian = None
        self.duality_asserted = False
        self.tilting = None
        self.cotilting = None

    def flags(self):
        return {
            "standardly_stratified": self.standardly_stratified,
            "delta_filtered_regular": self.delta_filtered_regular,
            "properly_stratified": self.properly_stratified,
            "quasi_hereditary": self.quasi_hereditary,
            "schurian": self.schurian,
        }


class TiltingData:
    """Basic tilting module with its summands and certificate trail."""

    def __init__(self, module, summands, projdim, route):
        self.module = module
        self.summands = summands
        self.projdim = projdim
        self.route = route


def _standard_at(algebra, v, cut):
    """Projective at v modulo the submodule its radical generates at the
    cut vertices."""
    p = projective_rep(algebra, v)
    rad = radical_rows(p)
    gens = {w: rad[w] for w in cut if w in rad and rad[w].nrows}
    if not gens:
        return p
    _, incl = sub_representation(p, gens, close=True)
    return quotient_by_submodule(p, incl)[0]


def standard_modules(a, order):
    """StratData with the families filled: standards and proper standards
    on the right, and the costandards as duals of the opposite side's
    (proper) standards."""
    order = tuple(order)
    if sorted(order) != sorted(a.quiver.vertices):
        raise NotApplicable("order must be a permutation of the vertices")
    strat = StratData(a, order)
    op = a.opposite_algebra()
    for pos, v in enumerate(order):
        higher = order[pos + 1:]
        strat.delta[v] = _standard_at(a, v, higher)
        strat.deltabar[v] = _standard_at(a, v, higher + (v,))
        strat.nabla[v] = dualize(_standard_at(op, v, higher))
        strat.nablabar[v] = dualize(_standard_at(op, v, higher + (v,)))
    return strat


def _top_proper_standard(algebra, t):
    key = ("topdbar", t)
    if key not in algebra._cache:
        algebra._cache[key] = _standard_at(algebra, t, (t,))
    return algebra._cache[key]


def _peel(cur, alg, t, proper):
    """One step of the trace recursion at the top vertex t: (k, quotient)
    with k the multiplicity of the layer and quotient cur modulo the trace
    of t, over cur's algebra; None when the layer fails.  alg is the
    algebra whose projective (or proper standard) at t sizes the layer.
    Both layers are decided by counting dimensions.

    The trace u = cur e_t A is generated by its component at t, so its top
    is k = dim u_t - dim (rad u)_t copies of the simple at t, and its
    projective cover P_t^k -> u is onto.  Hence u is a direct sum of k
    copies of P_t iff dim u = k dim P_t.  The proper layer is accepted on
    the count dim u = dim(cur at t) times dim(proper standard at t), which
    forces a filtration."""
    u, incl = vertex_trace(cur, t)
    if proper:
        k = cur.dims[t]
        d = sum(_top_proper_standard(alg, t).dims.values())
    else:
        k = u.dims[t] - radical_rows(u)[t].nrows
        d = sum(projective_rep(alg, t).dims.values())
    if sum(u.dims.values()) != k * d:
        return None
    return k, quotient_by_submodule(cur, incl)[0]


def _filt_core(m, algebra, order, proper):
    """Trace recursion from the top of the order: peel the top vertex t
    off m, repeat on the quotient; the last quotient must be zero.

    The module stays over the algebra A throughout.  Once the vertices S
    above t are peeled off it is annihilated by Ae_SA, so its trace at t,
    the radical of that trace and the quotient are the same over A as over
    A/Ae_SA; _peel reads the layer size from that quotient algebra, the
    one _regular_step uses, cached per S."""
    cur = m
    mult = {}
    for idx in range(len(order) - 1, -1, -1):
        t = order[idx]
        if cur.is_zero():
            for w in order[:idx + 1]:
                mult[w] = 0
            return True, mult
        alg = algebra.quotient_by_idempotent_ideal(frozenset(order[idx + 1:]))
        step = _peel(cur, alg, t, proper)
        if step is None:
            return False, None
        mult[t], cur = step
    return (True, mult) if cur.is_zero() else (False, None)


def _regular_step(a, t, above, proper):
    """_peel at t on the regular module of A/Ae_SA, S the vertices above t.
    Peeling S off the regular module of A leaves exactly that module, so
    the step depends on (t, S) and not on the order of S.  Cached in
    a._cache as (k, quotient is zero), or None for a failed layer."""
    key = ("peel", t, above, proper)
    if key not in a._cache:
        alg = a.quotient_by_idempotent_ideal(above)
        step = _peel(regular_rep(alg), alg, t, proper)
        a._cache[key] = None if step is None else (step[0], step[1].is_zero())
    return a._cache[key]


def _regular_walk(a, order, proper):
    """Multiplicities of the trace recursion on the regular module along
    the order, from the shared steps; None at the first failing step or
    when the last quotient is nonzero."""
    mult = {}
    for idx in range(len(order) - 1, -1, -1):
        step = _regular_step(a, order[idx], frozenset(order[idx + 1:]), proper)
        if step is None:
            return None
        mult[order[idx]], last_zero = step
    return mult if last_zero else None


def _dimdict(rep):
    return {v: d for v, d in rep.dims.items() if d}


def filtration_test(m, family, strat):
    """(passes, multiplicities) for a filtration by the named family;
    multiplicities are cross-checked against the dimension vector."""
    if family not in FAMILIES:
        raise NotApplicable("unknown family %r" % (family,))
    if family in ("nabla", "nablabar"):
        probe = dualize(m)
        alg = strat.algebra.opposite_algebra()
    else:
        probe = m
        alg = strat.algebra
    fam = getattr(strat, family)
    proper = family.endswith("bar")
    ok, mult = _filt_core(probe, alg, strat.order, proper)
    if not ok:
        return False, None
    _cross_check(mult, lambda v: _dimdict(fam[v]), m)
    return True, mult


def _cross_check(mult, dims_of, m):
    """The multiplicities times the family's dimension vectors (dims_of(v)
    for the member at v) must add up to the dimension vector of m."""
    total = {}
    for v, k in mult.items():
        if not k:
            continue
        for w, d in dims_of(v).items():
            total[w] = total.get(w, 0) + k * d
    if total != _dimdict(m):
        raise CertificateFailure(
            "filtration multiplicities do not add up to the dimension vector")


def _standard_dims(a, v, cut):
    """Dimension vector of _standard_at(a, v, cut), cached in a._cache per
    (v, cut) with cut a frozenset."""
    key = ("stddims", v, cut)
    if key not in a._cache:
        a._cache[key] = _dimdict(_standard_at(a, v, cut))
    return a._cache[key]


def check_asserted_duality(a):
    """Necessary Cartan-symmetry check for an asserted simple-preserving
    duality; a failure is a contradiction, not a soft negative."""
    c = a.cartan_matrix()
    n = len(a.quiver.vertices)
    for i in range(n):
        for j in range(n):
            if c.entry(i, j) != c.entry(j, i):
                raise CertificateFailure(
                    "asserted duality contradicted: Cartan matrix is "
                    "asymmetric at (%d, %d)" % (i, j))
    return True


def _order_flags(a, order):
    """The five stratification flags of the order, from the shared steps.
    Each walk goes top-down and stops at its first failing step, as the
    trace recursion does; a regular module that passes a (proper) standard
    walk is cross-checked against the dimension vectors of the (proper)
    standard modules.  The opposite side only needs its proper walk.

    Quasi-hereditary is decided from its definition: standardly stratified
    with every End(delta(v)) a division ring.  End(delta(v)) is
    delta(v)e_v, of dimension [delta(v):L(v)], so that is the schurian
    test; then the proper standards are the standards and both walks
    agree.  No global dimension is needed, and so no bound."""
    reg = regular_rep(a)
    above = {v: frozenset(order[pos + 1:]) for pos, v in enumerate(order)}
    flags = {}
    for name, proper in (("standardly_stratified", True),
                         ("delta_filtered_regular", False)):
        mult = _regular_walk(a, order, proper)
        if mult is not None:
            _cross_check(mult, lambda v: _standard_dims(
                a, v, (above[v] | {v}) if proper else above[v]), reg)
        flags[name] = mult is not None
    op_ok = _regular_walk(a.opposite_algebra(), order, True) is not None
    ss = flags["standardly_stratified"]
    flags["properly_stratified"] = ss and op_ok
    schurian = all(_standard_dims(a, v, above[v]).get(v, 0) == 1
                   for v in order)
    flags["quasi_hereditary"] = ss and schurian
    flags["schurian"] = schurian
    return flags


def classify_stratification(a, order, bound=64, duality_asserted=False):
    """StratData with all flags decided for this order; no flag depends on
    bound."""
    strat = standard_modules(a, order)
    if duality_asserted:
        check_asserted_duality(a)
        strat.duality_asserted = True
    for name, value in _order_flags(a, strat.order).items():
        setattr(strat, name, value)
    return strat


def search_orders(a, bound=64):
    """Classification of every vertex order, lexicographically.

    Every flag is decided by walks over steps that depend only on a vertex
    t and the set S of vertices above it (see _regular_step), so the n!
    orders share n * 2^(n-1) steps per kind of walk instead of n * n!.
    The steps are cached in a._cache under ("peel", t, S, proper), on the
    opposite algebra's _cache for the opposite side; the quotient algebras
    A/Ae_SA are cached per frozenset S, at most 2^n - 2 per side; the
    standard modules' dimension vectors are cached under ("stddims", v,
    cut).  No flag depends on bound."""
    verts = sorted(a.quiver.vertices)
    if len(verts) > 8:
        raise TooManyVertices("%d vertices would need %d orders"
                              % (len(verts), factorial(len(verts))))
    out = []
    for perm in permutations(verts):
        row = {"order": perm}
        row.update(_order_flags(a, perm))
        out.append(row)
    return out


def _basic_parts(reps):
    """Indecomposable summands of the given modules with iso-duplicates
    removed."""
    basic = []
    for r in reps:
        for p in decompose(r):
            if not p.is_zero() and not any(iso_test(p, q).is_iso
                                           for q in basic):
                basic.append(p)
    return basic


def _tilting_certificate(a, strat, basic, bound):
    """Shared certificate: vertex-count summands, every summand standardly
    and proper-costandardly filtered, self-orthogonal up to the projective
    dimension.  Returns the projective dimension on success, None on a
    soft failure."""
    if len(basic) != len(a.quiver.vertices):
        return None
    for s in basic:
        if not filtration_test(s, "delta", strat)[0]:
            return None
        if not filtration_test(s, "nablabar", strat)[0]:
            return None
    pds = [projective_dimension(s, bound) for s in basic]
    if not all(p.is_exact for p in pds):
        return None
    pd = max(p.finite_value for p in pds)
    t = direct_sum(basic)
    if pd and any(ext_dims(t, t, pd)[1:]):
        return None
    return pd


def characteristic_tilting(a, strat, bound=64):
    """The characteristic tilting module of the stratified structure.

    On a certified Auslander-Gorenstein algebra the candidates are the
    projective-injectives plus a cosyzygy of the remaining projectives;
    otherwise, or when no candidate passes, iterated universal extensions
    of the standard modules are used.  Either way the result carries the
    full filtration and orthogonality certificate."""
    if strat.standardly_stratified is None:
        raise NotApplicable("classify the order before asking for a tilting")
    if not strat.standardly_stratified:
        raise NotStratified("algebra is not standardly stratified "
                            "for this order")
    try:
        r = auslander_gorenstein_parameter(a, bound)
    except NotAuslanderGorenstein:
        r = None
    if r is not None:
        got = _ag_route(a, strat, r, bound)
        if got is not None:
            return got
    return _extension_route(a, strat, bound)


def _cosyzygy_candidate(a, i):
    """Basic parts of the projective-injectives plus the i-th cosyzygy of
    the sum of the other projectives."""
    pins = injective_projective_vertices(a)
    parts = [projective_rep(a, v) for v in pins]
    rest = [projective_rep(a, v) for v in a.quiver.vertices if v not in pins]
    if rest:
        parts.append(cosyzygy(direct_sum(rest), i))
    return _basic_parts(parts)


def _ag_route(a, strat, r, bound):
    """The first cosyzygy candidate, i = 0 .. r, that passes the tilting
    certificate with projective dimension i; None when none does."""
    for i in range(r + 1):
        basic = _cosyzygy_candidate(a, i)
        if _tilting_certificate(a, strat, basic, bound) == i:
            return TiltingData(direct_sum(basic), basic, i, "cosyzygy")
    return None


def _extension_route(a, strat, bound):
    grown = []
    for pos, v in enumerate(strat.order):
        x = strat.delta[v]
        for _ in range(bound):
            grew = False
            for w in strat.order[:pos + 1]:
                cocycles = ext1_cocycles(x, strat.delta[w])
                if cocycles:
                    x = extension_from_cocycle(x, cocycles[0]).mid
                    grew = True
                    break
            if not grew:
                break
        else:
            raise CertificateFailure(
                "universal extensions at %r did not stabilize" % (v,))
        grown.append(x)
    basic = _basic_parts(grown)
    pd = _tilting_certificate(a, strat, basic, bound)
    if pd is None:
        raise CertificateFailure(
            "extension construction failed its own tilting certificate")
    return TiltingData(direct_sum(basic), basic, pd, "extension")


def characteristic_cotilting(a, strat, bound=64):
    """Dual of the characteristic tilting of the opposite order; needs a
    properly stratified algebra."""
    if strat.properly_stratified is None:
        raise NotApplicable("classify the order first")
    if not strat.properly_stratified:
        raise NotStratified("cotilting needs both sides stratified")
    op = a.opposite_algebra()
    op_strat = classify_stratification(op, strat.order, bound)
    op_t = characteristic_tilting(op, op_strat, bound)
    summands = [dualize(s) for s in op_t.summands]
    return TiltingData(direct_sum(summands), summands,
                       op_t.projdim, "dual-" + op_t.route)


def tilting_conjecture_report(a, strat, bound=64):
    """Empirical comparison for properly stratified algebras: Gorenstein
    certificate on one side, tilting = cotilting on the other.  Reports
    consistency; proves nothing."""
    t = strat.tilting or characteristic_tilting(a, strat, bound)
    c = strat.cotilting or characteristic_cotilting(a, strat, bound)
    strat.tilting, strat.cotilting = t, c
    same = same_add_closure(t.summands, c.summands)
    _, _, gor = gorenstein_dimension(a, bound)
    verdict = "conjecture consistent" if same == gor else "conjecture violated"
    return {"gorenstein": gor, "tilting_equals_cotilting": same,
            "verdict": verdict}


# -- tilting verification ---------------------------------------------------

def _factors_through(j0, h, cols, pair_homs):
    """Does the map h: x -> summand j0 factor through the kept columns?
    The factorization space is spanned by the composites of each kept
    column with the homs between the relevant summands."""
    return map_in_span(h, [g.then(phi) for j, g in cols
                           for phi in pair_homs(j, j0)])


def _min_left_approx(x, summands):
    """Left add(T)-approximation of x with no redundant target summand,
    assembled from hom bases into the indecomposable summands."""
    homs = {}

    def pair_homs(i, j):
        if (i, j) not in homs:
            homs[(i, j)] = hom_basis(summands[i], summands[j])
        return homs[(i, j)]

    cols = [(j, h) for j, s in enumerate(summands) for h in hom_basis(x, s)]
    for idx in reversed(range(len(cols))):
        j0, h = cols[idx]
        rest = cols[:idx] + cols[idx + 1:]
        if _factors_through(j0, h, rest, pair_homs):
            cols = rest
    if not cols:
        return None
    target = direct_sum([summands[j] for j, _ in cols])
    blocks = {v: hstack([h.blocks[v] for _, h in cols])
              for v in x.algebra.quiver.vertices}
    return ModuleMap(x, target, blocks, validate=False)


def _coresolve_by_add(a, summands, steps):
    """Length of a coresolution of the regular module by iterated minimal
    left approximations into the additive closure of the summands;
    NotTilting when a step fails."""
    x = regular_rep(a)
    for s in range(steps + 1):
        if x.is_zero():
            return s
        f = _min_left_approx(x, summands)
        if f is None:
            raise NotTilting("no maps into the tilting candidate at "
                             "coresolution step %d" % s)
        ker, _ = kernel_of_map(f)
        if not ker.is_zero():
            raise NotTilting("left approximation not injective at "
                             "coresolution step %d" % s)
        x, _ = cokernel_of_map(f)
    if not x.is_zero():
        raise NotTilting("coresolution does not terminate within the "
                         "projective dimension")
    return steps + 1


def verify_tilting(a, t, bound=64):
    """Certify the tilting conditions (finite projective dimension, no
    self-extensions, coresolution of the regular module); evaluate the
    cotilting conditions through the dual; on certified Gorenstein
    algebras the two must agree."""
    pd = projective_dimension(t, bound)
    if not pd.is_exact:
        raise NotTilting("projective dimension not certified finite: %s" % pd)
    n = pd.finite_value
    if n:
        exts = ext_dims(t, t, n)
        for k in range(1, n + 1):
            if exts[k]:
                raise NotTilting("self-extension in degree %d" % k)
    parts = decompose(t)
    length = _coresolve_by_add(a, parts, n)
    report = {"tilting": True, "projdim": pd,
              "injdim": injective_dimension(t, bound),
              "coresolution_length": length}
    op = a.opposite_algebra()
    try:
        dpd = projective_dimension(dualize(t), bound)
        if not dpd.is_exact:
            raise NotTilting("injective dimension not certified finite")
        m = dpd.finite_value
        if m:
            dexts = ext_dims(dualize(t), dualize(t), m)
            for k in range(1, m + 1):
                if dexts[k]:
                    raise NotTilting("cotilting self-extension in degree %d" % k)
        _coresolve_by_add(op, [dualize(s) for s in parts], m)
        report["cotilting"] = True
    except NotTilting as e:
        report["cotilting"] = False
        report["cotilting_failure"] = str(e)
    _, _, gor = gorenstein_dimension(a, bound)
    if gor and not report["cotilting"]:
        raise CertificateFailure(
            "Gorenstein algebra with a tilting module that is not "
            "cotilting: %s" % report["cotilting_failure"])
    return report


# -- extensional verifiers --------------------------------------------------

def _leq(d, k):
    try:
        return d.leq(k)
    except ValueError:
        raise CertificateFailure("bound too small to settle %s <= %d" % (d, k))


def default_testset(a, strat, r, bound=64):
    extras = [("delta(%s)" % v, strat.delta[v]) for v in strat.order]
    extras += [("deltabar(%s)" % v, strat.deltabar[v]) for v in strat.order]
    extras += [("nabla(%s)" % v, strat.nabla[v]) for v in strat.order]
    extras += [("nablabar(%s)" % v, strat.nablabar[v]) for v in strat.order]
    if strat.tilting is not None:
        extras += [("tilt%d" % i, s)
                   for i, s in enumerate(strat.tilting.summands)]
    return canonical_test_set(a, depth=r, extras=extras)


def verify_main_equivalences(a, strat, testset=None, bound=64):
    """The four equivalent descriptions of the characteristic tilting of a
    standardly stratified Auslander-Gorenstein algebra, each evaluated
    independently; they must come out all true or all false."""
    if strat.standardly_stratified is None:
        raise NotApplicable("classify the order first")
    if not strat.standardly_stratified:
        raise NotApplicable("order is not standardly stratified")
    try:
        r = auslander_gorenstein_parameter(a, bound)
    except NotAuslanderGorenstein as e:
        raise NotApplicable(str(e))
    if strat.tilting is None:
        strat.tilting = characteristic_tilting(a, strat, bound)
    tilt = strat.tilting
    i = tilt.projdim
    cond1 = same_add_closure(tilt.summands, _cosyzygy_candidate(a, i))
    cond2 = (all(dominant_dimension(strat.delta[v], bound).geq(r - i)
                 for v in strat.order)
             and all(codominant_dimension(strat.nablabar[v], bound).geq(i)
                     for v in strat.order))
    if testset is None:
        testset = default_testset(a, strat, r, bound)
    cond3 = True
    cond4 = True
    rows = []
    for name, m in testset:
        in_fd = filtration_test(m, "delta", strat)[0]
        in_fnb = filtration_test(m, "nablabar", strat)[0]
        dom = dominant_dimension(m, bound)
        codom = codominant_dimension(m, bound)
        if in_fd and not dom.geq(r - i):
            cond3 = False
        if in_fnb and not codom.geq(i):
            cond3 = False
        pd_le = _leq(projective_dimension(m, bound), i)
        gi_le = gi_dimension(m, a, bound) <= r - i
        if pd_le != in_fd:
            cond4 = False
        if not (codom.geq(i) == gi_le == in_fnb):
            cond4 = False
        rows.append({"module": name, "F(delta)": in_fd,
                     "F(nablabar)": in_fnb, "domdim": dom, "codomdim": codom})
    conds = (cond1, cond2, cond3, cond4)
    if len(set(conds)) != 1:
        raise CertificateFailure(
            "equivalent conditions disagree: %s" % (conds,))
    return {"r": r, "i": i, "conditions": conds, "agree": True,
            "holds": cond1, "modules": rows}


def verify_duality_consequences(a, strat, testset=None, bound=64):
    """Consequences of proper stratification with an asserted duality and
    tilting = cotilting: even Gorenstein dimension 2m with m the projective
    dimension of the tilting module, and the four filtration categories
    matching the dominant/codominant, Gorenstein and homological dimension
    classes on the test set."""
    if not strat.duality_asserted:
        raise NotApplicable("duality was not asserted for this order")
    if not strat.properly_stratified:
        raise NotApplicable("order is not properly stratified")
    if strat.tilting is None:
        strat.tilting = characteristic_tilting(a, strat, bound)
    if strat.cotilting is None:
        strat.cotilting = characteristic_cotilting(a, strat, bound)
    if not same_add_closure(strat.tilting.summands, strat.cotilting.summands):
        raise NotApplicable("tilting and cotilting modules differ")
    m = strat.tilting.projdim
    right, _, gor = gorenstein_dimension(a, bound)
    if not gor or right.finite_value != 2 * m:
        raise CertificateFailure(
            "Gorenstein dimension %s is not twice the tilting projective "
            "dimension %d" % (right, m))
    if testset is None:
        testset = default_testset(a, strat, max(m, 1), bound)
    rows = []
    for name, x in testset:
        checks = {
            "F(deltabar)=Dom_m": filtration_test(x, "deltabar", strat)[0]
            == dominant_dimension(x, bound).geq(m),
            "Dom_m=GProj_m": dominant_dimension(x, bound).geq(m)
            == (gp_dimension(x, a, bound) <= m),
            "F(delta)=Proj_m": filtration_test(x, "delta", strat)[0]
            == _leq(projective_dimension(x, bound), m),
            "F(nablabar)=Codom_m": filtration_test(x, "nablabar", strat)[0]
            == codominant_dimension(x, bound).geq(m),
            "Codom_m=GInj_m": codominant_dimension(x, bound).geq(m)
            == (gi_dimension(x, a, bound) <= m),
            "F(nabla)=Inj_m": filtration_test(x, "nabla", strat)[0]
            == _leq(injective_dimension(x, bound), m),
        }
        bad = [k for k, v in checks.items() if not v]
        if bad:
            raise CertificateFailure(
                "duality consequences fail on %s: %s" % (name, bad))
        rows.append({"module": name, "checks": len(checks)})
    out = {"m": m, "gordim": 2 * m, "modules": rows, "agree": True}
    if strat.quasi_hereditary:
        g = global_dimension(a, bound)
        if not g.eq(2 * m):
            raise CertificateFailure(
                "quasi-hereditary instance: global dimension %s is not "
                "twice the tilting projective dimension" % g)
        out["gldim"] = 2 * m
    return out


# -- endomorphism algebra of A plus socle simples ---------------------------

def _socle_word(a, v):
    """The socle of the projective at v as a combination of basis paths;
    needs a one-dimensional socle concentrated at v."""
    p = projective_rep(a, v)
    soc, incl = socle_submodule(p)
    if sum(soc.dims.values()) != 1 or soc.dims.get(v, 0) != 1:
        raise PreconditionFailed(
            "socle of the projective at %r is not simple at %r" % (v, v))
    row = incl.blocks[v].data[0]
    # the projective's component at v is indexed by the source-v basis
    # paths ending at v, in basis order
    at_v = [p2 for p2 in a.basis if p2.source == v and p2.target == v]
    return [(coeff, path) for coeff, path in zip(row, at_v) if coeff]


def endo_quiver_construction(a, socle_vertices, bound=64):
    """Presentation of the endomorphism algebra of the regular module plus
    the chosen socle simples over a certified symmetric algebra: one new
    vertex per chosen simple, a two-arrow loop through it, zero relations
    against every other arrow, and the socle word as the new loop's value.
    Certified by the dimension formula and a dominant dimension
    cross-check."""
    if not a.is_symmetric:
        raise PreconditionFailed("construction needs a certified symmetric "
                                 "algebra")
    for v in a.quiver.vertices:
        if all(mat.nrows == 0 for mat in
               radical_power_rows(projective_rep(a, v), 2).values()):
            raise PreconditionFailed(
                "projective at %r has Loewy length below three" % (v,))
    chosen = sorted(socle_vertices)
    unknown = [v for v in chosen if v not in a.quiver._vindex]
    if unknown:
        raise PreconditionFailed("unknown vertices %r" % (unknown,))
    fresh = max(int(v) for v in a.quiver.vertices) + 1
    new_vertex = {v: fresh + k for k, v in enumerate(chosen)}
    verts = list(a.quiver.vertices) + [new_vertex[v] for v in chosen]
    arrows = [(ar.name, ar.source, ar.target) for ar in a.quiver.arrows]
    for v in chosen:
        arrows.append(("al%s" % v, v, new_vertex[v]))
        arrows.append(("be%s" % v, new_vertex[v], v))
    q = Quiver(verts, arrows)

    def names(path):
        return [a.quiver.arrows[i].name for i in path.word]

    rels = []
    for rel in a.relations:
        rels.append(combination_relation(
            q, [(c, names(p)) for c, p in rel.terms]))
    for v in chosen:
        socle = _socle_word(a, v)
        for name, src, tgt in arrows:
            if tgt == v:
                rels.append(monomial_relation(q, [name, "al%s" % v]))
            if src == v:
                rels.append(monomial_relation(q, ["be%s" % v, name]))
        combo = [(1, ["al%s" % v, "be%s" % v])]
        combo += [(-c, names(p)) for c, p in socle]
        rels.append(combination_relation(q, combo))
    out = build_algebra(q, rels, loewy_cap=a.loewy_bound + 2)
    expect = a.dim + 3 * len(chosen)
    if out.dim != expect:
        raise CertificateFailure(
            "presented algebra has dimension %d, expected %d"
            % (out.dim, expect))
    pair = direct_sum([regular_rep(a)]
                      + [simple_rep(a, v) for v in chosen])
    want = mueller_domdim(a, pair, bound)
    got = algebra_dominant_dimension(out, bound)
    if want != got:
        raise CertificateFailure(
            "dominant dimension cross-check failed: %s vs %s" % (got, want))
    return out
