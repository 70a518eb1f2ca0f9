"""Stratifications of a bound quiver algebra along a vertex order.

Builds the four families of standard-type modules, decides filtration
membership by the trace recursion, run as a chain of submodules of the
module itself (see _Chain), classifies orders (standardly and
properly stratified, quasi-hereditary), constructs and certifies the
characteristic tilting module, and provides the extensional verifiers for
the tilting-orthogonality and duality consequences.
"""
from __future__ import annotations

from itertools import permutations
from math import factorial, inf

from .algebra import check_asserted_duality, memo
from .errors import (
    BoundExceeded, CertificateFailure, NotApplicable, NotAuslanderGorenstein,
    NotGorensteinCertified, NotStratified, NotTilting, TooManyVertices,
)
from .homology import cosyzygy, ext1_cocycles, ext_dims, extension_from_cocycle
from .invariants import (
    auslander_gorenstein_parameter, canonical_test_set,
    certified_gorenstein_dimension, codominant_dimension, dominant_dimension,
    gi_dimension, global_dimension, gorenstein_dimension, gp_dimension,
    injective_dimension, injective_projective_vertices, projective_dimension,
)
from .linalg import Echelon, Matrix, hstack, rref
from .modules import (
    ModuleMap, cokernel_of_map, decompose, direct_sum, dualize,
    first_of_each_iso_class, hom_basis, kernel_of_map, map_in_span,
    projective_rep, quotient_by_rows, regular_rep, same_add_closure,
)
from .values import Dim

FAMILIES = ("delta", "deltabar", "nabla", "nablabar")


class StratData:
    """A classified vertex order, built by classify_stratification: the
    four standard-type families, the stratification flags, the
    multiplicities of the regular module's filtration by standard modules
    (None when it has none) from the walk that decides those flags, and
    the tilting and cotilting modules, which characteristic_tilting and
    characteristic_cotilting build once and keep here."""

    def __init__(self, algebra, order, families, flags, duality_asserted):
        self.algebra = algebra
        self.order = order
        self.delta, self.deltabar, self.nabla, self.nablabar = families
        self.standardly_stratified = flags["standardly_stratified"]
        self.delta_filtered_regular = flags["delta_filtered_regular"]
        self.properly_stratified = flags["properly_stratified"]
        self.quasi_hereditary = flags["quasi_hereditary"]
        self.schurian = flags["schurian"]
        self.duality_asserted = duality_asserted
        self.regular_filtration = None
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


def _standard_rows(a, v, cut):
    """Rows spanning the submodule of P(v) = e_vA that its radical
    generates at the cut vertices, in the coordinates of the basis paths
    from v, grouped by end vertex: {u: rows}.

    The radical of P(v) at w is spanned by the nontrivial paths p from v
    to w, so for w in cut that submodule is spanned by the products p.q, q
    a basis path from w.  Each product lies in e_vAe_u, u the end of q, so
    its row vanishes at every column of a path that does not end at u.
    The span is closed under the arrow action, since p.q.x is a
    combination of products p.q'.  It is the trace of the projectives at
    cut in rad P(v), so P(v) modulo it is the standard module for v not in
    cut and the proper standard for v in cut (Dlab-Ringel 1992).  The
    rule reads only a's multiplication table, so it serves the quotient
    algebras A/Ae_SA as well as A."""
    col = {i: c for c, i in enumerate(a.paths_from(v))}
    rows = {}
    for i in col:
        p = a.basis[i]
        if p.word and p.target in cut:
            for j in a.paths_from(p.target):
                prod = a.mult[i][j]
                if prod:
                    row = [0] * len(col)
                    for k, c in prod.items():
                        row[col[k]] = c
                    rows.setdefault(a.basis[j].target, []).append(row)
    return rows


def _standard_at(algebra, v, cut):
    """P(v) modulo the span of _standard_rows(algebra, v, cut), each row
    restricted to the columns of the paths that end at its vertex u: those
    columns, in order, are the basis of P(v) at u.  P(v) itself when there
    are no rows."""
    p = projective_rep(algebra, v)
    rows = _standard_rows(algebra, v, cut)
    if not rows:
        return p
    ends = [algebra.basis[i].target for i in algebra.paths_from(v)]
    return quotient_by_rows(p, {
        u: [[x for x, w in zip(r, ends) if w == u] for r in rs]
        for u, rs in rows.items()})[0]


class _Chain:
    """The trace recursion on a module M as one increasing chain of
    submodules 0 = U_0 <= U_1 <= ... <= M, each held as an Echelon per
    vertex in M's own coordinates; no quotient module is built.

    grow(t) makes U_k, the smallest submodule containing U_{k-1} and the
    whole component M_t.  It completes the basis at t to all of M_t and
    then runs a worklist: every new basis row at a vertex v goes through
    each arrow a: v -> w once, and its image joins the basis at w, as a
    new row to push in turn, unless it lies in the span there already (a
    basis that is all of M_w is not asked).
    When the worklist is empty, every basis row at every v has had its
    image under every arrow out of v put into the span at the target (the
    rows of U_{k-1} in earlier calls), so U_k M_a <= U_k at the target of
    each arrow: U_k is closed under the arrows and hence a submodule.  It
    contains U_{k-1} and M_t, and every row added is an image of a row of
    it, so it is the smallest such submodule.  Each basis row is pushed
    once over the whole walk, so the walk costs about one closure of M.

    grow returns the counts of both the plain and the proper layer, so
    one chain serves either walk.  They are those of the walk that passes
    to quotients.  By induction the module layered at step k is M/U_{k-1}:
    submodules of M/U_{k-1} are the U/U_{k-1} with U_{k-1} <= U, so the
    trace of t in M/U_{k-1}, the smallest submodule containing its
    component at t, is u = U_k/U_{k-1}, and (M/U_{k-1})/u = M/U_k.  Hence
    dim u = dim U_k - dim U_{k-1}.  The proper layer reads
    dim (M/U_{k-1})_t = dim M_t - dim U_{k-1,t}.  The plain layer reads
    the top of u at t: u_t is M_t/U_{k-1,t}, and (rad u)_t is the sum of
    the images of u_s under the arrows a: s -> t, i.e. (U_{k-1,t} + sum
    U_{k,s} M_a)/U_{k-1,t}.  Rows of U_{k-1} map into U_{k-1,t}, so that
    span is U_{k-1,t} plus the images at t of the rows new in U_k, which
    the worklist produces anyway."""

    def __init__(self, m):
        q = m.algebra.quiver
        self.dims = m.dims
        self.basis = {v: Echelon() for v in q.vertices}
        self.arrows = {v: [(a.target, m.mats[a.index]) for a in
                           q.arrows_from(v) if m.dims[a.target]]
                       for v in q.vertices}
        self.dim = 0
        self.total = m.total_dim

    def full(self):
        return self.dim == self.total

    def copy(self):
        """The chain at its current term, to grow apart from this one: each
        Echelon is copied, and Echelon.copy shares its rows."""
        twin = object.__new__(_Chain)
        twin.__dict__ = dict(vars(self), basis={
            v: e.copy() for v, e in self.basis.items()})
        return twin

    def grow(self, t):
        """Extend the chain by the trace of t in M/U_{k-1}; returns (plain
        k, proper k, dim U_k - dim U_{k-1}), the multiplicities that the
        plain and the proper layer claim."""
        dims = self.dims
        basis = self.basis
        below = len(basis[t])
        rad = basis[t].copy()
        new = basis[t].complete(dims[t])
        size = len(new)
        pending = {t: new} if new else {}
        while pending:
            v, rows = pending.popitem()
            block = Matrix(rows, len(rows), dims[v])
            for w, mat in self.arrows[v]:
                into = basis[w]
                for img in (block @ mat).data:
                    if w == t and len(rad) < dims[t]:
                        rad.add(img)
                    if len(into) < dims[w]:
                        row = into.add(img)
                        if row is not None:
                            size += 1
                            pending.setdefault(w, []).append(row)
        self.dim += size
        return dims[t] - len(rad), dims[t] - below, size


def _layer(chain, alg, t, proper):
    """One layer of the trace recursion at the top vertex t: the chain
    grows by the trace of t, and the layer's multiplicity k is returned,
    or None when the layer fails.  alg is the algebra whose projective (or
    proper standard) at t sizes the layer: the projective's size is the
    number of basis paths of alg from t, and the proper standard's is
    counted in e_t alg by _standard_dims, cached per algebra.  Both layers
    are decided by counting dimensions, and no module of alg is built.

    The trace u is generated by its component at t, so its top at t has
    dimension k = dim u_t - dim (rad u)_t, and its projective cover
    P_t^k -> u is onto.  Hence u is a direct sum of k copies of P_t iff
    dim u = k dim P_t.  The proper layer is accepted on the count dim u =
    dim(M/U_{k-1} at t) times dim(proper standard at t), which forces a
    filtration."""
    plain, prop, size = chain.grow(t)
    if proper:
        k, d = prop, sum(_standard_dims(alg, t, frozenset({t})).values())
    else:
        k, d = plain, len(alg.paths_from(t))
    return k if size == k * d else None


def _filt_core(m, algebra, order, proper):
    """Trace recursion from the top of the order, on one _Chain of
    submodules of m: layer the top vertex t, repeat with the next.  Once
    every vertex is grown, the chain holds every component of m and so is
    m: a walk whose layers all pass is a filtration.

    The module stays over the algebra A throughout.  Once the vertices S
    above t are layered, M/U_{k-1} is annihilated by Ae_SA, so its trace
    at t and the radical of that trace are the same over A as over
    A/Ae_SA; _layer reads the layer size from that quotient algebra,
    cached per S.  The order search reads the same sizes from trace chains
    instead (_regular_step) and builds no quotient."""
    chain = _Chain(m)
    mult = {}
    for idx in range(len(order) - 1, -1, -1):
        t = order[idx]
        if chain.full():
            for w in order[:idx + 1]:
                mult[w] = 0
            return True, mult
        alg = algebra.quotient_by_idempotent_ideal(frozenset(order[idx + 1:]))
        k = _layer(chain, alg, t, proper)
        if k is None:
            return False, None
        mult[t] = k
    return True, mult


@memo
def _trace_grow(a, t, above):
    """The _Chain on the regular module of a whose last term is the trace
    Ae_SA of S = above + {t}, as the chain of above grown by t: (the chain,
    plain k, proper k, size), k and size as _Chain.grow counts them.  The
    chain of a nonempty set R is the one grown by max R from R - {max R},
    and that of the empty set is the zero submodule; it is copied, so no
    memoized chain is grown in place.  The term a chain reaches does not
    depend on the order in which its vertices are grown, since each grow
    makes the smallest submodule that holds the components at the
    vertices grown so far."""
    if above:
        top = max(above)
        chain = _trace_grow(a, top, above - {top})[0].copy()
    else:
        chain = _Chain(regular_rep(a))
    return (chain,) + chain.grow(t)


@memo
def _regular_step(a, t, above):
    """The layer at t of the trace recursions on the regular modules of
    B = A/Ae_SA and of B^op, S = above the vertices above t, read on the
    trace chains of S in the regular modules of A and of A^op; no quotient
    algebra and no module over one is built.  The layers of S span the
    trace Ae_SA, which leaves exactly B, so the step depends on (t, S) and
    not on the order of S.  Returns the multiplicities of three layers,
    each None when the layer fails: proper on A, plain on A, and proper on
    A^op.

    Each side's chain of S grows by t once (_trace_grow).  On the side of
    A, the layered module is B, and the grow gives the size of the trace
    Be_tB, the plain k = dim Be_t/Be_tJe_t and the proper k = dim Be_t
    (see _Chain).  The A^op regular module at t is e_tA, where its chain
    of S holds e_tAe_SA, so the proper k of A^op is dim e_tB = dim P_B(t),
    and its plain k, dim e_tB - dim e_tJe_tB, is the dimension of the
    proper standard module of B at t, P_B(t) modulo the trace of P_B(t) in
    its radical.  So _layer's rule reads both sizes from the other side's
    grow: the plain layer passes when dim Be_tB = k dim P_B(t), the proper
    one when it is k times the proper standard's dimension.  The same
    holds with the sides swapped."""
    _, plain, prop, size = _trace_grow(a, t, above)
    _, op_plain, op_prop, op_size = _trace_grow(a.opposite_algebra(), t,
                                                above)
    return (prop if size == prop * op_plain else None,
            plain if size == plain * op_prop else None,
            op_prop if op_size == op_prop * plain else None)


def _dimdict(rep):
    return {v: d for v, d in rep.dims.items() if d}


def filtration_test(m, family, strat):
    """(passes, multiplicities) for a filtration by the named family.

    The standard families walk m, the costandard ones its dual over the
    opposite algebra, along one _Chain of submodules from the top of the
    order (_filt_core); each layer only counts dimensions, and no trace or
    quotient module is built.  The multiplicities of a passing walk are
    cross-checked (_cross_check) against the dimension vectors of the
    walked side's (proper) standard modules, counted by _standard_dims.
    A costandard module is the dual of such a module over the opposite
    algebra, so these are the family's, and no member of it is read."""
    if family not in FAMILIES:
        raise NotApplicable("unknown family %r" % (family,))
    if family in ("nabla", "nablabar"):
        probe = dualize(m)
        alg = strat.algebra.opposite_algebra()
    else:
        probe = m
        alg = strat.algebra
    proper = family.endswith("bar")
    ok, mult = _filt_core(probe, alg, strat.order, proper)
    if not ok:
        return False, None
    _cross_check(mult, alg, strat.order, proper, m)
    return True, mult


def _cross_check(mult, a, order, proper, m):
    """The multiplicities times the dimension vectors of a's (proper, when
    proper is set) standard modules along the order must add up to the
    dimension vector of m.  The member at v is cut at the vertices above
    v, and at v too when proper; its dimension vector is _standard_dims.
    m may be the dual of the walked module: both have one dimension
    vector."""
    total = {}
    for pos, v in enumerate(order):
        k = mult[v]
        if not k:
            continue
        cut = frozenset(order[pos if proper else pos + 1:])
        for w, d in _standard_dims(a, v, cut).items():
            total[w] = total.get(w, 0) + k * d
    if total != _dimdict(m):
        raise CertificateFailure(
            "filtration multiplicities do not add up to the dimension vector")


@memo
def _standard_dims(a, v, cut):
    """Dimension vector of _standard_at(a, v, cut), counted inside e_vA
    once per (a, v, cut) with cut a frozenset; no module is built.

    One row reduction of all of _standard_rows(a, v, cut), in the
    coordinates of the paths from v, splits by the end vertex, since each
    row vanishes off the columns of its own end vertex: its free columns
    are a basis of the quotient, and its dimension at w is the number of
    free columns ending at w.  An empty cut leaves P(v)."""
    rows = [r for rs in _standard_rows(a, v, cut).values() for r in rs]
    paths = a.paths_from(v)
    piv = set(rref(Matrix(rows, len(rows), len(paths)))[1]) if rows else ()
    dims = {}
    for c, i in enumerate(paths):
        if c not in piv:
            w = a.basis[i].target
            dims[w] = dims.get(w, 0) + 1
    return dims


def _order_flags(a, order):
    """The five stratification flags of the order, and the multiplicities
    of the regular module's filtration by standard modules (None when it
    has none), from one walk down the order.  At each vertex t the set S
    above t grows by one union, and the shared step record of (t, S)
    (_regular_step) gives the layer at t of three trace recursions: proper
    and plain on the regular module of A, and proper on that of A^op.
    Each recursion stops at its first failing layer, and a step is asked
    for only while one of them runs.  A regular module that passes a
    (proper) standard walk is cross-checked against the dimension vectors
    of the (proper) standard modules.

    Quasi-hereditary is decided from its definition: standardly stratified
    with every End(delta(v)) a division ring.  End(delta(v)) is
    delta(v)e_v, of dimension [delta(v):L(v)], so that is the schurian
    test, run in the same walk; then the proper standards are the
    standards and both walks agree.  No global dimension is needed, and so
    no bound."""
    walks = [{}, {}, {}]
    schurian = True
    above = frozenset()
    for t in reversed(order):
        if walks.count(None) < 3:
            for i, k in enumerate(_regular_step(a, t, above)):
                if k is None:
                    walks[i] = None
                elif walks[i] is not None:
                    walks[i][t] = k
        schurian = schurian and _standard_dims(a, t, above).get(t, 0) == 1
        above = above | {t}
    ss, plain, op = walks
    for mult, proper in ((ss, True), (plain, False)):
        if mult is not None:
            _cross_check(mult, a, order, proper, regular_rep(a))
    return {
        "standardly_stratified": ss is not None,
        "delta_filtered_regular": plain is not None,
        "properly_stratified": ss is not None and op is not None,
        "quasi_hereditary": ss is not None and schurian,
        "schurian": schurian,
    }, plain


def classify_stratification(a, order, duality_asserted=False):
    """The classified order: StratData with the families filled (standards
    and proper standards on the right, the costandards as duals of the
    opposite side's (proper) standards) and all flags decided; no flag
    depends on a dimension bound."""
    order = tuple(order)
    if sorted(order) != sorted(a.quiver.vertices):
        raise NotApplicable("order must be a permutation of the vertices")
    op = a.opposite_algebra()
    delta, deltabar, nabla, nablabar = {}, {}, {}, {}
    for pos, v in enumerate(order):
        higher = order[pos + 1:]
        delta[v] = _standard_at(a, v, higher)
        deltabar[v] = _standard_at(a, v, higher + (v,))
        nabla[v] = dualize(_standard_at(op, v, higher))
        nablabar[v] = dualize(_standard_at(op, v, higher + (v,)))
    if duality_asserted:
        check_asserted_duality(a)
    flags, filtration = _order_flags(a, order)
    strat = StratData(a, order, (delta, deltabar, nabla, nablabar), flags,
                      duality_asserted)
    strat.regular_filtration = filtration
    return strat


def search_orders(a, bound=64):
    """Classification of every vertex order, lexicographically.

    Every flag is decided by one walk per order over step records that
    depend only on a vertex t and the set S of vertices above it (see
    _order_flags and _regular_step), so the n! orders share at most
    n * 2^(n-1) records instead of n * n! steps.  A record is computed
    once per (t, S), when a walk first asks for it, from one grow of t on
    the trace chain of S on each side, at most n * 2^(n-1) grows per side
    (_trace_grow); no quotient algebra is built.  The standard modules'
    dimension vectors are computed once per (v, cut), counted inside e_vA
    by _standard_dims, and no standard module is built.  No flag depends
    on bound."""
    verts = sorted(a.quiver.vertices)
    if len(verts) > 8:
        raise TooManyVertices("%d vertices would need %d orders"
                              % (len(verts), factorial(len(verts))))
    out = []
    for perm in permutations(verts):
        row = {"order": perm}
        row.update(_order_flags(a, perm)[0])
        out.append(row)
    return out


def _basic_parts(reps):
    """Indecomposable summands of the given modules with iso-duplicates
    removed."""
    parts = [p for r in reps for p in decompose(r)]
    return [parts[i] for i in first_of_each_iso_class(parts)]


def _self_orthogonal_pd(t, pd):
    """pd.n once the projective dimension pd of t is certified finite and
    Ext^1..pd(t, t) = 0.  An infinite pd or a self-extension raises
    NotTilting naming it; a pd the bound cut off raises BoundExceeded."""
    if pd.eq(inf):
        raise NotTilting("projective dimension is %s" % pd)
    for k, e in enumerate(ext_dims(t, t, pd.n)[1:] if pd.n else (), 1):
        if e:
            raise NotTilting("self-extension in degree %d" % k)
    return pd.n


def _tilting_certificate(strat, basic, bound):
    """Shared certificate: vertex-count summands, every summand standardly
    and proper-costandardly filtered, self-orthogonal up to the projective
    dimension.  Returns the projective dimension on success, None on a
    soft failure; a pd the bound cut off raises BoundExceeded."""
    if len(basic) != len(strat.algebra.quiver.vertices) or not all(
            filtration_test(s, family, strat)[0]
            for s in basic for family in ("delta", "nablabar")):
        return None
    try:
        return _self_orthogonal_pd(direct_sum(basic), Dim.maximum(
            projective_dimension(s, bound) for s in basic))
    except NotTilting:
        return None


def characteristic_tilting(strat, bound=64):
    """The characteristic tilting module of the stratified structure,
    built once and kept in strat.tilting.

    On a certified Auslander-Gorenstein algebra the candidates are the
    projective-injectives plus a cosyzygy of the remaining projectives;
    otherwise, or when no candidate passes, iterated universal extensions
    of the standard modules are used.  Either way the result carries the
    full filtration and orthogonality certificate."""
    if strat.tilting is not None:
        return strat.tilting
    if not strat.standardly_stratified:
        raise NotStratified("algebra is not standardly stratified "
                            "for this order")
    try:
        r = auslander_gorenstein_parameter(strat.algebra, bound)
    except (NotAuslanderGorenstein, BoundExceeded):
        r = None
    got = None if r is None else _ag_route(strat, r, bound)
    strat.tilting = got or _extension_route(strat, bound)
    return strat.tilting


def _cosyzygy_candidate(a, i):
    """Basic parts of the projective-injectives plus the i-th cosyzygy of
    the sum of the other projectives, taken one projective at a time:
    minimal cosyzygies are additive."""
    pins = injective_projective_vertices(a)
    return _basic_parts([projective_rep(a, v) for v in pins]
                        + [cosyzygy(projective_rep(a, v), i)
                           for v in a.quiver.vertices if v not in pins])


def _ag_route(strat, r, bound):
    """The first cosyzygy candidate, i = 0 .. r, that passes the tilting
    certificate with projective dimension i; None when none does."""
    for i in range(r + 1):
        basic = _cosyzygy_candidate(strat.algebra, i)
        if _tilting_certificate(strat, basic, bound) == i:
            return TiltingData(direct_sum(basic), basic, i, "cosyzygy")
    return None


def _extension_route(strat, bound):
    """Iterated universal extensions (Ringel): for each v, start from
    delta(v) and, while some delta(w) with w at or below v in the order has
    Ext^1(delta(w), x) nonzero, replace x by the middle term of the
    extension 0 -> x -> mid -> delta(w) -> 0 of the first cocycle, x the
    submodule.  At most bound extensions per v (a vertex that needs more
    is refused, naming the bound); the basic parts of the results must
    pass the tilting certificate."""
    grown = []
    for pos, v in enumerate(strat.order):
        x = strat.delta[v]
        for _ in range(bound + 1):
            grew = False
            for w in strat.order[:pos + 1]:
                cocycles = ext1_cocycles(strat.delta[w], x)
                if cocycles:
                    x = extension_from_cocycle(strat.delta[w],
                                               cocycles[0]).mid
                    grew = True
                    break
            if not grew:
                break
        else:
            raise BoundExceeded(
                "universal extensions at %r did not stabilize within bound %d"
                % (v, bound), bound)
        grown.append(x)
    basic = _basic_parts(grown)
    pd = _tilting_certificate(strat, basic, bound)
    if pd is None:
        raise CertificateFailure(
            "extension construction failed its own tilting certificate")
    return TiltingData(direct_sum(basic), basic, pd, "extension")


def characteristic_cotilting(strat, bound=64):
    """Dual of the characteristic tilting of the opposite order, built once
    and kept in strat.cotilting; needs a properly stratified algebra."""
    if strat.cotilting is not None:
        return strat.cotilting
    if not strat.properly_stratified:
        raise NotStratified("cotilting needs both sides stratified")
    op_t = characteristic_tilting(classify_stratification(
        strat.algebra.opposite_algebra(), strat.order), bound)
    summands = [dualize(s) for s in op_t.summands]
    strat.cotilting = TiltingData(direct_sum(summands), summands,
                                  op_t.projdim, "dual-" + op_t.route)
    return strat.cotilting


def tilting_conjecture_report(strat, bound=64):
    """Empirical comparison for properly stratified algebras: Gorenstein
    certificate on one side, tilting = cotilting on the other.  Reports
    consistency; proves nothing; a cut-off Gorenstein dimension refuses."""
    t = characteristic_tilting(strat, bound)
    c = characteristic_cotilting(strat, bound)
    same = same_add_closure(t.summands, c.summands)
    try:
        certified_gorenstein_dimension(strat.algebra, bound)
        gor = True
    except NotGorensteinCertified:
        gor = False
    verdict = "conjecture consistent" if same == gor else "conjecture violated"
    return {"gorenstein": gor, "tilting_equals_cotilting": same,
            "verdict": verdict}


# -- tilting verification ---------------------------------------------------

def _min_left_approx(x, summands):
    """Left add(T)-approximation of x with no redundant target summand,
    assembled from hom bases into the indecomposable summands.  A column
    h: x -> summand j0 is redundant when it factors through the others,
    i.e. lies in the span of their composites with the homs into j0."""
    cols = [(j, h) for j, s in enumerate(summands) for h in hom_basis(x, s)]
    for idx in reversed(range(len(cols))):
        j0, h = cols[idx]
        rest = cols[:idx] + cols[idx + 1:]
        if map_in_span(h, [g.then(phi) for j, g in rest
                           for phi in hom_basis(summands[j], summands[j0])]):
            cols = rest
    if not cols:
        return None
    target = direct_sum([summands[j] for j, _ in cols])
    blocks = {v: hstack([h.blocks[v] for _, h in cols])
              for v in x.algebra.quiver.vertices}
    return ModuleMap(x, target, blocks, validate=False)


def _coresolve_by_add(summands, steps):
    """Length of a coresolution of the regular module of the summands'
    algebra by iterated minimal left approximations into their additive
    closure; NotTilting when a step fails."""
    x = regular_rep(summands[0].algebra)
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


def verify_tilting(t, bound=64):
    """Certify the tilting conditions (finite projective dimension, no
    self-extensions, coresolution of the regular module); cotilting is the
    tilting conditions of D(t) over the opposite algebra; on certified
    Gorenstein algebras the two must agree."""
    pd = projective_dimension(t, bound)
    n = _self_orthogonal_pd(t, pd)
    parts = decompose(t)
    length = _coresolve_by_add(parts, n)
    dpd = injective_dimension(t, bound)  # the projective dimension of D(t)
    report = {"tilting": True, "projdim": pd, "injdim": dpd,
              "coresolution_length": length}
    try:
        _coresolve_by_add([dualize(s) for s in parts],
                          _self_orthogonal_pd(dualize(t), dpd))
        report["cotilting"] = True
    except NotTilting as e:
        report["cotilting"] = False
        report["cotilting_failure"] = "D(T): %s" % e
    _, _, gor = gorenstein_dimension(t.algebra, bound)
    if gor and not report["cotilting"]:
        raise CertificateFailure(
            "Gorenstein algebra with a tilting module that is not "
            "cotilting: %s" % report["cotilting_failure"])
    return report


# -- extensional verifiers --------------------------------------------------

def default_testset(strat, r):
    extras = [("%s(%s)" % (fam, v), getattr(strat, fam)[v])
              for fam in FAMILIES for v in strat.order]
    if strat.tilting is not None:
        extras += [("tilt%d" % i, s)
                   for i, s in enumerate(strat.tilting.summands)]
    return canonical_test_set(strat.algebra, depth=r, extras=extras)


def verify_main_equivalences(strat, testset=None, bound=64):
    """The four equivalent descriptions of the characteristic tilting of a
    standardly stratified Auslander-Gorenstein algebra, each evaluated
    independently; they must come out all true or all false."""
    if not strat.standardly_stratified:
        raise NotApplicable("order is not standardly stratified")
    a = strat.algebra
    try:
        r = auslander_gorenstein_parameter(a, bound)
    except NotAuslanderGorenstein as e:
        raise NotApplicable(str(e))
    tilt = characteristic_tilting(strat, bound)
    i = tilt.projdim
    cond1 = same_add_closure(tilt.summands, _cosyzygy_candidate(a, i))
    cond2 = (all(dominant_dimension(strat.delta[v], bound).geq(r - i)
                 for v in strat.order)
             and all(codominant_dimension(strat.nablabar[v], bound).geq(i)
                     for v in strat.order))
    if testset is None:
        testset = default_testset(strat, r)
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
        pd_le = projective_dimension(m, bound).leq(i)
        gi_le = gi_dimension(m, bound) <= r - i
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


def verify_duality_consequences(strat, testset=None, bound=64):
    """Consequences of proper stratification with an asserted duality and
    tilting = cotilting: even Gorenstein dimension 2m with m the projective
    dimension of the tilting module, and the four filtration categories
    matching the dominant/codominant, Gorenstein and homological dimension
    classes on the test set.  A Gorenstein dimension cut off by the bound
    raises BoundExceeded; a certified one, exact or infinite, that is not
    2m is a CertificateFailure."""
    if not strat.duality_asserted:
        raise NotApplicable("duality was not asserted for this order")
    if not strat.properly_stratified:
        raise NotApplicable("order is not properly stratified")
    tilt = characteristic_tilting(strat, bound)
    cotilt = characteristic_cotilting(strat, bound)
    if not same_add_closure(tilt.summands, cotilt.summands):
        raise NotApplicable("tilting and cotilting modules differ")
    m = tilt.projdim
    right, left, _ = gorenstein_dimension(strat.algebra, bound)
    if right.is_infinite or left.is_infinite or \
            certified_gorenstein_dimension(strat.algebra, bound) != 2 * m:
        raise CertificateFailure(
            "Gorenstein dimension %s is not twice the tilting projective "
            "dimension %d" % (right, m))
    if testset is None:
        testset = default_testset(strat, max(m, 1))
    rows = []
    for name, x in testset:
        checks = {
            "F(deltabar)=Dom_m": filtration_test(x, "deltabar", strat)[0]
            == dominant_dimension(x, bound).geq(m),
            "Dom_m=GProj_m": dominant_dimension(x, bound).geq(m)
            == (gp_dimension(x, bound) <= m),
            "F(delta)=Proj_m": filtration_test(x, "delta", strat)[0]
            == projective_dimension(x, bound).leq(m),
            "F(nablabar)=Codom_m": filtration_test(x, "nablabar", strat)[0]
            == codominant_dimension(x, bound).geq(m),
            "Codom_m=GInj_m": codominant_dimension(x, bound).geq(m)
            == (gi_dimension(x, bound) <= m),
            "F(nabla)=Inj_m": filtration_test(x, "nabla", strat)[0]
            == injective_dimension(x, bound).leq(m),
        }
        bad = [k for k, v in checks.items() if not v]
        if bad:
            raise CertificateFailure(
                "duality consequences fail on %s: %s" % (name, bad))
        rows.append({"module": name, "checks": len(checks)})
    out = {"m": m, "gordim": 2 * m, "modules": rows, "agree": True}
    if strat.quasi_hereditary:
        g = global_dimension(strat.algebra, bound)
        if not g.eq(2 * m):
            raise CertificateFailure(
                "quasi-hereditary instance: global dimension %s is not "
                "twice the tilting projective dimension" % g)
        out["gldim"] = 2 * m
    return out
