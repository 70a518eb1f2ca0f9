"""Named algebra constructions behind the command line, with the two
certified bound quiver presentations of endomorphism rings among them:
endo_quiver_construction, for the regular module of a symmetric algebra
extended by socle simples (`endo-of:`), and klein_endo_algebra, for the
regular module of the two-loop local algebra extended by the submodule
one loop generates."""
from .algebra import (
    Quiver, bnlambda_family, build_algebra, check_asserted_duality,
    combination_relation, klein_four_like, monomial_relation,
    nakayama_from_kupisch, symmetric_chain_family,
)
from .errors import (
    BoundExceeded, CertificateFailure, InvalidParameters, InvalidSeries,
    ParseError, PreconditionFailed,
)
from .homology import mueller_domdim
from .invariants import algebra_dominant_dimension
from .linalg import Matrix, rank, row_space, solve_linear
from .modules import (
    ModuleMap, cyclic_submodule, direct_sum, flat_blocks, hom_basis,
    projective_rep, radical_power_rows, regular_rep, simple_rep, socle_dims,
    socle_rows, summand_inclusion, summand_projection,
)

CONSTRUCTION_NAMES = (
    "kupisch", "bnlambda", "symmetric_chain", "klein_four", "endo-of")


def _int_list(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError("expected comma-separated integers, got %r" % text)


def parse_construction(text, bound=64):
    """Algebra from a compact shorthand.

    `kupisch:2,2,3`, `bnlambda:3,1`, `symmetric_chain:2`, `klein_four`,
    and `endo-of:<base>@<socle vertices>` as in `endo-of:klein_four@1`,
    whose construction and every nested one is certified at the bound.
    """
    text = text.strip()
    if text.startswith("endo-of:"):
        rest = text[len("endo-of:"):]
        base, sep, soc = rest.rpartition("@")
        if not sep or not base:
            raise ParseError("endo-of needs '@' before the socle vertices")
        base = parse_construction(base, bound)
        try:
            return endo_quiver_construction(base, list(_int_list(soc)), bound)
        except InvalidParameters as e:
            raise ParseError(str(e))
    name, sep, arg = text.partition(":")
    params = _int_list(arg) if sep else ()
    if name == "endo-of":
        raise ParseError(
            "endo-of takes a base name, base parameters and socle vertices")
    if name == "bnlambda" and not params:
        raise ParseError("bnlambda needs a vertex count")
    if name == "symmetric_chain" and len(params) != 1:
        raise ParseError("symmetric_chain takes one vertex count")
    if name == "klein_four" and params:
        raise ParseError("klein_four takes no parameters")
    try:
        if name == "kupisch":
            return nakayama_from_kupisch(params)
        if name == "bnlambda":
            return bnlambda_family(params[0], params[1:])
        if name == "symmetric_chain":
            return symmetric_chain_family(params[0])
        if name == "klein_four":
            return klein_four_like()
    except (InvalidParameters, InvalidSeries) as e:
        raise ParseError(str(e))
    raise ParseError("unknown construction %r" % name)


def is_construction_text(text):
    head = text.strip().partition(":")[0]
    return head in CONSTRUCTION_NAMES


# -- endomorphism algebra of A plus socle simples ---------------------------

def _socle_word(a, v):
    """The socle of the projective at v as a combination of basis paths;
    needs a one-dimensional socle concentrated at v."""
    p = projective_rep(a, v)
    if socle_dims(p) != tuple(int(w == v) for w in a.quiver.vertices):
        raise PreconditionFailed(
            "socle of the projective at %r is not simple at %r" % (v, v))
    row = row_space(socle_rows(p)[v]).data[0]
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
    cross-check, which is BoundExceeded when the bound cuts a value off
    and no contradiction shows.  An empty, repeated or unknown socle list
    is InvalidParameters."""
    if not a.is_symmetric:
        raise PreconditionFailed("construction needs a certified symmetric "
                                 "algebra")
    for v in a.quiver.vertices:
        if all(mat.nrows == 0 for mat in
               radical_power_rows(projective_rep(a, v), 2).values()):
            raise PreconditionFailed(
                "projective at %r has Loewy length below three" % (v,))
    chosen = sorted(socle_vertices)
    if not chosen:
        raise InvalidParameters("no socle vertices chosen")
    if len(set(chosen)) != len(chosen):
        raise InvalidParameters("repeated socle vertices %r" % (chosen,))
    unknown = [v for v in chosen if v not in a.quiver.vertices]
    if unknown:
        raise InvalidParameters("unknown vertices %r" % (unknown,))
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
    want = mueller_domdim(pair, bound)
    got = algebra_dominant_dimension(out, bound)
    if want != got:
        # two values contradict unless one is a floor the other can meet
        try:
            met = all(d.eq(e.n) for d, e in ((got, want), (want, got))
                      if e.is_exact)
        except BoundExceeded:
            met = True
        if not met:
            raise CertificateFailure(
                "dominant dimension cross-check failed: %s vs %s"
                % (got, want))
        raise BoundExceeded(
            "bound %d cut the dominant dimension cross-check off: %s vs %s"
            % (bound, got, want), bound)
    return out


# -- endomorphism ring of the regular module plus one loop's image ----------

_KE_REL_DATA = (
    ((1, ("y", "y")),),
    ((1, ("de", "de")),),
    ((1, ("be", "al")),),
    ((1, ("al", "de")), (-1, ("y", "al"))),
    ((1, ("de", "be")), (-1, ("be", "y"))),
)


def klein_module_pair():
    """The two-loop local algebra together with the submodule of its
    regular module generated by the first loop."""
    a = klein_four_like()
    row = a.element_vector(a.arrow_element("x"))
    xa, _ = cyclic_submodule(regular_rep(a), 1, row)
    return a, xa


def klein_endo_algebra():
    """Two-vertex presentation of the endomorphism ring of the regular
    module plus the first loop's image, over the two-loop local algebra.

    Vertex 1 carries the regular summand with its surviving loop, vertex
    2 the small summand; the connecting arrows compose to multiplication
    by the collapsed loop on one side and to zero on the other.
    """
    q = Quiver([1, 2], [("y", 1, 1), ("de", 2, 2), ("al", 1, 2),
                        ("be", 2, 1)])
    rels = [combination_relation(q, [(c, list(w)) for c, w in combo])
            for combo in _KE_REL_DATA]
    return build_algebra(q, rels, loewy_cap=6)


def _left_mult_matrix(a, elem):
    rows = [a.element_vector(a.multiply(elem, a.basis_element(i)))
            for i in range(a.dim)]
    return Matrix(rows, a.dim, a.dim)


def verify_endo_presentation(b):
    """Certify the presentation b (klein_endo_algebra()) against the
    concrete endomorphism ring.

    Sends each arrow to an explicit module map on the direct sum, checks
    the defining relations act as zero, and checks the basis paths act as
    linearly independent endomorphisms spanning the full hom space.
    """
    a = klein_four_like()
    reg = regular_rep(a)
    row = a.element_vector(a.arrow_element("x"))
    xa, incl = cyclic_submodule(reg, 1, row)
    parts = [reg, xa]
    m = direct_sum(parts)
    pr = [summand_projection(m, parts, i) for i in (0, 1)]
    inc = [summand_inclusion(m, parts, i) for i in (0, 1)]
    ly = _left_mult_matrix(a, a.arrow_element("y"))
    lx = _left_mult_matrix(a, a.arrow_element("x"))
    u = incl.blocks[1]
    d = solve_linear(u.transpose(), (u @ ly).transpose())
    c = solve_linear(u.transpose(), lx.transpose())
    if d is None or c is None:
        raise CertificateFailure(
            "loop action does not restrict to the submodule")
    d, c = d.transpose(), c.transpose()

    def endo(core, i, j):
        return pr[i].then(core).then(inc[j])

    gens = {
        "y": endo(ModuleMap(reg, reg, {1: ly}), 0, 0),
        "de": endo(ModuleMap(xa, xa, {1: d}), 1, 1),
        "al": endo(ModuleMap(reg, xa, {1: c}), 0, 1),
        "be": endo(incl, 1, 0),
    }
    idem = {1: pr[0].then(inc[0]), 2: pr[1].then(inc[1])}
    for combo in _KE_REL_DATA:
        total = None
        for coeff, word in combo:
            h = idem[b.quiver.arrow(word[0]).source]
            for name in word:
                h = h.then(gens[name])
            vec = [coeff * x for x in flat_blocks(h)]
            total = vec if total is None else [s + x
                                               for s, x in zip(total, vec)]
        if any(total):
            raise CertificateFailure(
                "a defining relation acts nontrivially on the module pair")
    one = [x + y for x, y in zip(flat_blocks(idem[1]), flat_blocks(idem[2]))]
    ident = flat_blocks(ModuleMap.identity(m))
    if one != ident:
        raise CertificateFailure("vertex idempotents do not sum to one")

    def path_map(p):
        out = idem[p.source]
        for ai in p.word:
            out = out.then(gens[b.quiver.arrows[ai].name])
        return out

    rows = [flat_blocks(path_map(p)) for p in b.basis]
    rk = rank(Matrix(rows, len(rows), len(rows[0])))
    hd = len(hom_basis(m, m))
    if not (b.dim == rk == hd):
        raise CertificateFailure(
            "presentation dimension %d, path rank %d and hom dimension %d "
            "disagree" % (b.dim, rk, hd))
    check_asserted_duality(b)
    return {"dim": b.dim, "hom_dim": hd, "rank": rk,
            "relations_vanish": True, "cartan_symmetric": True}
