"""Dimension invariants: dominant, codominant, projective, injective,
global, Gorenstein, and Gorenstein-projective, with honest certificates.

Every routine has a bound argument; answers the bound cannot settle come
back as AtLeast, never as a guess.  Infinity is claimed only with a
witness: a syzygy repetition for resolutions, or a resolution that
terminates inside projectives for the dominant dimension.
"""
from __future__ import annotations

from .algebra import memo
from .errors import (
    BoundExceeded, CertificateFailure, DominantDimensionZero, NotApplicable,
    NotAuslanderGorenstein, NotGorensteinCertified, ZeroModule,
)
from .homology import (
    cosyzygy, ext_dims, is_injective_mod, mueller_domdim,
    projective_resolution, syzygy,
)
from .modules import (
    direct_sum, dualize, first_of_each_iso_class, injective_rep, is_faithful,
    iso_test, projective_rep, quotient_by_rows, radical_submodule, regular_rep,
    simple_rep, socle_rows, uniserial_quotient, zero_rep,
)
from .values import Dim


@memo
def injective_projective_vertices(algebra):
    """Vertices v, in quiver order, whose indecomposable projective P(v)
    is injective."""
    return tuple(v for v in algebra.quiver.vertices
                 if is_injective_mod(projective_rep(algebra, v)))


def dominant_dimension(m, bound=64):
    """Number of leading projective terms of the minimal injective
    resolution; a resolution that ends while still inside projectives is
    reported as AtLeast(bound) with a termination note.  That resolution
    is the dual of the projective resolution of D(m) over the opposite
    algebra, so a term is projective when each of its summands P(v) is
    injective there."""
    if m.is_zero():
        raise ZeroModule("dominant dimension of the zero module")
    pj = injective_projective_vertices(m.algebra.opposite_algebra())
    res = projective_resolution(dualize(m))
    for t in range(bound + 1):
        if any(v not in pj for v in res.term(t).proj_summand_vertices):
            return Dim.exact(t)
        if res.syzygy(t + 1).is_zero():
            return Dim.at_least(bound, note="resolution terminated in projectives")
    return Dim.at_least(bound, note="bound reached")


def codominant_dimension(m, bound=64):
    return dominant_dimension(dualize(m), bound)


@memo
def algebra_dominant_dimension(algebra, bound=64):
    """Dominant dimension of the regular module; minimum over the
    indecomposable projectives."""
    return Dim.minimum(dominant_dimension(projective_rep(algebra, v), bound)
                       for v in algebra.quiver.vertices)


def projective_dimension(m, bound=64):
    if m.is_zero():
        raise ZeroModule("projective dimension of the zero module")
    res = projective_resolution(m)
    for i in range(bound + 2):
        if res.syzygy(i).is_zero():
            return Dim.exact(i - 1)
        for onset in range(1, i):
            if iso_test(res.syzygy(onset), res.syzygy(i)).is_iso:
                p = i - onset
                return Dim.infinite(
                    note="syzygy period %d from %d" % (p, onset),
                    period=p, onset=onset)
    return Dim.at_least(bound, note="no termination or repetition within bound")


def injective_dimension(m, bound=64):
    return projective_dimension(dualize(m), bound)


@memo
def global_dimension(algebra, bound=64):
    return Dim.maximum(projective_dimension(simple_rep(algebra, v), bound)
                       for v in algebra.quiver.vertices)


def is_selfinjective(algebra):
    return injective_projective_vertices(algebra) == algebra.quiver.vertices


@memo
def gorenstein_dimension(algebra, bound=64):
    """(right self-injective dimension, left one, certified-Gorenstein
    flag); when both sides are exact they must agree."""
    right = injective_dimension(regular_rep(algebra), bound)
    left = injective_dimension(regular_rep(algebra.opposite_algebra()), bound)
    flag = right.is_exact and left.is_exact
    if flag and right.n != left.n:
        raise CertificateFailure(
            "one-sided self-injective dimensions disagree: %s vs %s" % (right, left))
    return right, left, flag


def certified_gorenstein_dimension(algebra, bound=64):
    """The Gorenstein dimension; NotGorensteinCertified when a side is
    certified infinite, BoundExceeded when the bound cut a side off."""
    right, left, flag = gorenstein_dimension(algebra, bound)
    if right.is_infinite or left.is_infinite:
        raise NotGorensteinCertified(
            "self-injective dimensions not both certified finite: %s / %s"
            % (right, left))
    if not flag:
        raise BoundExceeded("Gorenstein dimension %s / %s cut off by bound %d"
                            % (right, left, bound), bound)
    return right.n


def auslander_gorenstein_parameter(algebra, bound=64):
    """Gorenstein dimension r when it is certified, is at least 2, and
    equals the dominant dimension."""
    try:
        g = certified_gorenstein_dimension(algebra, bound)
    except NotGorensteinCertified as e:
        raise NotAuslanderGorenstein(str(e))
    d = algebra_dominant_dimension(algebra, bound)
    if g < 2 or not d.eq(g):
        raise NotAuslanderGorenstein(
            "dominant dimension %s vs Gorenstein dimension %d" % (d, g))
    return g


def is_gorenstein_projective(m, bound=64):
    """Extension groups against the regular module vanish in degrees
    1..Gorenstein dimension; needs a certified Gorenstein algebra."""
    g = certified_gorenstein_dimension(m.algebra, bound)
    if m.is_zero():
        return True
    exts = ext_dims(m, regular_rep(m.algebra), g)
    return all(exts[i] == 0 for i in range(1, g + 1))


def gp_dimension(m, bound=64):
    """Least j with the j-th syzygy Gorenstein projective; cross-checked
    against the top nonvanishing extension degree against the regular
    module."""
    g = certified_gorenstein_dimension(m.algebra, bound)
    if m.is_zero():
        return 0
    exts = ext_dims(m, regular_rep(m.algebra), g)
    top = max((i for i in range(1, g + 1) if exts[i]), default=0)
    for j in range(g + 1):
        if is_gorenstein_projective(syzygy(m, j), bound):
            if j != top:
                raise CertificateFailure(
                    "Gorenstein-projective dimension %d does not match the top "
                    "nonvanishing extension degree %d" % (j, top))
            return j
    raise CertificateFailure(
        "no Gorenstein-projective syzygy within the Gorenstein dimension")


def gi_dimension(m, bound=64):
    certified_gorenstein_dimension(m.algebra, bound)
    return gp_dimension(dualize(m), bound)


def minimal_faithful_projinj(algebra, bound=64):
    """(vertex list, module): the sum of the projectives that are also
    injective; exists and is faithful exactly when the dominant dimension
    is at least one.

    Faithfulness of the sum decides existence, and the dominant dimension
    cross-checks it where the bound settles it.
    """
    verts = list(injective_projective_vertices(algebra))
    ea = direct_sum([projective_rep(algebra, v) for v in verts]) \
        if verts else zero_rep(algebra)
    if not is_faithful(ea):
        if algebra_dominant_dimension(algebra, bound).geq(1):
            raise CertificateFailure("projective-injective sum is not faithful")
        raise DominantDimensionZero(
            "no faithful projective-injective: the projective-injective "
            "sum is not faithful")
    return verts, ea


def gendo_gorenstein_check(n, bound=64):
    """For a module n over a certified symmetric algebra making the regular
    module plus n a generator-cogenerator: read the first nonvanishing
    self-extension degree k of the pair off homology.mueller_domdim, which
    certifies the generator-cogenerator and returns k + 1, certify the
    (k+1)-th syzygy of n is isomorphic to n, and return k+1, the common
    dominant and Gorenstein dimension of the endomorphism algebra of the
    pair."""
    if not n.algebra.is_symmetric:
        raise NotApplicable("needs a certified symmetric algebra")
    d = mueller_domdim(n, bound)
    if not d.is_exact:
        raise BoundExceeded(
            "no self-extension found within bound; cannot certify", bound)
    r = iso_test(syzygy(n, d.n), n)
    if not r.is_iso:
        raise CertificateFailure(
            "syzygy periodicity certificate failed at degree %d" % d.n)
    return d.n


# -- canonical test sets ---------------------------------------------------

def canonical_test_set(algebra, depth=2, extras=()):
    """Named nonzero modules, the first of each isomorphism class,
    exercising the category at desk scale: projectives, injectives,
    simples, radicals, socle quotients, syzygies and cosyzygies of simples
    up to the depth, any extras, and for serial algebras every uniserial
    quotient of a projective."""
    named = []
    for v in algebra.quiver.vertices:
        p = projective_rep(algebra, v)
        named.append(("P(%s)" % v, p))
        named.append(("I(%s)" % v, injective_rep(algebra, v)))
        named.append(("S(%s)" % v, simple_rep(algebra, v)))
        named.append(("rad P(%s)" % v, radical_submodule(p)[0]))
        named.append(("P(%s)/soc" % v, quotient_by_rows(p, socle_rows(p))[0]))
        for k in range(1, depth + 1):
            named.append(("syz%d S(%s)" % (k, v), syzygy(simple_rep(algebra, v), k)))
            named.append(("cosyz%d S(%s)" % (k, v),
                          cosyzygy(simple_rep(algebra, v), k)))
    if getattr(algebra, "kupisch", None):
        named.extend(all_uniserial_quotients(algebra))
    named.extend(extras)
    keep = first_of_each_iso_class([m for _, m in named])
    return [named[i] for i in keep]


def all_uniserial_quotients(algebra):
    """Every e_vA/e_vJ^k, named; the complete indecomposable list for a
    serial algebra."""
    kup = getattr(algebra, "kupisch", None)
    if kup is None:
        raise NotApplicable("algebra was not built from a Kupisch series")
    out = []
    for v, c in zip(algebra.quiver.vertices, kup):
        for k in range(1, c + 1):
            out.append(("e%sA/e%sJ%d" % (v, v, k),
                        uniserial_quotient(algebra, v, k)))
    return out


def verify_dom_gproj(algebra, testset=None, bound=64):
    """On a certified Auslander-Gorenstein algebra, check for every test
    module and every j up to r that dominant dimension >= r-j agrees with
    Gorenstein-projective dimension <= j, and dually; returns the rows."""
    r = auslander_gorenstein_parameter(algebra, bound)
    if testset is None:
        testset = canonical_test_set(algebra, depth=r)
    rows = []
    for name, m in testset:
        dom = dominant_dimension(m, bound)
        codom = codominant_dimension(m, bound)
        gp = gp_dimension(m, bound)
        gi = gi_dimension(m, bound)
        for j in range(r + 1):
            if dom.geq(r - j) != (gp <= j):
                raise CertificateFailure(
                    "%s: dominant dimension %s vs GP dimension %d at j=%d"
                    % (name, dom, gp, j))
            if codom.geq(r - j) != (gi <= j):
                raise CertificateFailure(
                    "%s: codominant dimension %s vs GI dimension %d at j=%d"
                    % (name, codom, gi, j))
        rows.append({"module": name, "domdim": dom, "codomdim": codom,
                     "gpdim": gp, "gidim": gi})
    return {"r": r, "modules": rows, "agree": True}


def invariant_report(algebra, bound=64):
    """Per-algebra headline values as a dict of Dim-tagged entries."""
    right, left, gor = gorenstein_dimension(algebra, bound)
    out = {
        "dim": algebra.dim,
        "domdim": algebra_dominant_dimension(algebra, bound),
        "gldim": global_dimension(algebra, bound),
        "gordim_right": right,
        "gordim_left": left,
        "gorenstein": gor,
        "selfinjective": is_selfinjective(algebra),
    }
    try:
        verts, _ = minimal_faithful_projinj(algebra, bound)
        out["projinj_vertices"] = verts
    except DominantDimensionZero:
        out["projinj_vertices"] = []
    return out
