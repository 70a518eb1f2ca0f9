"""Relative Auslander-Reiten theory inside the subcategory of modules of
dominant dimension at least a given level.

The subcategory is reached through syzygy-of-cosyzygy approximations; the
relative translate is the unique approximation summand pairing nontrivially
with the input, and the almost split sequence is built from the extension
cocycle when the pairing space is one-dimensional.
"""
from __future__ import annotations

from .errors import (
    CertificateFailure, DecomposableInput, ExtProjective, InvalidParameters,
    NotApplicable, NotInSubcategory, ProjectiveInput, UniquenessViolation,
)
from .homology import (
    ar_translate, cosyzygy, ext_dim, ext1_cocycles, extension_from_cocycle,
    is_projective, syzygy,
)
from .invariants import algebra_dominant_dimension, dominant_dimension
from .modules import decompose, first_of_each_iso_class


class RelativeARResult:
    """Outcome of a relative translate computation, with the middle term
    of the sequence when it is determined."""

    def __init__(self, module, level, translate, ext1_dim):
        self.module = module
        self.level = level
        self.translate = translate
        self.ext1_dim = ext1_dim
        self.middle = None

    @property
    def determinate(self):
        return self.middle is not None


def omega_approximation(m, n):
    """(nonprojective summands, projective summands) of the n-th syzygy of
    the n-th cosyzygy of m; the source of a right approximation from the
    n-th syzygy category."""
    if m.is_zero():
        raise NotApplicable("zero module has no approximation")
    if is_projective(m):
        raise ProjectiveInput("projective modules are their own "
                              "approximation")
    core = syzygy(cosyzygy(m, n), n)
    nonproj, proj = [], []
    for s in decompose(core):
        (proj if is_projective(s) else nonproj).append(s)
    return nonproj, proj


def relative_ar_translate(m, level, bound=64):
    """Relative translate of m in the category of modules of dominant
    dimension at least the level: the unique indecomposable summand of the
    approximated ordinary translate that m pairs with in degree one, up to
    isomorphism, so a summand repeated in the approximation (Y + Y) counts
    once.
    A dominant dimension cut off by the bound below the level settles no
    membership and raises BoundExceeded, so it is never read as outside."""
    if level < 0:
        raise InvalidParameters("level must be non-negative, got %d" % level)
    if m.is_zero():
        raise NotApplicable("zero module")
    parts = decompose(m)
    if len(parts) != 1:
        raise DecomposableInput("module must be indecomposable")
    dd = dominant_dimension(m, bound)
    if not dd.geq(level):
        raise NotInSubcategory(
            "dominant dimension %s is below level %d" % (dd, level))
    t = ar_translate(m)
    if t.is_zero():
        raise ExtProjective("translate vanishes; module is relatively "
                            "projective")
    if level:
        cos = cosyzygy(t, level)
        if cos.is_zero():
            raise ExtProjective("approximation of the translate vanishes")
        core = syzygy(cos, level)
    else:
        core = t
    hits = [y for y in decompose(core) if ext_dim(m, y, 1)]
    hits = [hits[i] for i in first_of_each_iso_class(hits)]
    if not hits:
        raise ExtProjective("no approximation summand pairs with the module")
    if len(hits) > 1:
        raise UniquenessViolation(
            "%d summands pair nontrivially (dim vectors %s); the uniqueness "
            "hypothesis fails for this input"
            % (len(hits), [y.dim_vector() for y in hits]))
    y = hits[0]
    return RelativeARResult(m, level, y, ext_dim(m, y, 1))


def relative_ar_sequence(m, level, bound=64):
    """Relative almost split sequence ending in m, when determined.

    The middle term is constructed from the unique extension cocycle when
    the pairing space is one-dimensional; otherwise the result carries the
    translate with the determinacy flag down; NotApplicable when an end
    leaves the subcategory of an algebra of dominant dimension below it."""
    res = relative_ar_translate(m, level, bound)
    if res.ext1_dim != 1:
        return res
    ses = extension_from_cocycle(m, ext1_cocycles(m, res.translate)[0])
    if ses.is_split():
        raise CertificateFailure("almost split candidate splits")
    for name, end in (("left", res.translate), ("right", m)):
        if not dominant_dimension(end, bound).geq(level):
            dd = algebra_dominant_dimension(m.algebra, bound)
            if not dd.geq(level):
                raise NotApplicable(
                    "the algebra has dominant dimension %s, below level %d"
                    % (dd, level))
            raise CertificateFailure(
                "%s end of the sequence leaves the subcategory" % name)
    res.middle = ses.mid
    return res
