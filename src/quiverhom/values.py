"""Graded dimension values: exact, bounded-below, or certified infinite.

Homological dimensions computed under a truncation bound come in three
flavours.  Exact(n) is a proven value.  AtLeast(n) says the computation ran
out of budget with the value still >= n (an optional note records why, e.g.
a coresolution that terminated inside projectives, which means the honest
value is infinity).  Infinite carries a syzygy periodicity certificate.
"""
from __future__ import annotations


class Dim:
    """A homological dimension with its certification status."""

    __slots__ = ("kind", "n", "note", "period", "onset")

    def __init__(self, kind, n=None, note=None, period=None, onset=None):
        if kind not in ("exact", "at_least", "infinite"):
            raise ValueError("bad Dim kind %r" % kind)
        self.kind = kind
        self.n = n
        self.note = note
        self.period = period
        self.onset = onset

    @classmethod
    def exact(cls, n, note=None):
        return cls("exact", int(n), note)

    @classmethod
    def at_least(cls, n, note=None):
        return cls("at_least", int(n), note)

    @classmethod
    def infinite(cls, note=None, period=None, onset=None):
        return cls("infinite", None, note, period, onset)

    # -- status queries ----------------------------------------------------

    @property
    def is_exact(self):
        return self.kind == "exact"

    @property
    def is_infinite(self):
        return self.kind == "infinite"

    @property
    def finite_value(self):
        """The exact value; raises if not certified exact."""
        if self.kind != "exact":
            raise ValueError("dimension not certified exact: %s" % self)
        return self.n

    def lower_bound(self):
        """The certified floor n of an exact or bounded-below value; None
        for an infinite one, which no finite floor describes."""
        return self.n

    def geq(self, k):
        """True iff the value is certified >= k."""
        if self.kind == "infinite":
            return True
        return self.n >= k

    def leq(self, k):
        """True iff the value is certified <= k.

        AtLeast(n) with n <= k is indeterminate and raises, so callers can
        never silently turn a truncated computation into a negative claim.
        """
        if self.kind == "exact":
            return self.n <= k
        if self.kind == "infinite":
            return False
        if self.n > k:
            return False
        raise ValueError("cannot certify <= %d from %s" % (k, self))

    def eq(self, k):
        return self.kind == "exact" and self.n == k

    # -- combination -------------------------------------------------------

    @staticmethod
    def minimum(dims):
        """Minimum of several Dim values, kept honest.

        Exact(v) wins when no other entry could undercut it; otherwise the
        best statement is AtLeast(min of lower bounds).
        """
        dims = list(dims)
        if not dims:
            raise ValueError("minimum of no dimensions")
        finite = [d for d in dims if not d.is_infinite]
        if not finite:
            return Dim.infinite(note="all entries certified infinite")
        lo = min(d.lower_bound() for d in finite)
        exacts = [d.n for d in finite if d.is_exact]
        if exacts:
            if min(exacts) == lo:
                return Dim.exact(lo)
            return Dim.at_least(lo, note="truncated entries below an exact one")
        note = next((d.note for d in finite if d.note), None)
        return Dim.at_least(lo, note=note)

    @staticmethod
    def maximum(dims):
        dims = list(dims)
        if not dims:
            raise ValueError("maximum of no dimensions")
        for d in dims:
            if d.is_infinite:
                return d
        if all(d.is_exact for d in dims):
            return Dim.exact(max(d.n for d in dims))
        return Dim.at_least(max(d.lower_bound() for d in dims),
                            note="some entries truncated")

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Dim):
            return NotImplemented
        return (self.kind, self.n, self.period, self.onset) == \
            (other.kind, other.n, other.period, other.onset)

    def __hash__(self):
        return hash((self.kind, self.n, self.period, self.onset))

    def __repr__(self):
        if self.kind == "exact":
            return "Dim.exact(%d)" % self.n
        if self.kind == "at_least":
            return "Dim.at_least(%d)" % self.n
        return "Dim.infinite(period=%r, onset=%r)" % (self.period, self.onset)

    def __str__(self):
        if self.kind == "exact":
            return str(self.n)
        if self.kind == "at_least":
            return ">=%d" % self.n
        if self.period is not None:
            return "infinite (syzygy period %d from %d)" % (self.period, self.onset)
        return "infinite"

    def to_json(self):
        out = {"kind": self.kind}
        if self.n is not None:
            out["n"] = self.n
        if self.note:
            out["note"] = self.note
        if self.period is not None:
            out["period"] = self.period
            out["onset"] = self.onset
        return out
