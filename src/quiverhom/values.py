"""Graded dimension values: exact, bounded-below, or certified infinite.

Homological dimensions computed under a truncation bound come in three
flavours.  Exact(n) is a proven value.  AtLeast(n) says the computation ran
out of budget with the value still >= n (an optional note records why, e.g.
a coresolution that terminated inside projectives, which means the honest
value is infinity).  Infinite carries a syzygy periodicity certificate.

Dim owns every comparison with a cut-off value: geq, leq and eq answer only
when every value the Dim admits gives the same answer, and otherwise raise
BoundExceeded naming the floor, so a truncated computation is never read
as an answer.
"""
from __future__ import annotations

import math

from .errors import BoundExceeded


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
    def exact(cls, n):
        return cls("exact", int(n))

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

    def _settle(self, relation, k, holds):
        """holds(v) when every value v the Dim admits gives the same
        answer; otherwise the bound cut the value off too low, which is
        BoundExceeded naming the floor.  A comparison with k changes only
        at k, so the ends of the admitted span and k itself speak for all
        its values; eq(math.inf) asks whether the value is infinite."""
        lo = math.inf if self.kind == "infinite" else self.n
        hi = self.n if self.kind == "exact" else math.inf
        answers = {holds(v) for v in (lo, hi, k) if lo <= v <= hi}
        if len(answers) == 1:
            return answers.pop()
        raise BoundExceeded(
            "the bound cut the value off at %s, too low to settle %s %s"
            % (self, relation, k), self.n)

    def geq(self, k):
        return self._settle(">=", k, lambda v: v >= k)

    def leq(self, k):
        return self._settle("<=", k, lambda v: v <= k)

    def eq(self, k):
        return self._settle("=", k, lambda v: v == k)

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
        lo = min(d.n for d in finite)
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
        return Dim.at_least(max(d.n for d in dims),
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
