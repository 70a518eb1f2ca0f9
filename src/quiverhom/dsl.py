"""Line-oriented text format for bound quiver algebra inputs.

    algebra twoloop
    vertices 1
    arrow x : 1 -> 1
    arrow y : 1 -> 1
    relations:
        x*x
        y*y
        x*y - y*x
    loewy_cap 4
    duality asserted

Composition in relation expressions is left to right: `x*y` is x followed
by y.  Vertex ids are integers, arrow ids are identifiers, coefficients
are integers.
"""
import re

from .algebra import Quiver, build_algebra, combination_relation
from .errors import ParseError

DEFAULT_LOEWY_CAP = 64

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[+\-*]|\S")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")


class AlgebraSpec:
    """Parsed presentation: `parameters` is (vertices, arrows, relations)."""

    def __init__(self, name, parameters, loewy_cap=DEFAULT_LOEWY_CAP,
                 duality_asserted=False, order=None):
        self.name = name
        self.parameters = parameters
        self.loewy_cap = loewy_cap
        self.duality_asserted = bool(duality_asserted)
        self.order = None if order is None else tuple(order)

    def _key(self):
        return (self.name, self.parameters, self.loewy_cap,
                self.duality_asserted, self.order)

    def __eq__(self, other):
        return isinstance(other, AlgebraSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "AlgebraSpec(%r)" % (self.name,)

    def build(self):
        """The algebra this spec describes."""
        verts, arrows, rels = self.parameters
        q = Quiver(verts, arrows)
        relations = [combination_relation(q, [(c, list(w)) for c, w in combo])
                     for combo in rels]
        return build_algebra(q, relations, loewy_cap=self.loewy_cap)


def _tokens(line):
    out = []
    for m in _TOKEN.finditer(line):
        col = m.start() + 1
        if m.group() == ">" and out and out[-1] == ("-", col - 1):
            out[-1] = ("->", col - 1)
        else:
            out.append((m.group(), col))
    return out


def _int(tok, lineno):
    text, col = tok
    if not text.isdigit():
        raise ParseError("expected an integer, got %r" % text, lineno, col)
    return int(text)


def _parse_expression(line, lineno, arrows):
    toks = _tokens(line)
    for text, col in toks:
        if text not in ("+", "-", "*") and not text.isdigit() \
                and not _IDENT.match(text):
            raise ParseError("unexpected character %r" % text, lineno, col)
    terms = []
    i = 0
    n = len(toks)
    first = True
    while i < n:
        sign = 1
        text, col = toks[i]
        if text in "+-":
            if text == "-":
                sign = -1
            i += 1
        elif not first:
            raise ParseError("expected + or - between terms", lineno, col)
        first = False
        coeff = sign
        word = []
        expecting_factor = True
        while i < n:
            text, col = toks[i]
            if expecting_factor:
                if text.isdigit():
                    coeff *= int(text)
                elif _IDENT.match(text) and text not in ("+", "-", "*"):
                    word.append((text, col))
                else:
                    raise ParseError("expected an integer or arrow id",
                                     lineno, col)
                i += 1
                expecting_factor = False
            elif text == "*":
                i += 1
                expecting_factor = True
            else:
                break
        if expecting_factor:
            text, col = toks[i - 1] if i else ("", 1)
            raise ParseError("dangling '*'", lineno, col)
        if not word:
            raise ParseError("term needs at least one arrow id", lineno,
                             toks[0][1])
        terms.append((coeff, word))
    if not terms:
        raise ParseError("empty relation expression", lineno, 1)
    endpoints = None
    combo = []
    for coeff, word in terms:
        for name, col in word:
            if name not in arrows:
                raise ParseError("unknown arrow %r" % name, lineno, col)
        for (p, pc), (q, qc) in zip(word, word[1:]):
            if arrows[p][1] != arrows[q][0]:
                raise ParseError(
                    "%s ends at %s but %s starts at %s" %
                    (p, arrows[p][1], q, arrows[q][0]), lineno, qc)
        if len(word) < 2:
            raise ParseError("relation paths need length at least two",
                             lineno, word[0][1])
        ends = (arrows[word[0][0]][0], arrows[word[-1][0]][1])
        if endpoints is None:
            endpoints = ends
        elif ends != endpoints:
            raise ParseError("terms have different endpoints", lineno,
                             word[0][1])
        combo.append((coeff, tuple(name for name, _ in word)))
    return tuple(combo)


def parse_algebra_dsl(text):
    """AlgebraSpec from the line format; errors carry line and column."""
    name = None
    vertices = None
    arrows = []
    arrow_map = {}
    relations = []
    loewy_cap = None
    duality = False
    order = None
    in_relations = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        indented = raw[0] in " \t"
        if indented:
            if not in_relations:
                raise ParseError("indented line outside a relations block",
                                 lineno, 1)
            relations.append(_parse_expression(raw, lineno, arrow_map))
            continue
        in_relations = False
        toks = _tokens(raw)
        head, _ = toks[0]
        rest = toks[1:]
        if head == "algebra":
            if name is not None:
                raise ParseError("duplicate algebra line", lineno, 1)
            if len(rest) != 1 or not _IDENT.match(rest[0][0]):
                raise ParseError("expected a single algebra name", lineno,
                                 rest[0][1] if rest else len(raw) + 1)
            name = rest[0][0]
        elif head == "vertices":
            if vertices is not None:
                raise ParseError("duplicate vertices line", lineno, 1)
            if not rest:
                raise ParseError("expected at least one vertex id", lineno,
                                 len(raw) + 1)
            vertices = [_int(t, lineno) for t in rest]
            if len(set(vertices)) != len(vertices):
                raise ParseError("repeated vertex id", lineno, rest[0][1])
        elif head == "arrow":
            if len(rest) != 5 or rest[1][0] != ":" or rest[3][0] != "->":
                raise ParseError("expected 'arrow <id> : <v> -> <v>'",
                                 lineno, 1)
            aname = rest[0][0]
            if not _IDENT.match(aname) or aname.isdigit():
                raise ParseError("bad arrow id %r" % aname, lineno,
                                 rest[0][1])
            if aname in arrow_map:
                raise ParseError("duplicate arrow id %r" % aname, lineno,
                                 rest[0][1])
            if vertices is None:
                raise ParseError("arrow before vertices line", lineno, 1)
            src = _int(rest[2], lineno)
            tgt = _int(rest[4], lineno)
            for v, tok in ((src, rest[2]), (tgt, rest[4])):
                if v not in vertices:
                    raise ParseError("unknown vertex %d" % v, lineno, tok[1])
            arrows.append((aname, src, tgt))
            arrow_map[aname] = (src, tgt)
        elif head == "relations:" or (head == "relations"
                                      and [t for t, _ in rest] == [":"]):
            in_relations = True
        elif head == "loewy_cap":
            if len(rest) != 1:
                raise ParseError("expected 'loewy_cap <int>'", lineno, 1)
            loewy_cap = _int(rest[0], lineno)
            if loewy_cap < 1:
                raise ParseError("loewy_cap must be positive", lineno,
                                 rest[0][1])
        elif head == "duality":
            if [t for t, _ in rest] != ["asserted"]:
                raise ParseError("expected 'duality asserted'", lineno, 1)
            duality = True
        elif head == "order":
            if not rest:
                raise ParseError("expected a vertex list", lineno,
                                 len(raw) + 1)
            order = [_int(t, lineno) for t in rest]
            if vertices is None:
                raise ParseError("order before vertices line", lineno, 1)
            for i, (v, tok) in enumerate(zip(order, rest)):
                if v not in vertices:
                    raise ParseError("unknown vertex %d" % v, lineno, tok[1])
                if v in order[:i]:
                    raise ParseError("repeated vertex %d in order" % v,
                                     lineno, tok[1])
            missing = [v for v in vertices if v not in order]
            if missing:
                raise ParseError("order misses vertex %d" % missing[0],
                                 lineno, len(raw) + 1)
        else:
            raise ParseError(
                "expected one of algebra, vertices, arrow, relations:, "
                "loewy_cap, duality, order", lineno, 1)
    if name is None:
        raise ParseError("missing algebra line", 1, 1)
    if vertices is None:
        raise ParseError("missing vertices line", 1, 1)
    return AlgebraSpec(
        name, (tuple(vertices), tuple(arrows), tuple(relations)),
        DEFAULT_LOEWY_CAP if loewy_cap is None else loewy_cap,
        duality, order)


def _term_str(coeff, word, lead):
    body = "*".join(word)
    mag = abs(coeff)
    if mag != 1:
        body = "%d*%s" % (mag, body)
    if lead:
        return "-" + body if coeff < 0 else body
    return ("- " if coeff < 0 else "+ ") + body


def pretty_print(spec):
    """Canonical text for a spec; reparses to an equal spec."""
    verts, arrows, rels = spec.parameters
    lines = ["algebra %s" % spec.name,
             "vertices %s" % " ".join(str(v) for v in verts)]
    for aname, src, tgt in arrows:
        lines.append("arrow %s : %s -> %s" % (aname, src, tgt))
    if rels:
        lines.append("relations:")
        for combo in rels:
            parts = [_term_str(c, w, i == 0) for i, (c, w) in
                     enumerate(combo)]
            lines.append("    " + " ".join(parts))
    lines.append("loewy_cap %d" % spec.loewy_cap)
    if spec.duality_asserted:
        lines.append("duality asserted")
    if spec.order is not None:
        lines.append("order %s" % " ".join(str(v) for v in spec.order))
    return "\n".join(lines) + "\n"
