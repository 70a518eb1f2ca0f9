"""Text input format: parsing, canonical printing, and agreement between
a transcribed presentation and the built-in construction it describes."""
import pytest

from quiverhom.algebra import bnlambda_family
from quiverhom.dsl import parse_algebra_dsl, pretty_print
from quiverhom.errors import ParseError


def _word(quiver, p):
    """A path as its arrow names joined by '*', e_v for a trivial path."""
    if not p.word:
        return "e_%s" % (p.source,)
    return "*".join(quiver.arrows[i].name for i in p.word)


TWO_WAY_3 = """\
algebra two_way_chain_3
vertices 1 2 3
arrow a1 : 1 -> 2
arrow a2 : 2 -> 3
arrow b1 : 2 -> 1
arrow b2 : 3 -> 2
relations:
    b2*a2
    b1*a1 - a2*b2
    a1*a2
    b2*b1
loewy_cap 4
duality asserted
order 1 2 3
"""


def test_round_trip_two_way_chain():
    spec = parse_algebra_dsl(TWO_WAY_3)
    assert spec.name == "two_way_chain_3"
    assert spec.loewy_cap == 4
    assert spec.duality_asserted
    assert spec.order == (1, 2, 3)
    assert parse_algebra_dsl(pretty_print(spec)) == spec


def test_round_trip_two_loops_with_coefficients():
    text = """\
algebra twoloop
vertices 1
arrow x : 1 -> 1
arrow y : 1 -> 1
relations:
    x*x
    y*y
    2*x*y - 2*y*x
"""
    spec = parse_algebra_dsl(text)
    (combo,) = [c for c in spec.parameters[2] if len(c) == 2]
    assert combo == ((2, ("x", "y")), (-2, ("y", "x")))
    again = parse_algebra_dsl(pretty_print(spec))
    assert again == spec
    assert again.build().dim == 4


def test_minimal_file_defaults():
    spec = parse_algebra_dsl("algebra one\nvertices 5\n")
    assert spec.loewy_cap == 64
    assert not spec.duality_asserted
    assert spec.order is None
    a = spec.build()
    assert a.dim == 1 and tuple(a.quiver.vertices) == (5,)


def test_transcription_matches_builtin_construction():
    """Same declaration order gives the same arrows, the same path basis,
    and the same multiplication table entry by entry."""
    built = parse_algebra_dsl(TWO_WAY_3).build()
    ref = bnlambda_family(3, (1,))
    key = lambda a: [(ar.name, ar.source, ar.target) for ar in a.quiver.arrows]
    assert key(built) == key(ref)
    assert [_word(built.quiver, p) for p in built.basis] == \
        [_word(ref.quiver, p) for p in ref.basis]
    assert built.dim == ref.dim == 9
    for i in range(ref.dim):
        for j in range(ref.dim):
            assert built.multiply(built.basis_element(i),
                                  built.basis_element(j)) == \
                ref.multiply(ref.basis_element(i), ref.basis_element(j))


def test_two_parses_of_the_same_text_are_equal():
    s1 = parse_algebra_dsl(TWO_WAY_3)
    s2 = parse_algebra_dsl(TWO_WAY_3)
    assert s1 is not s2
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != parse_algebra_dsl(TWO_WAY_3.replace("loewy_cap 4",
                                                     "loewy_cap 5"))


@pytest.mark.parametrize("text,line,col,frag", [
    ("vertices 1\n", 1, 1, "missing algebra"),
    ("algebra a\n", 1, 1, "missing vertices"),
    ("algebra a\nvertices 1\nwibble 2\n", 3, 1, "expected one of"),
    ("algebra a\nvertices 1\narrow x : 1 -> 2\n", 3, 16, "unknown vertex"),
    ("algebra a\narrow x : 1 -> 1\n", 2, 1, "arrow before vertices"),
    ("algebra a\nvertices 1\narrow x : 1 -> 1\nrelations:\n    x*z\n",
     5, 7, "unknown arrow 'z'"),
    ("algebra a\nvertices 1\narrow x : 1 -> 1\nrelations:\n    x\n",
     5, 5, "length at least two"),
    ("algebra a\nvertices 1\narrow x : 1 -> 1\nrelations:\n    3\n",
     5, 5, "at least one arrow id"),
    ("algebra a\nvertices 1\narrow x : 1 -> 1\nrelations:\n    x*\n",
     5, 6, "dangling"),
    ("algebra a\nvertices 1 2\narrow x : 1 -> 2\nrelations:\n    x*x\n",
     5, 7, "x ends at 2 but x starts at 1"),
    ("algebra a\nvertices 1\n    x*x\n", 3, 1, "outside a relations block"),
    ("algebra a\nvertices 1\nloewy_cap 0\n", 3, 11, "must be positive"),
    ("algebra a\nvertices 1 2 3\norder 1 1 2\n", 3, 9,
     "repeated vertex 1 in order"),
    ("algebra a\nvertices 1 2 3\norder 3 1\n", 3, 10,
     "order misses vertex 2"),
])
def test_parse_errors_carry_positions(text, line, col, frag):
    with pytest.raises(ParseError) as e:
        parse_algebra_dsl(text)
    assert e.value.line == line and e.value.col == col
    assert frag in str(e.value)
