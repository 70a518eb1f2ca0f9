"""Command line front end.

Input is a presentation file, `-` for the same text on stdin, or a
construction shorthand such as `kupisch:2,2,3`.  Output goes to stdout in
a plain text rendering or, with `--format structured`, as versioned JSON
that is byte-identical across runs with the same inputs.  Each command
imports, when it runs, the modules that only it uses.

Exit codes: 0 success, 1 computational failure or refusal (a value the
bound cut off that cannot settle a comparison is refused, naming the
bound), 2 unparseable input, 3 verification mismatch.
"""
import argparse
import os
import sys

from .errors import (
    BoundExceeded, DecomposableInput, ExtProjective, NotInSubcategory,
    ParseError, QuiverhomError, UnknownExampleId,
)
from .homology import projective_resolution
from .invariants import (
    canonical_test_set, invariant_report, projective_dimension,
)
from .modules import simple_rep
from .reports import emit_report

_RELAR_SKIP = {
    NotInSubcategory: "outside subcategory",
    ExtProjective: "relatively projective",
    DecomposableInput: "decomposable",
}


def _read(text):
    """Text of stdin for '-', else of the regular file; input that cannot
    be read or decoded as UTF-8 is a ParseError."""
    try:
        if text == "-":
            return sys.stdin.read()
        with open(text, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError("cannot read input %r: %s" % (text, e))


def _load(args):
    """(spec or None, algebra, echo string) from the input argument; a
    construction shorthand is certified at --bound."""
    text = args.input
    if text == "-" or os.path.isfile(text):
        from .dsl import parse_algebra_dsl
        spec = parse_algebra_dsl(_read(text))
        return spec, spec.build(), "<stdin>" if text == "-" else text
    from .catalog import is_construction_text, parse_construction
    if is_construction_text(text):
        return None, parse_construction(text, args.bound), text
    raise ParseError(
        "input %r is neither an existing file, '-', nor a construction "
        "shorthand" % (text,))


def _base(args, command, echo):
    return {"command": command, "input": echo, "bound": args.bound,
            "seed": args.seed}


def _parse_order(text, a):
    try:
        order = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError("order must be comma-separated integers, got %r"
                         % (text,))
    if sorted(order) != sorted(a.quiver.vertices):
        raise ParseError("order %r is not a permutation of the vertices %s"
                         % (text, sorted(a.quiver.vertices)))
    return order


def _pick_order(args, spec, a):
    """Explicit flag first, then a DSL order directive, else None."""
    if args.order is not None:
        return _parse_order(args.order, a)
    if spec is not None and spec.order is not None:
        return spec.order
    return None


def _duality(spec):
    return spec is not None and spec.duality_asserted


def _cmd_analyze(args):
    _, a, echo = _load(args)
    rep = _base(args, "analyze", echo)
    rep.update(invariant_report(a, args.bound))
    rep["gordim"] = rep["gordim_right"]
    return rep, 0


def _cmd_resolve(args):
    _, a, echo = _load(args)
    rows = []
    for v in sorted(a.quiver.vertices):
        s = simple_rep(a, v)
        pd = projective_dimension(s, args.bound)
        res = projective_resolution(s)
        depth = pd.onset + pd.period if pd.is_infinite else pd.n
        rows.append({
            "vertex": v,
            "projdim": pd,
            "cover_vertices": [sorted(res.term(i).proj_summand_vertices)
                               for i in range(depth + 1)],
        })
    rep = _base(args, "resolve", echo)
    rep["simples"] = rows
    return rep, 0


def _cmd_stratify(args):
    from .stratify import classify_stratification, search_orders
    spec, a, echo = _load(args)
    rep = _base(args, "stratify", echo)
    order = _pick_order(args, spec, a)
    if order is not None and not args.all_orders:
        st = classify_stratification(a, order, duality_asserted=_duality(spec))
        rep["order"] = list(order)
        rep.update(st.flags())
        rep["families"] = [{
            "vertex": v,
            "standard": st.delta[v].dim_vector(),
            "proper_standard": st.deltabar[v].dim_vector(),
            "costandard": st.nabla[v].dim_vector(),
            "proper_costandard": st.nablabar[v].dim_vector(),
        } for v in st.order]
        mults = st.regular_filtration or {}
        rep["regular_standard_filtration"] = {
            "filtered": st.delta_filtered_regular,
            "multiplicities": dict(sorted(mults.items())),
        }
        return rep, 0
    rows = search_orders(a, args.bound)
    rep["orders"] = [dict(r, order=list(r["order"])) for r in rows]
    return rep, 0


def _cmd_tilting(args):
    from .stratify import (
        characteristic_cotilting, characteristic_tilting,
        classify_stratification, tilting_conjecture_report, verify_tilting,
    )
    spec, a, echo = _load(args)
    order = _pick_order(args, spec, a) or tuple(sorted(a.quiver.vertices))
    st = classify_stratification(a, order, duality_asserted=_duality(spec))
    t = characteristic_tilting(st, args.bound)
    rep = _base(args, "tilting", echo)
    rep["order"] = list(order)
    rep["route"] = t.route
    rep["projdim"] = t.projdim
    rep["summands"] = [s.dim_vector() for s in t.summands]
    rep["verification"] = verify_tilting(t.module, args.bound)
    if _duality(spec):
        ct = characteristic_cotilting(st, args.bound)
        rep["cotilting_summands"] = [s.dim_vector() for s in ct.summands]
        rep["conjecture"] = tilting_conjecture_report(st, args.bound)
    return rep, 0


def _cmd_relar(args):
    from .relar import relative_ar_sequence
    _, a, echo = _load(args)
    rep = _base(args, "relar", echo)
    rep["level"] = args.level
    rows = []
    for name, m in canonical_test_set(a):
        if m.is_zero():
            continue
        try:
            res = relative_ar_sequence(m, args.level, args.bound)
        except tuple(_RELAR_SKIP) as e:
            rows.append({"module": name, "status": _RELAR_SKIP[type(e)]})
            continue
        except BoundExceeded as e:
            rows.append({"module": name,
                         "status": "undecided at bound %d" % e.bound})
            continue
        rows.append({
            "module": name,
            "status": "sequence",
            "translate": res.translate.dim_vector(),
            "middle": res.middle.dim_vector(),
            "ext1_dim": res.ext1_dim,
            "determinate": res.determinate,
        })
    rep["modules"] = rows
    return rep, 0


def _cmd_verify_paper(args):
    from .verify import all_example_ids, verify_paper_example
    ids = all_example_ids() if args.id == "all" else [args.id]
    results = [verify_paper_example(i, args.bound, args.seed) for i in ids]
    ok = all(r["pass"] for r in results)
    rep = {"command": "verify-paper", "bound": args.bound, "seed": args.seed,
           "pass": ok, "results": results}
    return rep, 0 if ok else 3


_HANDLERS = {
    "analyze": _cmd_analyze,
    "resolve": _cmd_resolve,
    "stratify": _cmd_stratify,
    "tilting": _cmd_tilting,
    "relar": _cmd_relar,
    "verify-paper": _cmd_verify_paper,
}


def _non_negative(text):
    """--bound or --level value: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,))
    if n < 0:
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer, got %d" % n)
    return n


def build_parser():
    p = argparse.ArgumentParser(
        prog="quiverhom",
        description="Exact homological invariants of bound quiver algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("input", help="presentation file, '-' for "
                            "stdin, or a shorthand like kupisch:2,2,3")
        sp.add_argument("--bound", type=_non_negative, default=64,
                        help="search depth cap (default 64)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for randomized batteries (default 0)")
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text", help="output format")

    common(sub.add_parser("analyze", help="headline invariants"))
    common(sub.add_parser("resolve",
                          help="projective resolutions of the simples"))
    sp = sub.add_parser("stratify", help="stratification classification")
    common(sp)
    sp.add_argument("--order", help="comma-separated vertex order")
    sp.add_argument("--all-orders", action="store_true",
                    help="classify every vertex order")
    sp = sub.add_parser("tilting", help="characteristic tilting module")
    common(sp)
    sp.add_argument("--order", help="comma-separated vertex order")
    sp = sub.add_parser("relar",
                        help="relative almost-split sequences by level")
    common(sp)
    sp.add_argument("--level", type=_non_negative, default=1,
                    help="dominant-dimension level of the subcategory")
    sp = sub.add_parser("verify-paper",
                        help="recorded benchmark verification by id")
    sp.add_argument("id", help="benchmark id, or 'all'")
    common(sp, with_input=False)
    return p


def run(argv):
    """Parse argv, execute, print the report; returns the exit code.
    Raises on bad input or computational failure."""
    args = build_parser().parse_args(argv)
    rep, code = _HANDLERS[args.command](args)
    sys.stdout.buffer.write(emit_report(rep, args.format))
    sys.stdout.buffer.flush()
    return code


def main(argv=None):
    try:
        return run(sys.argv[1:] if argv is None else list(argv))
    except (ParseError, UnknownExampleId) as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except QuiverhomError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
