"""Golden outputs: each command's stdout, in structured and in text
format, must match, byte for byte, the files recorded in tests/golden/
(<stem>.json and <stem>.txt) before the last change to the engine.  A
change that is meant to keep every answer keeps these files.

Regenerate the files (only when an output is meant to change, and say so
in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py
"""
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quiverhom import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

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
"""

# the loop-back algebra of test_stratify: a loop x at 1, a: 1 -> 2 and
# b: 2 -> 1
LOOP_BACK = """\
algebra loop
vertices 1 2
arrow x : 1 -> 1
arrow a : 1 -> 2
arrow b : 2 -> 1
relations:
    x*x
    a*b
    x*a
loewy_cap 4
"""

# (file stem, arguments before --format, stdin)
COMMANDS = [
    ("analyze-kupisch-2-2-3", ["analyze", "kupisch:2,2,3"], ""),
    ("resolve-kupisch-4-5-5", ["resolve", "kupisch:4,5,5"], ""),
    ("stratify-kupisch-2-2-3-order-1-2-0",
     ["stratify", "kupisch:2,2,3", "--order", "1,2,0"], ""),
    ("tilting-bnlambda-3-1", ["tilting", "bnlambda:3,1"], ""),
    ("relar-kupisch-4-5", ["relar", "kupisch:4,5"], ""),
    ("analyze-stdin-two-way-chain-3", ["analyze", "-"], TWO_WAY_3),
    # the one command through characteristic_cotilting and
    # tilting_conjecture_report: the chain asserts its duality
    ("tilting-stdin-two-way-chain-3", ["tilting", "-"], TWO_WAY_3),
    ("analyze-kupisch-4-5-5-bound-0",
     ["analyze", "kupisch:4,5,5", "--bound", "0"], ""),
    ("tilting-bnlambda-4-1-1", ["tilting", "bnlambda:4,1,1"], ""),
    ("relar-kupisch-3-4-4", ["relar", "kupisch:3,4,4"], ""),
    ("stratify-all-orders-kupisch-4-5-5",
     ["stratify", "kupisch:4,5,5", "--all-orders"], ""),
    ("stratify-all-orders-bnlambda-4-1-1",
     ["stratify", "bnlambda:4,1,1", "--all-orders"], ""),
    ("verify-paper-all", ["verify-paper", "all"], ""),
]
# the remaining order-search algebras
COMMANDS += [
    ("stratify-all-orders-" + spec.replace(":", "-").replace(",", "-"),
     ["stratify", spec, "--all-orders"], "")
    for spec in ("kupisch:2,2,3", "kupisch:2,2,2,3", "kupisch:2,2,2,2,3",
                 "kupisch:2,2,2,2,2,3", "bnlambda:5,1,1,1", "kupisch:3,4,4")
]
# quotients with loops and non-monomial relations
COMMANDS += [
    ("stratify-all-orders-" + spec.replace(":", "-").replace(",", "-")
     .replace("@", "-at-"), ["stratify", spec, "--all-orders"], "")
    for spec in ("symmetric_chain:3", "endo-of:symmetric_chain:2@2",
                 "endo-of:symmetric_chain:3@2")
]
COMMANDS.append(("stratify-all-orders-stdin-loop-back",
                 ["stratify", "-", "--all-orders"], LOOP_BACK))
# an order whose regular module is not filtered by standards, and the
# order searches on a non-schurian Nakayama algebra, a local algebra and
# its endomorphism extension
COMMANDS.append(("stratify-kupisch-4-5-5-order-0-1-2",
                 ["stratify", "kupisch:4,5,5", "--order", "0,1,2"], ""))
COMMANDS += [
    ("stratify-all-orders-" + spec.replace(":", "-").replace(",", "-")
     .replace("@", "-at-"), ["stratify", spec, "--all-orders"], "")
    for spec in ("kupisch:3,3,4", "klein_four", "endo-of:klein_four@1")
]


FORMATS = {"structured": ".json", "text": ".txt"}


def run(args, stdin, fmt):
    """Run cli.main in-process with `--format fmt`; returns (exit code,
    stdout bytes, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(args + ["--format", fmt])
    finally:
        sys.stdin = saved
    out.flush()
    return rc, out.buffer.getvalue(), err.getvalue()


def golden_path(stem, fmt):
    return os.path.join(GOLDEN, stem + FORMATS[fmt])


def check_golden(stem, args, stdin, fmt):
    rc, out, err = run(args, stdin, fmt)
    assert (rc, err) == (0, "")
    with open(golden_path(stem, fmt), "rb") as f:
        assert out == f.read()


@pytest.mark.parametrize("stem,args,stdin", COMMANDS,
                         ids=[c[0] for c in COMMANDS])
def test_structured_output_is_golden(stem, args, stdin):
    check_golden(stem, args, stdin, "structured")


@pytest.mark.parametrize("stem,args,stdin", COMMANDS,
                         ids=[c[0] for c in COMMANDS])
def test_text_output_is_golden(stem, args, stdin):
    check_golden(stem, args, stdin, "text")


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for stem, args, stdin in COMMANDS:
        for fmt in FORMATS:
            rc, out, err = run(args, stdin, fmt)
            if (rc, err) != (0, ""):
                sys.exit("%s: exit %d, stderr %r" % (stem, rc, err))
            with open(golden_path(stem, fmt), "wb") as f:
                f.write(out)
            print("wrote", golden_path(stem, fmt))
