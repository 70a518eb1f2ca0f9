"""Command line behavior: exit codes, both output formats, and stable
structured bytes."""
import json
import os
import subprocess
import sys

import pytest

from quiverhom import catalog, cli, verify
from quiverhom.algebra import bnlambda_family
from quiverhom.errors import BoundExceeded
from quiverhom.stratify import (
    classify_stratification, verify_duality_consequences,
)
from quiverhom.verify import Checks

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


def run_cli(*argv, stdin=None):
    """Exit code, stdout and stderr of the command line in a new
    interpreter that imports this package's source."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "quiverhom", *argv],
                          capture_output=True, input=stdin, text=True,
                          env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_structured():
    rc, out, _ = run_cli("analyze", "kupisch:2,2,3", "--format", "structured")
    assert rc == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["command"] == "analyze"
    assert rep["bound"] == 64 and rep["seed"] == 0
    assert rep["gldim"] == {"kind": "exact", "n": 3}
    assert rep["domdim"] == {"kind": "exact", "n": 3}
    assert rep["gordim"] == {"kind": "exact", "n": 3}
    assert rep["gorenstein"] is True


def test_analyze_reads_a_series_that_ends_in_1_as_the_line(capsys):
    """kupisch:2,2,1 is kA_3/rad^2, the Auslander algebra of A_2, so by
    Auslander (1971) its global dimension is at most 2 and its dominant
    dimension at least 2."""
    assert cli.main(["analyze", "kupisch:2,2,1", "--format",
                     "structured"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["gldim"] == {"kind": "exact", "n": 2}
    assert rep["domdim"] == {"kind": "exact", "n": 2}


def test_structured_output_is_byte_stable():
    args = ("stratify", "kupisch:2,2,3", "--order", "1,2,0",
            "--format", "structured")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["quasi_hereditary"] is True
    assert rep["regular_standard_filtration"]["multiplicities"] == \
        {"0": 2, "1": 1, "2": 2}


def test_stratify_all_orders_table():
    rc, out, _ = run_cli("stratify", "kupisch:4,5,5", "--format",
                         "structured")
    assert rc == 0
    rows = json.loads(out)["orders"]
    assert len(rows) == 6
    assert not any(r["standardly_stratified"] for r in rows)


def test_quasi_hereditary_does_not_depend_on_bound(capsys):
    # the global dimension 3 is above the bound 1
    args = ["stratify", "kupisch:2,2,3", "--all-orders", "--format",
            "structured"]
    rows = {}
    for bound in ("1", "64"):
        assert cli.main(args + ["--bound", bound]) == 0
        rows[bound] = json.loads(capsys.readouterr().out)["orders"]
    assert rows["1"] == rows["64"]
    assert [r["order"] for r in rows["1"] if r["quasi_hereditary"]] == \
        [[1, 2, 0], [2, 1, 0]]


def test_relar_leaves_modules_cut_off_by_the_bound_undecided(capsys):
    # at --bound 0 a dominant dimension of at least 1 reads ">=0": those
    # modules are undecided, not outside the subcategory, and every other
    # row is the row of the default bound; the projective-injectives P(1)
    # and P(2) have dominant dimension certified infinite at every bound
    rows = {}
    for bound in ("0", "64"):
        assert cli.main(["relar", "kupisch:3,4,4", "--bound", bound,
                         "--format", "structured"]) == 0
        rows[bound] = {r["module"]: r["status"] for r in
                       json.loads(capsys.readouterr().out)["modules"]}
    undecided = {name for name, status in rows["0"].items()
                 if status == "undecided at bound 0"}
    assert undecided == {"P(0)", "rad P(0)", "P(0)/soc", "S(1)",
                         "rad P(1)", "syz2 S(1)"}
    assert {name: rows["64"][name] for name in rows["0"]
            if name not in undecided} == {
        name: status for name, status in rows["0"].items()
        if name not in undecided}


def test_relar_reports_the_almost_split_sequence():
    rc, out, _ = run_cli("relar", "kupisch:2,3", "--level", "1",
                         "--format", "structured")
    assert rc == 0
    rows = json.loads(out)["modules"]
    seqs = [r for r in rows if r["status"] == "sequence"]
    assert len(seqs) == 1
    assert seqs[0]["translate"] == [1, 1]
    assert seqs[0]["middle"] == [1, 2]
    assert seqs[0]["ext1_dim"] == 1


@pytest.mark.parametrize("bound", ["1", "3", "64"])
def test_relar_below_the_algebra_dominant_dimension_is_not_applicable(
        bound, capsys):
    # bnlambda:3,0 has dominant dimension 0: the approximations need not
    # land in the level-1 subcategory, so no sequence is built
    assert cli.main(["relar", "bnlambda:3,0", "--bound", bound]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the algebra has dominant dimension 0, "
                            "below level 1\n")


def test_relar_names_decomposable_canonical_modules(capsys):
    # at bound 0 no row reaches the algebra's dominant dimension, and the
    # decomposable rad P(2) and cosyz1 S(2) are rows of their own; the
    # projective-injective P(1) has dominant dimension certified infinite,
    # so it is decided at every bound; at bound 1 the command still refuses
    assert cli.main(["relar", "bnlambda:3,0", "--bound", "0",
                     "--format", "structured"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)["modules"]
    assert [r["module"] for r in rows
            if r["status"] == "decomposable"] == ["rad P(2)", "cosyz1 S(2)"]
    assert {r["status"] for r in rows} == {
        "undecided at bound 0", "outside subcategory", "decomposable",
        "relatively projective"}
    assert cli.main(["relar", "bnlambda:3,0", "--bound", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: the algebra has dominant dimension 0, below level 1\n")


def test_tilting_cut_off_by_the_bound_is_refused():
    # at bound 2 the Gorenstein dimension 4 reads ">=2": the conjecture
    # report is refused instead of reading a violation
    rc, out, err = run_cli("tilting", "-", "--bound", "2", stdin=TWO_WAY_3)
    assert rc == 1
    assert out == ""
    assert err == "error: Gorenstein dimension >=2 / >=2 cut off by bound 2\n"


def test_resolve_certifies_periodicity():
    rc, out, _ = run_cli("resolve", "kupisch:4,5,5")
    assert rc == 0
    assert "infinite (syzygy period 4" in out


def test_stdin_input_with_duality_directive():
    rc, out, _ = run_cli("tilting", "-", "--format", "structured",
                         stdin=TWO_WAY_3)
    assert rc == 0
    rep = json.loads(out)
    assert rep["input"] == "<stdin>"
    assert rep["order"] == [1, 2, 3]
    assert rep["projdim"] == 2
    assert rep["conjecture"]["verdict"] == "conjecture consistent"


def test_verify_paper_single_id_passes():
    rc, out, _ = run_cli("verify-paper", "ex3.1-n3")
    assert rc == 0
    assert "pass: yes" in out


@pytest.mark.parametrize("example_id", ["ex3.6-d1", "ex3.6-d2"])
def test_verify_paper_sequences_cut_off_by_the_bound_fail(example_id):
    # at bound 0 the dominant dimensions read ">=0": membership is
    # undecided, which refuses the id instead of failing its check
    rc, out, err = run_cli("verify-paper", example_id, "--bound", "0",
                           "--format", "structured")
    assert rc == 1
    assert out == ""
    assert err == ("error: the bound cut the value off at >=0, too low to "
                   "settle >= 1\n")
    rc, out, _ = run_cli("verify-paper", example_id, "--bound", "1")
    assert rc == 0
    assert "pass: yes" in out


@pytest.mark.parametrize("example_id, bound", [
    ("thm4.7-n4", 3), ("thm4.7-n4", 4), ("thm4.7-n4", 5), ("thm4.7-n3", 2),
    ("thm4.7-n3", 3), ("thm4.7-n2", 1), ("ex3.5", 1),
])
def test_gorenstein_dimension_cut_off_by_the_bound_is_undecided(
        example_id, bound, capsys):
    # the two-way towers refuse at their first check, the dominant
    # dimension; the duality consequences refuse the Gorenstein dimension
    assert cli.main(["verify-paper", example_id, "--bound", str(bound)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not twice" not in err
    if example_id.startswith("thm4.7"):
        n = int(example_id[-1])
        assert err == ("error: the bound cut the value off at >=%d, too low "
                       "to settle = %d\n" % (bound, 2 * n - 2))
        st = classify_stratification(bnlambda_family(n, (1,) * (n - 2)),
                                     tuple(range(1, n + 1)),
                                     duality_asserted=True)
        with pytest.raises(BoundExceeded) as e:
            verify_duality_consequences(st, bound=bound)
        err = "error: %s\n" % e.value
    assert err == ("error: Gorenstein dimension >=%d / >=%d cut off by "
                   "bound %d\n" % (bound, bound, bound))


@pytest.mark.parametrize("example_id, bound, message", [
    ("ex3.1-n4", 2, "the bound cut the value off at >=2, too low to settle "
                    "= 4"),
    ("ex3.6-parity", 0, "the bound cut the value off at >=0, too low to "
                        "settle >= 1"),
    ("lemma4.3-n3", 3, "bound 3 cut the dominant dimension cross-check off: "
                       ">=3 vs 4"),
])
def test_comparison_cut_off_by_the_bound_is_refused(example_id, bound,
                                                    message, capsys):
    # the paper's claims compare dimensions the bound cut off; that is no
    # answer and no mismatch but one refusal that names the floor
    assert cli.main(["verify-paper", example_id, "--bound", str(bound)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_unknown_benchmark_id_is_a_parse_error():
    rc, _, err = run_cli("verify-paper", "nope")
    assert rc == 2
    assert "unknown id" in err


def test_unreadable_input_is_a_parse_error():
    rc, _, err = run_cli("analyze", "no/such/file.alg")
    assert rc == 2
    assert "neither an existing file" in err


def test_directory_input_is_a_parse_error(tmp_path):
    rc, out, err = run_cli("analyze", str(tmp_path))
    assert rc == 2
    assert out == ""
    assert err.startswith("parse error:") and "Traceback" not in err


def test_undecodable_input_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_bytes(TWO_WAY_3.encode() + b"\xff\n")
    rc, out, err = run_cli("analyze", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("parse error:") and "Traceback" not in err


def test_negative_bound_is_a_usage_error():
    rc, out, err = run_cli("analyze", "kupisch:4,5,5", "--bound", "-1")
    assert rc == 2
    assert out == ""
    assert "--bound" in err and "Traceback" not in err


def test_negative_level_is_a_usage_error():
    rc, out, err = run_cli("relar", "kupisch:4,5", "--level", "-1")
    assert rc == 2
    assert out == ""
    assert "--level" in err and "Traceback" not in err


def test_bad_shorthand_is_a_parse_error(capsys):
    cases = [
        ("kupisch:", "empty series"),
        ("kupisch:2,5", "entry 2 drops by more than one after position 1"),
        ("kupisch:3,1", "entry 1 drops by more than one after position 0"),
        ("bnlambda:3,2", "twist parameters must be 0 or 1"),
        ("bnlambda:1", "family needs at least two vertices"),
        ("bnlambda", "bnlambda needs a vertex count"),
        ("klein_four:3", "klein_four takes no parameters"),
        ("symmetric_chain", "symmetric_chain takes one vertex count"),
        ("symmetric_chain:1", "chain needs at least two vertices"),
        ("endo-of", "endo-of takes a base name, base parameters and socle "
                    "vertices"),
        ("endo-of:klein_four", "endo-of needs '@' before the socle vertices"),
        ("endo-of:unknown:1@1", "unknown construction 'unknown'"),
        ("kupisch:a,b", "expected comma-separated integers, got 'a,b'"),
    ]
    for text, message in cases:
        assert cli.main(["analyze", text]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: %s\n" % message, text
    # a bad socle list is malformed input, not a failed computation
    for text in ("endo-of:klein_four@", "endo-of:klein_four@1,1",
                 "endo-of:klein_four@9"):
        assert cli.main(["analyze", text]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:"), text
        assert "Traceback" not in captured.err, text


def test_endo_of_input_is_built_at_the_bound(monkeypatch, capsys):
    """--bound reaches the endo-of construction: at bound 3 its dominant
    dimension cross-check is cut off, a refusal that names the bound."""
    seen = []
    orig = catalog.endo_quiver_construction

    def recorded(a, socle, bound):
        seen.append(bound)
        return orig(a, socle, bound)

    monkeypatch.setattr(catalog, "endo_quiver_construction", recorded)
    assert cli.main(["analyze", "endo-of:symmetric_chain:2@2",
                     "--bound", "3"]) == 1
    assert seen == [3]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bound 3 cut")


def test_computational_failure_exits_one():
    rc, _, err = run_cli("tilting", "kupisch:4,5,5")
    assert rc == 1
    assert err.startswith("error:")


def test_verification_mismatch_exits_three(monkeypatch, capsys):
    def always_fails(bound, seed):
        c = Checks()
        c.expect("forced", 0, 1)
        return c

    monkeypatch.setitem(verify.REGISTRY, "tmp-fail", always_fails)
    rc = cli.main(["verify-paper", "tmp-fail", "--format", "structured"])
    assert rc == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is False
    assert rep["results"][0]["checks"][0]["ok"] is False


def test_dsl_file_input(tmp_path):
    path = tmp_path / "chain.alg"
    path.write_text(TWO_WAY_3)
    rc, out, _ = run_cli("analyze", str(path), "--format", "structured")
    assert rc == 0
    rep = json.loads(out)
    assert rep["input"] == str(path)
    assert rep["dim"] == 9 and rep["gldim"] == {"kind": "exact", "n": 4}


def test_dsl_order_that_is_no_permutation_is_a_parse_error(tmp_path):
    path = tmp_path / "chain.alg"
    for order, message in (("order 1 1 2", "repeated vertex 1 in order"),
                           ("order 1 2", "order misses vertex 3")):
        path.write_text(TWO_WAY_3.replace("order 1 2 3", order))
        rc, out, err = run_cli("stratify", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("parse error:") and message in err
        assert "Traceback" not in err


def test_empty_order_is_a_parse_error(capsys):
    """A given --order is read even when empty: stratify does not fall back
    to every order, nor tilting to the default one."""
    for command in ("stratify", "tilting"):
        assert cli.main([command, "kupisch:2,2,3", "--order", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: order must be comma-separated "
                                "integers, got ''\n"), command
