"""Acceptance gate.  Each test drives one headline scenario group through
the verification registry end to end and prints a single pass/fail line;
the registry ids are frozen so the command line surface cannot drift."""
import pytest

from quiverhom.errors import BoundExceeded, UnknownExampleId
from quiverhom.verify import all_example_ids, verify_paper_example

ALL_IDS = [
    "ex3.1-n3", "ex3.1-n4", "ex3.1-n5", "ex3.2", "ex3.3", "ex3.5",
    "ex3.6-d1", "ex3.6-d2", "ex3.6-parity", "prop4.4-B3lambda0",
    "thm4.7-n2", "thm4.7-n3", "thm4.7-n4", "lemma4.3-n3", "lemma4.3-n4",
    "props-core", "props-benson", "props-xidom", "props-ext", "props-omega",
    "props-quadruple", "props-mazov",
]


def run_group(label, ids):
    failures = []
    for eid in ids:
        rep = verify_paper_example(eid)
        if not rep["pass"]:
            failures += [(eid, row) for row in rep["checks"]
                         if not row["ok"]]
    print(("PASS  " if not failures else "FAIL  ") + label)
    assert not failures, failures


def test_linear_nakayama_towers():
    run_group("cyclic towers: gldim = domdim = n, rotated order "
              "quasi-hereditary, filtration classes match dominant classes",
              ["ex3.1-n3", "ex3.1-n4", "ex3.1-n5"])


def test_serial_gorenstein_cutoff():
    run_group("Gorenstein serial algebra: gordim = domdim = 2, periodic "
              "resolutions, no stratifying order, dominant class = "
              "Gorenstein class", ["ex3.2"])


def test_serial_without_quasi_heredity():
    run_group("finite-dimension serial algebra: gldim = domdim = 4 with no "
              "quasi-hereditary order", ["ex3.3"])


def test_two_loop_endomorphism_ring():
    run_group("two-loop self-dual pair: periodic submodule, certified "
              "dim-10 endomorphism presentation, stratified consequences",
              ["ex3.5"])


def test_serial_pair_almost_split_families():
    run_group("serial pair: relative almost-split sequences and the "
              "dominant parity rule", ["ex3.6-d1", "ex3.6-d2",
                                       "ex3.6-parity"])


def test_two_way_chain_without_dominant_depth():
    run_group("untwisted two-way chain: dominant dimension exactly zero",
              ["prop4.4-B3lambda0"])


def test_two_way_chain_towers():
    run_group("twisted two-way chains: gldim = domdim = 2n-2, "
              "self-extension gap, tilting of projective dimension n-1, "
              "three-way class equality", ["thm4.7-n2", "thm4.7-n3",
                                           "thm4.7-n4"])


def test_chain_endomorphism_extension():
    run_group("chain endomorphism extension: dimension grows by three and "
              "the dominant dimension matches the hom-vanishing bound",
              ["lemma4.3-n3", "lemma4.3-n4"])


def test_property_batteries():
    run_group("property batteries: exact core, resolution supports, "
              "segment bounds, two-sided ext, syzygy images, cosyzygy "
              "quadruples, stratified Gorenstein identity",
              ["props-core", "props-benson", "props-xidom", "props-ext",
               "props-omega", "props-quadruple", "props-mazov"])


def test_registry_matches_the_frozen_ids():
    assert all_example_ids() == ALL_IDS
    with pytest.raises(UnknownExampleId):
        verify_paper_example("missing-id")


def test_small_bounds_pass_or_refuse():
    # a bound too low to settle a paper's claim refuses the id, naming a
    # floor no higher than the bound; it never reports the claim as failing
    outcomes = {}
    for eid in ALL_IDS:
        for bound in range(7):
            try:
                rep = verify_paper_example(eid, bound)
            except BoundExceeded as e:
                assert e.bound <= bound, (eid, bound, str(e))
                outcomes[eid, bound] = "refused"
                continue
            assert rep["pass"], (eid, bound, [row for row in rep["checks"]
                                              if not row["ok"]])
            outcomes[eid, bound] = "pass"
    assert list(outcomes.values()).count("pass") == 92
