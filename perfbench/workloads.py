"""The benchmark's workloads.

Each workload builds its inputs from the seed (`setup`), lists one round of
fixed work as labelled items (`items`), and checks a round's outputs
(`check`) against the paper's stated values, against the reference
computations in `oracles`, or against properties the method must have.
`setup` runs again before every round, so every round starts from the same
state; it imports the package, which is what a set-up probe times.
"""
import json
import math
import os
import random
import re
import subprocess
import sys
from itertools import permutations

import oracles
import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
BOUND = 64

OK, WRONG, FAILED = "ok", "wrong", "failed"


def package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import quiverhom
    return quiverhom


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, stdin=b"", errpath=None):
    """Run one child to completion: (exit code, stdout bytes, rusage).
    stderr goes to `errpath` (or is dropped), so a chatty child cannot
    fill a pipe while stdout is read."""
    errpath = errpath or os.devnull
    with open(errpath, "wb") as err:
        p = subprocess.Popen(argv, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, stderr=err,
                             env=child_env(), cwd=ROOT)
        try:
            p.stdin.write(stdin)
            p.stdin.close()
            out = p.stdout.read()
            p.stdout.close()
        finally:
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, usage


# -- registry --------------------------------------------------------------

# The registry's own seed, as `quiverhom verify-paper` uses by default.  It
# sizes the random matrices of props-core, so it stays fixed: the run's seed
# orders the ids but never changes the work.
REGISTRY_SEED = 0


class Registry:
    """Every verify-paper id once per round, in an order drawn from the
    seed."""

    name = "registry"
    round_s = 20  # nominal seconds per round, sets the round count

    def setup(self, seed):
        q = package()
        ids = q.all_example_ids()
        random.Random(seed).shuffle(ids)
        return {"q": q, "ids": ids}

    def items(self, st, traced=False):
        q = st["q"]
        return [(i, lambda i=i: q.verify_paper_example(i, BOUND,
                                                       REGISTRY_SEED))
                for i in st["ids"]]

    def check(self, st, label, rep):
        rows = rep["checks"]
        good = (rep["id"] == label and rep["pass"] is True and rows
                and all(r["ok"] for r in rows))
        return OK if good else WRONG


# -- order search ----------------------------------------------------------

def _tower(n):
    return [2] * (n - 1) + [3]


def _bn(n):
    return n, [1] * (n - 2)


def _order_row(rows, order):
    return next(r for r in rows if tuple(r["order"]) == order)


# (label, constructor, arguments, paper fact on the rows)
ORDER_INPUTS = [
    ("kupisch:%s" % ",".join(map(str, _tower(n))), "nakayama_from_kupisch",
     (_tower(n),),
     lambda rows, n=n: _order_row(rows, tuple(range(1, n)) + (0,))
     ["quasi_hereditary"])
    for n in (3, 4, 5, 6)
] + [
    ("bnlambda:%d" % n, "bnlambda_family", _bn(n),
     lambda rows, n=n: _order_row(rows, tuple(range(1, n + 1)))
     ["quasi_hereditary"])
    for n in (4, 5)
] + [
    ("kupisch:4,5,5", "nakayama_from_kupisch", ([4, 5, 5],),
     lambda rows: not any(r["standardly_stratified"] for r in rows)),
    ("kupisch:3,4,4", "nakayama_from_kupisch", ([3, 4, 4],),
     lambda rows: not any(r["quasi_hereditary"] for r in rows)),
]


class OrderSearch:
    """search_orders over every vertex order of eight algebras, each built
    afresh (untimed) before the round so no quotient cache carries over."""

    name = "order-search"
    round_s = 18  # nominal seconds per round, sets the round count

    def setup(self, seed):
        q = package()
        inputs = list(ORDER_INPUTS)
        random.Random(seed).shuffle(inputs)
        algs = {label: getattr(q, ctor)(*args)
                for label, ctor, args, _ in inputs}
        return {"q": q, "inputs": inputs, "algs": algs}

    def items(self, st, traced=False):
        q = st["q"]
        return [(label, lambda a=st["algs"][label]: q.search_orders(a, BOUND))
                for label, _, _, _ in st["inputs"]]

    def check(self, st, label, rows):
        a = st["algs"][label]
        fact = next(f for lab, _, _, f in st["inputs"] if lab == label)
        verts = sorted(a.quiver.vertices)
        orders = [tuple(r["order"]) for r in rows]
        if len(rows) != math.factorial(len(verts)) or \
                set(orders) != set(permutations(verts)):
            return WRONG
        dims = oracles.StandardDims(a)
        for r in rows:
            ss = r["standardly_stratified"]
            if (r["quasi_hereditary"] or r["properly_stratified"]) and not ss:
                return WRONG
            if (dims.bgg_sum(tuple(r["order"])) == a.dim) != ss:
                return WRONG
        return OK if fact(rows) else WRONG


# -- ext sweep -------------------------------------------------------------

# (label, constructor, arguments, global dimension): the paper's values,
# 2n - 2 for B_n (thm4.7) and n for the tower on n vertices (ex3.1).
EXT_INPUTS = [
    ("bnlambda:%d" % n, "bnlambda_family", _bn(n), 2 * n - 2)
    for n in (4, 5, 6)
] + [
    ("kupisch:%s" % ",".join(map(str, _tower(n))), "nakayama_from_kupisch",
     (_tower(n),), n)
    for n in (3, 4, 5, 6)
]


class ExtSweep:
    """ext_dims up to the global dimension for every ordered pair of the
    canonical test set of seven algebras.  Set-up builds the algebras and
    their test sets, so the round queries modules it holds, with whatever
    the test set's construction left in their caches; each pair is asked
    once.  The seed orders the algebras and the pairs."""

    name = "ext-sweep"
    round_s = 3.5  # nominal seconds per round, sets the round count

    def setup(self, seed):
        q = package()
        rng = random.Random(seed)
        inputs = []
        for label, ctor, args, gldim in EXT_INPUTS:
            a = getattr(q, ctor)(*args)
            mods = [m for _, m in q.canonical_test_set(a)]
            pairs = [(i, j) for i in range(len(mods))
                     for j in range(len(mods))]
            rng.shuffle(pairs)
            inputs.append((label, a, mods, gldim, pairs))
        rng.shuffle(inputs)
        return {"q": q, "inputs": inputs}

    def items(self, st, traced=False):
        ext = st["q"].ext_dims
        return [(label, lambda mods=mods, g=gldim, pairs=pairs:
                 [ext(mods[i], mods[j], g) for i, j in pairs])
                for label, _, mods, gldim, pairs in st["inputs"]]

    def check(self, st, label, exts):
        _, a, mods, gldim, pairs = next(x for x in st["inputs"]
                                        if x[0] == label)
        euler = oracles.EulerForm(a)
        for (i, j), e in zip(pairs, exts):
            if len(e) != gldim + 1 or any(d < 0 for d in e):
                return WRONG
            alt = sum(d if k % 2 == 0 else -d for k, d in enumerate(e))
            if alt != euler(mods[i].dims, mods[j].dims):
                return WRONG
        return OK if len(exts) == len(pairs) else WRONG


# -- cli cold --------------------------------------------------------------

# The two-way chain B_3 with its twist, as presented in the package README.
CHAIN_3 = b"""algebra two_way_chain_3
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


def _exact(n):
    return {"kind": "exact", "n": n}


def _analyze_223(doc):
    return doc["domdim"] == _exact(3) and doc["gldim"] == _exact(3)


def _resolve_455(doc):
    pds = [row["projdim"] for row in doc["simples"]]
    return len(pds) == 3 and any(
        pd["kind"] == "infinite" and pd.get("period") for pd in pds)


def _stratify_223(doc):
    # BGG reciprocity: dim A = sum of dim standard * dim proper costandard
    bgg = sum(sum(f["standard"]) * sum(f["proper_costandard"])
              for f in doc["families"])
    return (doc["order"] == [1, 2, 0] and doc["quasi_hereditary"] is True
            and doc["standardly_stratified"] is True and bgg == 7)


def _tilting_b3(doc):
    return doc["projdim"] == 2 and len(doc["summands"]) == 3


# name -> (top vertex, composition length) of the uniserial module it names
_UNISERIAL = [
    (r"S\((\d+)\)$", lambda g, k: (g[0], 1)),
    (r"P\((\d+)\)$", lambda g, k: (g[0], k[g[0]])),
    (r"rad P\((\d+)\)$", lambda g, k: (g[0] + 1, k[g[0]] - 1)),
    (r"P\((\d+)\)/soc$", lambda g, k: (g[0], k[g[0]] - 1)),
    (r"e(\d+)A/e\d+J(\d+)$", lambda g, k: (g[0], g[1])),
]


def _uniserial_dims(name, kupisch):
    """Dimension vector of a named uniserial over a cyclic Nakayama algebra
    (arrows i -> i+1), or None for a name that is not read here."""
    n = len(kupisch)
    for pat, top_length in _UNISERIAL:
        hit = re.match(pat, name)
        if hit:
            top, length = top_length([int(x) for x in hit.groups()], kupisch)
            dims = [0] * n
            for s in range(length):
                dims[(top + s) % n] += 1
            return dims
    return None


def _relar_45(doc):
    seqs = [r for r in doc["modules"] if r["status"] == "sequence"]
    for r in seqs:
        if r["ext1_dim"] < 1:
            return False
        dims = _uniserial_dims(r["module"], [4, 5])
        if dims is not None and [t + d for t, d in zip(r["translate"], dims)] \
                != r["middle"]:
            return False
    return bool(seqs)


def _chain_analyze(doc):
    return doc["domdim"] == _exact(4) and doc["gldim"] == _exact(4)


def _bound_zero(doc):
    return doc["projinj_vertices"] == oracles.nakayama_projinj([4, 5, 5])


# (label, arguments, stdin, check on the parsed report).  KNOWN_FAULT passes
# if it prints the projective-injective vertices of the default bound or
# refuses; it fails while --bound 0 reads a truncated dominant dimension as
# 0 and prints no vertices.
CLI_INPUTS = [
    ("analyze kupisch:2,2,3", ["analyze", "kupisch:2,2,3"], b"", _analyze_223),
    ("resolve kupisch:4,5,5", ["resolve", "kupisch:4,5,5"], b"", _resolve_455),
    ("stratify kupisch:2,2,3 --order 1,2,0",
     ["stratify", "kupisch:2,2,3", "--order", "1,2,0"], b"", _stratify_223),
    ("tilting bnlambda:3,1", ["tilting", "bnlambda:3,1"], b"", _tilting_b3),
    ("relar kupisch:4,5", ["relar", "kupisch:4,5"], b"", _relar_45),
    ("analyze - (two_way_chain_3)", ["analyze", "-"], CHAIN_3,
     _chain_analyze),
    ("analyze kupisch:4,5,5 --bound 0",
     ["analyze", "kupisch:4,5,5", "--bound", "0"], b"", _bound_zero),
]
KNOWN_FAULT = "analyze kupisch:4,5,5 --bound 0"


class CliCold:
    """A fresh `python -m quiverhom ... --format structured` per command,
    one at a time, in an order drawn from the seed.  Each runs through
    cli_child.py, which samples the machine's speed inside the child.  The
    first output of each command is kept so later rounds can be compared
    byte for byte."""

    name = "cli-cold"
    in_child = True  # items return (result, the child's speed samples)
    round_s = 5  # nominal seconds per round, sets the round count

    def __init__(self):
        self.first = {}
        self.peak_rss_kb = 0
        self.traced_outputs = []

    def setup(self, seed):
        # what every invocation pays before it computes
        package()
        import quiverhom.cli  # noqa: F401
        inputs = list(CLI_INPUTS)
        random.Random(seed).shuffle(inputs)
        return {"inputs": inputs, "seed": seed}

    def _invoke(self, label, args, stdin, traced, seed):
        """Run one command; returns ((exit code, stdout), the child's speed
        samples)."""
        argv = [sys.executable]
        if traced:
            out = os.path.join(OUT, "cli-%s-%d.json" % (
                re.sub(r"[^\w.-]+", "_", label), seed))
            argv += ["-X", "importtime"]
            err = out + ".err"
        else:
            out, err = os.path.join(OUT, "cli-last.json"), None
        if os.path.exists(out):
            os.remove(out)
        argv += [os.path.join(ROOT, "perfbench", "cli_child.py"), out,
                 "1" if traced else "0"] + args + ["--format", "structured"]
        code, stdout, usage = run_child(argv, stdin, err)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out) as fh:
            samples = speed.Counters(*json.load(fh)["speed"])
        if traced:
            self.traced_outputs.append(out)
        return (code, stdout), samples

    def items(self, st, traced=False):
        return [(label, lambda label=label, args=args, stdin=stdin:
                 self._invoke(label, args, stdin, traced, st["seed"]))
                for label, args, stdin, _ in st["inputs"]]

    def check(self, st, label, result):
        code, stdout = result
        check = next(c for lab, _, _, c in st["inputs"] if lab == label)
        if code != 0:
            return OK if label == KNOWN_FAULT else WRONG
        try:
            doc = json.loads(stdout)
        except ValueError:
            return WRONG
        if doc.get("schema_version") != 1:
            return WRONG
        if self.first.setdefault(label, stdout) != stdout:
            return WRONG
        if check(doc):
            return OK
        return FAILED if label == KNOWN_FAULT else WRONG


WORKLOADS = {w.name: w for w in (Registry, OrderSearch, ExtSweep, CliCold)}
