"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a fixed number of whole rounds of the workload's fixed work, as many
as fill about S seconds at the workload's nominal round length (at least
one), checks every output, and prints one JSON line with `correct`,
`attempted`, `failed` and `metrics`.  The round count depends only on S, so
every run of a workload does the same work.

Times are read at a fixed reference speed of the machine (see speed.py):
the machine's speed is sampled inside the process that does the work, and
each measured interval is rescaled by it.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one round's items, set-up excluded, at the
               reference speed (the mean over the run's rounds)
  cpu_s        the same for CPU time, child processes included
  setup_s      median of three fresh processes, each timed from spawn until
               its inputs are built, at the reference speed; two before
               the rounds and one after them (one untimed process runs
               first, so a fresh checkout's bytecode is compiled before any
               is timed)
  peak_rss_mb  peak resident memory of this process, or of the largest
               command-line child on cli-cold
--trace 1 runs one untraced round and then one traced round, and reports
the per-layer metrics of the traced round (see spans.py).

Exits 2 without a result when the package source is not beside it.
"""
import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

import speed
from spans import Tracer, merge, per_layer, sympy_import_s
from workloads import FAILED, OK, OUT, SRC, WORKLOADS, WRONG, run_child

SETUP_PROBES = 3
IMPORT_PROBES = 3
HERE = os.path.dirname(os.path.abspath(__file__))


class Tally:
    """Measured time per item and in all, and the outcome counts."""

    def __init__(self):
        self.items = defaultdict(speed.Meter)
        self.all = speed.Meter()
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def round_wall(self):
        return self.all.at_ref(self.all.wall) / self.rounds

    def round_cpu(self):
        return self.all.at_ref(self.all.cpu) / self.rounds


def _cpu():
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def run_round(wl, seed, tally, sampler, traced=False):
    """One round from a fresh set-up; outputs are checked after it."""
    in_child = getattr(wl, "in_child", False)
    st = wl.setup(seed)
    outputs = []
    for label, fn in wl.items(st, traced):
        gc.collect()  # no item pays for, or peaks on, another's garbage
        s0 = sampler.snapshot()
        if not in_child:  # a child samples its own speed
            sampler.start()
        c0, t0 = _cpu(), time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as e:  # a raising item is a wrong answer
            out, err = None, e
        t1, c1 = time.perf_counter(), _cpu()
        sampler.stop()
        samples = sampler.snapshot().minus(s0)
        if in_child and err is None:
            out, samples = out
        tally.items[label].add(t1 - t0, c1 - c0, samples)
        tally.all.add(t1 - t0, c1 - c0, samples)
        outputs.append((label, out, err))
    tally.rounds += 1
    for label, out, err in outputs:
        tally.attempted += 1
        verdict = WRONG if err else wl.check(st, label, out)
        if verdict == FAILED:  # only the known fault on cli-cold
            tally.failed += 1
        elif verdict != OK:
            tally.correct = False
            print("%s: %s: %s" % (wl.name, label,
                                  repr(err) if err else "wrong output"),
                  file=sys.stderr)


def run_rounds(wl, seed, tally, count, traced=False):
    sampler = speed.Sampler()
    sampler.install()
    try:
        for _ in range(count):
            run_round(wl, seed, tally, sampler, traced)
    finally:
        sampler.uninstall()


def _probe(wl, seed):
    """Set-up seconds of one fresh process, at the reference speed."""
    t0 = time.perf_counter()
    code, out, _ = run_child([sys.executable,
                              os.path.join(HERE, "setup_probe.py"),
                              wl.name, str(seed)])
    wall = time.perf_counter() - t0
    if code != 0:
        raise SystemExit("set-up probe exited with %d" % code)
    m = speed.Meter()
    m.add(wall, 0.0, speed.Counters(*json.loads(out)))
    return m.at_ref(wall)


def untraced(wl, args):
    _probe(wl, args.seed)  # compiles bytecode on a fresh checkout
    # probes before and after the rounds meet more of the machine's states
    setups = [_probe(wl, args.seed)
              for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    tally = Tally()
    run_rounds(wl, args.seed, tally,
               max(1, int(args.seconds / wl.round_s + 0.5)))
    setups += [_probe(wl, args.seed) for _ in range(SETUP_PROBES // 2)]
    for label, m in tally.items.items():  # per-item reference figures
        print("%8.3f s  %s" % (m.at_ref(m.wall) / tally.rounds
                               if m.samples.n else m.wall / tally.rounds,
                               label), file=sys.stderr)
    rss_kb = getattr(wl, "peak_rss_kb", 0) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (tally.round_wall(), "s"),
        "cpu_s": (tally.round_cpu(), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return tally, metrics


def _import_probe(index):
    out = os.path.join(OUT, "import-%d.json" % index)
    code, _, _ = run_child([sys.executable, "-X", "importtime",
                            os.path.join(HERE, "cli_child.py"), out, "0"],
                           errpath=out + ".err")
    if code != 0:
        raise SystemExit("import probe exited with %d" % code)
    return out


def _read_child(out):
    with open(out) as fh:
        doc = json.load(fh)
    with open(out + ".err") as fh:  # -X importtime log, raw seconds
        sympy_s = sympy_import_s(fh.read()) * doc["import_factor"]
    return doc, sympy_s


def traced(wl, args):
    plain, tally = Tally(), Tally()
    run_rounds(wl, args.seed, plain, 1)
    if wl.name == "cli-cold":
        run_rounds(wl, args.seed, tally, 1, traced=True)
        children = [_read_child(out) for out in wl.traced_outputs]
        totals = merge(doc["totals"] for doc, _ in children)
    else:
        _import_probe(0)  # compiles bytecode on a fresh checkout
        children = [_read_child(_import_probe(i + 1))
                    for i in range(IMPORT_PROBES)]
        tr = Tracer()
        tr.install()
        try:
            run_rounds(wl, args.seed, tally, 1)
        finally:
            tr.uninstall()
        totals = merge([tr.totals()])
        tr.write_spans(os.path.join(OUT, "trace-%s-%d.spans.gz"
                                    % (wl.name, args.seed)))
    import_s = statistics.median(doc["import_s"] for doc, _ in children)
    sympy_s = statistics.median(s for _, s in children)
    overhead = tally.round_wall() - plain.round_wall()
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.correct = tally.correct and plain.correct
    return tally, per_layer(totals, import_s, sympy_s, overhead)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quiverhom", "__init__.py")):
        print("error: no package source at %s" % SRC, file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    tally, metrics = (traced if args.trace else untraced)(wl, args)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
