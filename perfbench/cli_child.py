"""One command-line invocation, measured from inside its own process.

    python3 perfbench/cli_child.py OUT TRACE [command args...]

Samples the machine's speed (see speed.py) from the start of `main`, times
the package import, then runs `quiverhom.cli.main` on the arguments, as
`python -m quiverhom` does.  With TRACE 1 every layer is wrapped (see
spans.py) and the spans go to OUT.spans.gz.  Writes JSON to OUT: the import
time at the reference speed with its ratio to the raw time, the speed
samples, and the span totals.  With no command it only imports, which is
how the workloads other than cli-cold measure the import.
"""
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))
import speed  # noqa: E402


def main():
    sampler = speed.Sampler()
    sampler.install()
    sampler.start()
    out, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    s0, t0 = sampler.snapshot(), perf_counter()
    import quiverhom.cli
    imp = speed.Meter()
    imp.add(perf_counter() - t0, 0.0, sampler.snapshot().minus(s0))
    code, totals, tr = 0, None, None
    try:
        if argv:
            if trace:
                from spans import Tracer
                tr = Tracer()
                tr.install()
            code = quiverhom.cli.main(argv)
            sys.stdout.flush()
    finally:
        sampler.stop()
        sampler.uninstall()
        if tr is not None:
            tr.uninstall()
            totals = tr.totals()
            tr.write_spans(out + ".spans.gz")
        # import seconds at the reference speed over raw seconds
        factor = imp.at_ref(imp.wall) / imp.wall if imp.samples.n else 1
        with open(out, "w") as fh:
            json.dump({"import_s": imp.wall * factor,
                       "import_factor": factor,
                       "speed": sampler.total.as_list(),
                       "totals": totals}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
