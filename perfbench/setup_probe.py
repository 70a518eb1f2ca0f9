"""One set-up, measured from inside a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Samples the machine's speed (see speed.py) from the start of `main`,
builds the workload's inputs as a run does before its first timed
operation, and prints the speed samples as one JSON list.  The parent
times the process from spawn to exit.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402


def main():
    sampler = speed.Sampler()
    sampler.install()
    sampler.start()
    from workloads import WORKLOADS  # imported under the sampler: set-up
    WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]))
    sampler.stop()
    print(sampler.total.as_list())
    sys.stdout.flush()
    os._exit(0)  # skip interpreter teardown: set-up ends here


if __name__ == "__main__":
    main()
