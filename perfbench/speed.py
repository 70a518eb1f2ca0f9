"""Machine-speed sampling, so timings can be read at one fixed speed.

The CPU speed of a shared machine moves under the benchmark: the same
fixed work takes anywhere from 1.0x to 2x its best time, within seconds
and from one minute to the next.  A timer signal therefore interrupts the
measured process every PERIOD seconds and times a short fixed reference
computation (`_reference`, about REF_S seconds at full speed) right there,
on the same CPU and between the same bytecodes as the measured work.  Each
sample gives the speed at that moment as REF_S / its duration.

A measured interval of R seconds that held n samples of total duration B
is reported as (R - B) * mean(REF_S / d_i): the time the work itself took,
rescaled to the reference speed.  A change to the program moves that
figure as it moves the work; a slow phase of the machine moves the work
and the reference together and cancels.

A child process that should be measured the same way runs a Sampler of
its own and hands its `Counters` back.
"""
import signal
from fractions import Fraction
from time import perf_counter

PERIOD = 0.0125
REF_S = 0.00035
_ROW = [Fraction(i, 7) for i in range(1, 9)]


def _reference():
    acc = Fraction(0)
    for _ in range(15):
        for j in range(8):
            acc += _ROW[j] * _ROW[7 - j]
    return acc


class Counters:
    """Samples taken so far: count, their total duration, sum of speeds."""

    def __init__(self, n=0, busy=0.0, speed=0.0):
        self.n, self.busy, self.speed = n, busy, speed

    def minus(self, other):
        return Counters(self.n - other.n, self.busy - other.busy,
                        self.speed - other.speed)

    def add(self, other):
        self.n += other.n
        self.busy += other.busy
        self.speed += other.speed

    def as_list(self):
        return [self.n, self.busy, self.speed]


class Sampler:
    """The speed samples of this process.  A process has one interval timer,
    so one Sampler is installed at a time; samples are taken only between
    `start` and `stop`."""

    def __init__(self):
        self.total = Counters()
        self.on = False

    def _sample(self, signum, frame):
        if not self.on:
            return
        t0 = perf_counter()
        _reference()
        d = perf_counter() - t0
        self.total.n += 1
        self.total.busy += d
        self.total.speed += REF_S / d

    def install(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start(self):
        self.on = True

    def stop(self):
        self.on = False

    def snapshot(self):
        return Counters(self.total.n, self.total.busy, self.total.speed)


class Meter:
    """Raw wall and CPU seconds of the measured intervals, with the samples
    taken inside them."""

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.samples = Counters()

    def add(self, wall, cpu, samples):
        self.wall += wall
        self.cpu += cpu
        self.samples.add(samples)

    def scale(self):
        if not self.samples.n:
            raise RuntimeError("no speed sample fell in a measured interval")
        return self.samples.speed / self.samples.n

    def at_ref(self, raw):
        """Raw seconds, less the samples' own time, at the reference
        speed."""
        return (raw - self.samples.busy) * self.scale()
