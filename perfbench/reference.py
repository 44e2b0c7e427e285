"""Clocks that run at a fixed reference speed of the host.

The benchmark runs on shared hosts whose speed for a plain Python loop can
change by up to about 2x, in stretches from a fraction of a second to
minutes. So that a run measures the library and not the host's current
speed, the benchmark times its work with a `Clock`: an interval timer
interrupts the program every EVERY_S seconds, short fixed pieces of
reference work (kernels) are timed, and until the next tick a timer that
follows kernel K advances by

    wall seconds * NOMINAL_S[K] / (median seconds of one slice of K)

where the median is over the readings of the last WINDOW ticks, which damps
the noise of a single reading and follows a change of speed within about
a tenth of a second. The reference work itself is left out of every timer.
A reported time is the time the work would take on a host where one slice
of K takes NOMINAL_S[K].

Not all code slows down alike when the host does, so each workload times
its requests with the kernel that resembles them: `gf` for GF(2^8)
elimination (repair, encode, reconstruct, coefficient search), `cut` for
the min-cut oracle's scan over a large list of scenarios. The kernels are
frozen here, apart from the library, so no change to `src/` moves them.
"""

import signal
import statistics
import time
from fractions import Fraction

# seconds of one slice of each kernel at the reference speed (a 2-vCPU x86 VM, Python 3.11)
NOMINAL_S = {"gf": 0.00045, "cut": 0.0003}
SIZE = 10  # order of the GF(2^8) system the gf kernel solves
CUT_K, CUT_CHUNK = 16, 200  # the cut kernel scans 200 of the 20569 scenarios of k=16, e<=4
EVERY_S = 0.05  # seconds between two speed readings
SLICES = 7  # slices of each kernel per reading
WINDOW = 3  # a timer's speed is the median of this many last readings


class _Field:
    """GF(2^8) with modulus 0x11D, tables only."""

    def __init__(self):
        self.exp = [0] * 512
        self.log = [0] * 256
        x = 1
        for i in range(255):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x & 0x100:
                x ^= 0x11D
        for i in range(255, 512):
            self.exp[i] = self.exp[i - 255]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        return self.exp[255 - self.log[a]]


_FIELD = _Field()
# a fixed Cauchy matrix, nonsingular over GF(2^8), with a right-hand side
_MATRIX = [[_FIELD.inv(i ^ (SIZE + j)) for j in range(SIZE)] + [i + 1] for i in range(SIZE)]
_FRACTIONS = [Fraction(3 * i + 1, 2 * i + 7) for i in range(24)]


def _gf_slice():
    """Gauss-Jordan over GF(2^8) plus a little Fraction arithmetic, the
    interpreted work of repair, encode and reconstruct."""
    mul, inv = _FIELD.mul, _FIELD.inv
    aug = [row[:] for row in _MATRIX]
    for col in range(SIZE):
        row = aug[col]
        pinv = inv(row[col])
        for j in range(col, SIZE + 1):
            row[j] = mul(row[j], pinv)
        for r in range(SIZE):
            f = aug[r][col]
            if r == col or f == 0:
                continue
            rr = aug[r]
            for j in range(col, SIZE + 1):
                if row[j]:
                    rr[j] ^= mul(f, row[j])
    total = Fraction(0)
    for a in _FRACTIONS:
        total = max(total, a * 2 - total / 3)
    return sum(row[-1] for row in aug) + total.numerator


def _compositions(k, emax):
    """Every composition of k with parts 1..emax, with running prefix sums."""
    if k == 0:
        return [((), ())]
    out = []
    for part in range(1, min(emax, k) + 1):
        for u, pref in _compositions(k - part, emax):
            out.append(((part,) + u, (0,) + tuple(p + part for p in pref)))
    return out


class _Cuts:
    """A cut-sum scan over a large list of scenarios, the work of the
    min-cut oracle: each slice takes the next CUT_CHUNK scenarios, so the
    scan walks memory that is not in cache, as the oracle's does."""

    def __init__(self):
        self.scenarios = None
        self.offset = 0

    def __call__(self):
        if self.scenarios is None:
            self.scenarios = _compositions(CUT_K, 4)
        chunk = self.scenarios[self.offset : self.offset + CUT_CHUNK]
        self.offset = (self.offset + CUT_CHUNK) % (len(self.scenarios) - CUT_CHUNK)
        a, b, d = 3, 2, CUT_K + 2
        best = None
        for u, pref in chunk:
            acc = 0
            for ui, pi in zip(u, pref):
                x = ui * a
                y = (d - pi) * b
                acc += x if x < y else y
            if best is None or acc < best:
                best = acc
        return best


KERNELS = {"gf": _gf_slice, "cut": _Cuts()}


def slice_seconds(kernels, slices):
    """Median seconds of one slice of every kernel named, over `slices`
    back-to-back slices."""
    times = []
    for _ in range(slices):
        t0 = time.perf_counter()
        for name in kernels:
            KERNELS[name]()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Timer:
    """Reference seconds that follow one kernel; read it by calling it."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.state = None  # (wall seconds, timer seconds, speed) at the last tick

    def __call__(self):
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGALRM,))
        wall, clock, speed = self.state
        now = clock + (time.perf_counter() - wall) * speed
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return now


class Clock:
    """One timer per kernel named, running while the clock is started.

    Reading a timer blocks SIGALRM, so a tick never lands between taking
    its state and the wall time. One process starts one clock at a time.
    """

    def __init__(self, kernels):
        self.timers = {name: Timer(name) for name in kernels}
        self.readings = {name: [] for name in kernels}  # median slice seconds per tick
        self.reference_s = 0.0  # wall seconds spent in reference work

    def speeds(self, kernel):
        """Every reading of a kernel, as host speed over the reference speed."""
        return [NOMINAL_S[kernel] / seconds for seconds in self.readings[kernel]]

    def start(self):
        self._read(time.perf_counter(), {name: 0.0 for name in self.timers})
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def _read(self, t0, now):
        """Take one reading of every kernel; `now` holds each timer's
        seconds at wall time t0, when the reading started."""
        for name, readings in self.readings.items():
            readings.append(slice_seconds((name,), SLICES))
        t1 = time.perf_counter()
        self.reference_s += t1 - t0
        for name, timer in self.timers.items():
            speed = NOMINAL_S[name] / statistics.median(self.readings[name][-WINDOW:])
            timer.state = (t1, now[name], speed)

    def _tick(self, signum, frame):
        signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGALRM,))
        try:
            t0 = time.perf_counter()
            now = {}
            for name, timer in self.timers.items():
                wall, clock, speed = timer.state
                now[name] = clock + (t0 - wall) * speed
            self._read(t0, now)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGALRM,))
