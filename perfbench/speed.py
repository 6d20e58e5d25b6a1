"""Speed correction for a shared host whose CPU speed changes under the run.

On a shared VM the same pass can take up to 1.7 times as long when a neighbour
loads the host, in CPU time as well as in wall time, and the host flips
between its fast and slow states within a second.  A median over passes
cannot remove that when a slow state lasts longer than a pass.

``SpeedProbe`` measures the speed the process actually got.  While it is
active, a ``SIGALRM`` interval timer interrupts the measured code every
``interval`` seconds, and the handler times a fixed pure-Python kernel
(``PROBE_S`` seconds long at reference speed).  Each stretch of measured code
between two probes is then scaled by ``PROBE_S / <duration of the probe that
ended it>``; the sum is the time the code would have taken at reference
speed.  Probe time itself is left out, so the correction adds no time of its
own to the result.  A change to the program moves the corrected time by the
same share as the raw time, because the probe does not touch permvar.

The kernel creates no garbage-collected objects, so a collection never runs
inside a probe.  Signals reach Python only between bytecodes, so a long call
into C delays the next probe; the stretch before it is still weighted by its
length.
"""

from __future__ import annotations

import signal
import time

# Seconds one kernel call takes on the reference machine (a shared 2-vCPU VM)
# in its fast state.  It only fixes the unit of the corrected times: seconds
# at the reference machine's speed.
PROBE_S = 1.0e-4

_TABLE = dict.fromkeys(range(64), 1)
_WORDS = [1 << 64] * 64
_MODULUS = 2**128 - 159


def kernel() -> int:
    """Fixed work like permvar's own: dict lookups and stores with small-int
    arithmetic (as over F_p), then multi-word integer products (as over QQ)."""
    t = _TABLE
    acc = 1
    for i in range(320):
        k = i & 63
        acc = (acc * 31 + t[k]) % 32003
        t[k] = acc
    w = _WORDS
    big = 3
    for i in range(190):
        k = i & 63
        big = (big * w[k] + i) % _MODULUS
        w[k] = big
    return acc + big


class SpeedProbe:
    """Context manager: raw and speed-corrected wall and CPU time of a block.

    After the block, ``wall_s`` and ``cpu_s`` are the raw times without the
    probes, ``corrected_wall_s`` and ``corrected_cpu_s`` the same times at
    reference speed, and ``samples`` the number of probes taken.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval

    def _probe(self, signum=None, frame=None):
        t0, c0 = time.perf_counter(), time.process_time()
        kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        self._scaled += (t0 - self._last) * PROBE_S / (t1 - t0)
        self._probe_wall += t1 - t0
        self._probe_cpu += c1 - c0
        self._speed = PROBE_S / (t1 - t0)
        self._last = t1
        self.samples += 1

    def __enter__(self):
        self._scaled = self._probe_wall = self._probe_cpu = 0.0
        self.samples = 0
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
        self._last = self._wall0
        self._probe()  # the first stretch is empty; this sets the opening speed
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        signal.signal(signal.SIGALRM, self._previous)
        # the stretch after the last probe runs at the last probe's speed
        self._scaled += (wall1 - self._last) * self._speed
        self.wall_s = wall1 - self._wall0 - self._probe_wall
        self.cpu_s = cpu1 - self._cpu0 - self._probe_cpu
        factor = self._scaled / self.wall_s if self.wall_s > 0 else 1.0
        self.corrected_wall_s = self._scaled
        self.corrected_cpu_s = self.cpu_s * factor
        return False
