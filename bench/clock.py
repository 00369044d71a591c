"""A clock that reads in seconds at a fixed reference speed of the host.

The hosts this benchmark runs on are shared: the same code runs up to twice
as slow for stretches of seconds to minutes, and a thread's CPU time slows
down just as much as its wall time.  So the worker times everything with
this clock instead.  Every `INTERVAL_S` of wall time a SIGALRM handler runs
`reference_loop`, a fixed piece of pure-Python work, and times it.  The time
between two ticks is scaled by REF_NS / (median of the last WINDOW reference
samples), so a stretch during which the reference loop runs 1.5 times slower
counts 1.5 times less.  The time spent in the reference loop itself is
charged to nothing.  Over one 25 s run, six passes of the big-circuit
workload took 3.74 to 5.24 s of wall time and 3.14 to 3.27 s on this clock.

    clock = RefClock()
    clock.start()
    t0 = clock.now()
    ...
    elapsed_ns = clock.now() - t0
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

#: Wall time between two reference samples.
INTERVAL_S = 0.02

#: Reference samples whose median sets the current speed.
WINDOW = 3

#: Samples taken when the clock starts, before the first tick.
WARMUP = 3

#: One reference loop at the reference speed, in ns: about its fastest on a
#: 2-vCPU x86-64 host with Python 3.11.  It only sets the unit of the clock.
REF_NS = 600_000


def reference_loop() -> int:
    """Integer arithmetic, dict stores and a list build: the interpreter work
    domrec's kernels are made of."""
    table = {}
    acc = 0
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x >> 3
        table[x & 1023] = acc
    return acc + len(table) + sum([j & 7 for j in range(1000)])


class RefClock:
    """`now()` is the reference-speed time in ns since the clock was made.

    The state (reference ns at the last tick, wall ns at the end of that
    tick, current scale) is one tuple swapped whole by the tick, and `now`
    retries if a tick lands while it reads, so a reading never mixes two
    ticks.
    """

    def __init__(self):
        self.samples: list[int] = []
        self._state = (0.0, perf_counter_ns(), 1.0)
        self._previous_handler = None

    def start(self):
        for _ in range(WARMUP):
            self._tick()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def _tick(self, signum=None, frame=None):
        entered = perf_counter_ns()
        reference, last, scale = self._state
        reference += (entered - last) * scale
        start = perf_counter_ns()
        reference_loop()
        self.samples.append(perf_counter_ns() - start)
        window = sorted(self.samples[-WINDOW:])
        scale = REF_NS / window[len(window) // 2]
        self._state = (reference, perf_counter_ns(), scale)

    def now(self) -> float:
        while True:
            state = self._state
            wall = perf_counter_ns()
            if state is self._state:
                return state[0] + (wall - state[1]) * state[2]
