"""Host-speed calibration: a fixed pure-Python probe timed between harness calls.

The machine the benchmark was written on gives it 2 vCPUs of a shared host
whose speed changes in phases of a few seconds: the same Python loop takes
anywhere from 1.0x to 1.5x its fastest time, in user CPU time as well as wall
time, so it is the CPU that slows, not the scheduler that steals.  A run of
35 s catches a different mix of phases on every run, and its wall-clock
trial rate spread by up to a quarter from run to run.

The probe below imports nothing from rumorlab, so no change to the program
can change its time.  ``sample()`` times it once; the benchmark takes one
sample before and one after each harness call and divides the call's wall
time by the host speed ``REFERENCE_S / sample`` at that moment.  The result
is the call's wall time at the reference speed.

The probe mixes the two kinds of work rumorlab's trials do: integer
arithmetic in a loop, and building a random tree in dicts and lists through
a heap, then walking it breadth first.  Its time is the geometric mean of the
two parts, each about 5 ms.
"""

import heapq
import random
import time

# Probe seconds at the reference speed: a round figure near the probe's time
# in the faster phases of the 2-vCPU host the benchmark was written on
# (CPython 3.11; its median there is about 5.9 ms).  Only ratios of samples
# to it matter; it sets the scale of the reported figures.
REFERENCE_S = 0.005


def _arith():
    s = 0
    for i in range(60000):
        s += i * i % 7
    return s


def _tree(nodes=3000, fanout=3):
    rng = random.Random(12345)
    adj = {0: []}
    heap = [(0.0, 0)]
    n = 1
    while n < nodes:
        t, u = heapq.heappop(heap)
        for _ in range(fanout):
            adj[u].append(n)
            adj[n] = [u]
            heapq.heappush(heap, (t + rng.expovariate(1.0), n))
            n += 1
    dist = {0: 0}
    queue = [0]
    for u in queue:
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return sum(dist.values())


def sample():
    """Seconds of one probe: geometric mean of its two parts."""
    t0 = time.perf_counter()
    _arith()
    t1 = time.perf_counter()
    _tree()
    t2 = time.perf_counter()
    return ((t1 - t0) * (t2 - t1)) ** 0.5


def speed(seconds):
    """Host speed relative to the reference, from one or more probe seconds."""
    return REFERENCE_S / seconds
