"""Machine-speed reference: puts the benchmark's timings on one speed scale.

The 2-core VM the benchmark was defined on changes speed by 30% and more
over minutes, and a run is too short to average that out.  So the harness
times a fixed pure-Python kernel right before each timed solve (and in the
interpreter of each timed import), and divides that solve's time by

    speed_factor = kernel seconds / KERNEL_S,

where ``KERNEL_S`` is the kernel's median time on that VM when the benchmark
was defined.  The factor is above 1 while the machine runs slow.  A scaled
time is therefore the time the solve would have taken at the defining
speed, and a change to the program moves it as it moves the raw time: the
kernel shares no code or data with topocut.

The kernel mixes the three kinds of work topocut does: a BFS over adjacency
lists larger than the per-core cache (pointer chasing), integer arithmetic,
and dict inserts (allocation and hashing).  Each one alone tracked the
drift less well than the mix.  A buffer is read before the timed part, so
the BFS starts from a cold per-core cache whatever ran before it.
"""

from __future__ import annotations

import random
import statistics
import time

# Median of ``Reference.seconds()`` on the 2-core Xeon VM (Python 3.11.7)
# when the benchmark was defined.
KERNEL_S = 0.0200

GRAPH_N = 20_000
GRAPH_EXTRA_EDGES = 10_000
ARITH_STEPS = 60_000
DICT_INSERTS = 20_000
FLUSH_BYTES = 4 << 20  # twice the 2 MiB per-core cache


class Reference:
    """The kernel and its fixed data, built once per process."""

    def __init__(self) -> None:
        rng = random.Random(0)
        adj: list[set[int]] = [set() for _ in range(GRAPH_N)]
        for v in range(1, GRAPH_N):
            u = rng.randrange(v)
            adj[u].add(v)
            adj[v].add(u)
        for _ in range(GRAPH_EXTRA_EDGES):
            u, v = rng.sample(range(GRAPH_N), 2)
            adj[u].add(v)
            adj[v].add(u)
        self.adj = [sorted(s) for s in adj]
        self.flush = b"\x00" * FLUSH_BYTES  # written, so its pages are real
        self.seconds()  # warm-up, untimed

    def seconds(self) -> float:
        """Time one pass of the kernel."""
        self.flush.find(1)  # reads the whole buffer: it holds only zeros
        start = time.perf_counter()
        adj = self.adj
        dist = [-1] * len(adj)
        dist[0] = 0
        queue = [0]
        for x in queue:
            dx = dist[x] + 1
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dx
                    queue.append(y)
        acc = 0
        for i in range(ARITH_STEPS):
            acc += i * i % 7
        table = {}
        for i in range(DICT_INSERTS):
            table[i * 7919 % 100_003] = i * i
        return time.perf_counter() - start


def speed_factor(kernel_seconds: list[float]) -> float:
    """How much slower than at definition the machine ran the kernel."""
    return statistics.median(kernel_seconds) / KERNEL_S
