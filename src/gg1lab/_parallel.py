"""Independent runs on every usable core, with results in task order.

A run's result is a pure function of its arguments, so where a run
happens changes no bit of it: the pool only changes how long the whole
map takes.
"""

from __future__ import annotations

import os

# Summed simulation events (about 2 per customer) below which the runs
# stay in process.  Measured on 2 CPUs (Python 3.11) with the demo sweep
# cut to 12 runs, three sessions, median of 7 each, serial against
# pooled: 32-45 against 41-49 ms at 192k events, 57-68 against 54-67 ms
# at 288k, 62-107 against 59-79 ms at 384k and 146-185 against 96-124 ms
# at 600k.  The pool's fixed cost is 25-30 ms (fork two workers, ship
# the results back, stop them) and the crossover about 300k events; the
# threshold sits above it, so that runs where a pool would gain little
# also skip the 2-30 ms first import of multiprocessing.
POOL_MIN_EVENTS = 500_000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def map_in_order(fn, tasks, events: float) -> list:
    """``[fn(*t) for t in tasks]``, run on up to one forked worker per
    usable CPU when ``events``, the caller's estimate of the simulation
    events summed over all tasks, reaches ``POOL_MIN_EVENTS``.  With one
    usable CPU, no ``fork`` start method, or inside a pool's worker, the
    tasks run in process.  A pool is made for each call, so workers see
    the module state of the moment.  An exception in a task reaches the
    caller as itself, so it must survive pickling."""
    tasks = list(tasks)
    workers = min(_usable_cpus(), len(tasks))
    if workers > 1 and events >= POOL_MIN_EVENTS:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker imports numpy and gg1lab
        # afresh (about 0.5 s here) and misses the caller's module state.
        # multiprocessing.Pool would wait forever on a worker that dies
        # or a result that fails to unpickle; the executor raises
        # BrokenProcessPool.  A daemonic process (a Pool's worker) may
        # not start workers.
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                return list(pool.map(fn, *zip(*tasks)))
    return [fn(*t) for t in tasks]
