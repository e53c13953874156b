"""How many processes ``scan`` and ``train`` may fork: one rule for both."""

from __future__ import annotations

import os


def usable_cpus() -> tuple[int, bool]:
    """The CPUs this process may run on, and whether it can fork.

    The count is the process's CPU affinity where the platform reports
    one, so ``taskset`` and container cpusets are honoured, and the
    machine's CPU count elsewhere. ``multiprocessing`` is imported on the
    first call, not with the package.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    import multiprocessing
    return cpus, "fork" in multiprocessing.get_all_start_methods()
