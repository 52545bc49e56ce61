"""Exception types shared across the solvers, and the memory guard."""

from __future__ import annotations

import functools
import math
import mmap
import os
import sys

try:
    import resource
except ImportError:  # Windows has no rlimits and no getrusage
    resource = None

#: Share of the memory available at the first check that the process may
#: use.  Memos check on their first insertion and every CHECK_EVERY after.
MEMORY_FRACTION = 0.5
CHECK_EVERY = 1 << 14


class ResourceLimitError(RuntimeError):
    """Memory use passed the fixed memory budget while a memo grew."""


class StrategyInapplicableError(ValueError):
    """The requested strategy does not apply to the given position."""


class InvariantError(RuntimeError):
    """An internal invariant that should be unbreakable was violated."""


@functools.lru_cache(maxsize=None)
def memory_budget() -> float:
    """MEMORY_FRACTION of the memory available at the first call: Linux's
    MemAvailable, else the free physical pages, and no more than the
    address-space limit (``ulimit -v``).  Tests substitute this function."""
    limit = math.inf
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        limit = math.inf if soft == resource.RLIM_INFINITY else soft
    try:
        with open("/proc/meminfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return MEMORY_FRACTION * min(int(line.split()[1]) * 1024, limit)
    except OSError:
        pass
    try:
        return MEMORY_FRACTION * min(os.sysconf("SC_AVPHYS_PAGES") * mmap.PAGESIZE, limit)
    except (AttributeError, ValueError, OSError):
        return MEMORY_FRACTION * limit


def check_memory(memo) -> None:
    """Raise ResourceLimitError once resident memory (Linux's statm, else
    the getrusage peak, else unchecked) plus the table that the dict or set
    ``memo`` allocates at its next resize, twice its current one while the
    old one is still held, passes the budget."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            resident = int(fh.read().split()[1]) * mmap.PAGESIZE
    except OSError:
        if resource is None:
            return
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        resident = peak if sys.platform == "darwin" else peak * 1024
    resize, budget = 2 * sys.getsizeof(memo), memory_budget()
    if resident + resize > budget:
        raise ResourceLimitError(
            f"memory budget exceeded: {resident >> 20} MB resident + {resize >> 20} MB "
            f"for the next memo resize > {budget / 2**20:.0f} MB, {MEMORY_FRACTION:.0%} "
            "of the memory available at the first check"
        )
