"""How many cores this process may actually run on."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """Scheduler-affinity core count -- on cgroup-limited containers the
    number that actually bounds multi-thread and multi-process scaling."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-linux
