"""Peak resident memory of one build, summed over the host and its children.

Writing ``5`` to ``/proc/<pid>/clear_refs`` resets that process's peak
resident set (``VmHWM``) to its current resident set, so ``VmHWM`` read
after the build is the peak the build reached, and that peak minus the
resident set read at the reset is what the build added on top of its
post-setup baseline.  Children (the process pool's workers) are found
through ``/proc/<pid>/task/<tid>/children``.  Pages a forked worker still
shares with the host count once per process, as ``top`` shows them.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Tuple


def _children(pid: int) -> List[int]:
    found: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            found += [int(child) for child in (task / "children").read_text().split()]
        except FileNotFoundError:  # the thread ended while listing
            continue
    return found


def _status_kb(pid: int, field: str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(f"{field} missing from /proc/{pid}/status")


class PeakMemory:
    """Reset the peaks of this process tree, then read how far they rose."""

    def __init__(self) -> None:
        self._baseline_kb: Dict[int, int] = {}

    def reset(self) -> None:
        pids = [os.getpid()] + _children(os.getpid())
        self._baseline_kb = {}
        for pid in pids:
            Path(f"/proc/{pid}/clear_refs").write_text("5")
            self._baseline_kb[pid] = _status_kb(pid, "VmRSS")

    def read(self) -> Tuple[int, int]:
        """``(peak, rise)`` in bytes, summed over the tree: the peak resident
        set since :meth:`reset`, and how far it rose above the reset baseline."""
        peak_kb = rise_kb = 0
        for pid, baseline in self._baseline_kb.items():
            high = _status_kb(pid, "VmHWM")
            peak_kb += high
            rise_kb += max(0, high - baseline)
        return peak_kb * 1024, rise_kb * 1024
