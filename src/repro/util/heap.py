"""A process-wide pause of the cyclic garbage collector.

A cold open builds tens of thousands of long-lived objects; with the
collector on, the allocations set off young collections that walk the
objects the open just built.  Recovery and the registry's cold opens
therefore run inside :func:`collector_paused`.  The collector belongs to
the whole process, so the pause is counted process-wide: overlapping
pauses (two registries, or recovery inside a registry open) keep it off
until the last one ends, and only then is it re-enabled — and only if it
was enabled when the first of them began.  The pause leaves a heap
frozen with :func:`gc.freeze` frozen.  What the pause built stays in the
young generation, so unless it is frozen before the pause ends (as the
registry does), the first young collection afterwards walks it once.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_pauses = 0
_was_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector disabled (see the module
    docstring); the collector's prior state is restored on any exit."""
    global _pauses, _was_enabled
    with _lock:
        if _pauses == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _pauses += 1
    try:
        yield
    finally:
        with _lock:
            _pauses -= 1
            if _pauses == 0 and _was_enabled:
                gc.enable()
