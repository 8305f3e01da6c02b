"""Deterministic replay: capture a failing TRIM session, re-run it exactly.

The crash matrices and race sweeps (PRs 2–6) shake failures out; this
package makes any failure they see *portable*: a versioned, schema-
validated **replay bundle** (:mod:`repro.replay.bundle`) records the
operation stream, seeds, interleaving hints, and injected crash point of
a durable session, and the **replayer** (:mod:`repro.replay.replayer`)
re-executes the bundle against a fresh store and asserts byte-identical
recovered state via canonical digests (:mod:`repro.replay.digest`).
Capture is a tap on a live ``TrimManager`` (:mod:`repro.replay.capture`);
``python -m repro replay`` drives record/run/verify from the shell.

See DESIGN.md §13 for the architecture and the regression-gate policy
this pairs with (``benchmarks/check_floors.py --baseline``).
"""

from repro.replay.bundle import (BUNDLE_KIND, BUNDLE_VERSION, MAX_OPS,
                                 MAX_TEXT, make_bundle, validate_bundle)
from repro.replay.bundle import dumps as dump_bundle
from repro.replay.bundle import load as load_bundle
from repro.replay.bundle import loads as loads_bundle
from repro.replay.bundle import save as save_bundle
from repro.replay.capture import CaptureTap
from repro.replay.digest import canonical_lines, state_digest
from repro.replay.replayer import ReplayResult, replay, replay_check

__all__ = [
    "BUNDLE_KIND",
    "BUNDLE_VERSION",
    "MAX_OPS",
    "MAX_TEXT",
    "CaptureTap",
    "ReplayResult",
    "canonical_lines",
    "dump_bundle",
    "load_bundle",
    "loads_bundle",
    "make_bundle",
    "replay",
    "replay_check",
    "save_bundle",
    "state_digest",
    "validate_bundle",
]
