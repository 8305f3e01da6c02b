"""Run ``repro serve`` with timing wrappers around each layer's calls.

Usage::

    PYTHONPATH=src python perfbench/traced_serve.py --spans OUT.json \\
        serve ROOT --port 0

The program is not changed: before the CLI starts, this launcher
replaces public functions of each layer with wrappers that record a
span (name, start, end, parent, request id) per call.  Spans are kept in
memory and written to ``OUT.json`` when the server exits.  Clocks are
``time.perf_counter`` (CLOCK_MONOTONIC), the same clock the load client
uses, so client and server spans of one request id line up.

Layers and the calls wrapped:

- ``service``: ``protocol.decode_frame`` + ``validate_request``
  (``service.decode``), ``protocol.encode_frame`` (``service.encode``),
  the ``READS`` handlers (``service.read_exec``), the mutation thunks run
  by the tenant writer thread (``service.apply``) and the wait from
  ``TenantHandle.submit`` to the thunk's start (``service.queue_wait``).
  ``service.request`` spans one request from frame decode to response
  encode.
- ``registry``: ``PadRegistry.acquire`` when it opens a tenant
  (``registry.open``) and ``PadRegistry.evict_idle`` (``registry.evict``).
- ``dmi``: ``DmiRuntime`` create / add_ref / update / value / get / all.
- ``triples``: ``TrimManager`` select / query / count / create,
  ``TripleStore.remove_matching`` and ``views.reachable_triples``.
- ``wal``: ``WriteAheadLog.append``, ``TrimManager.commit``,
  ``Durability.delta_compact`` and ``Durability.compact``; plus the
  recovery stage seconds of every tenant open.

A span's *self* time is its duration minus its children's, so nested
layers are not counted twice.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time

now = time.perf_counter


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        #: (id, parent, name, start, end, self_seconds, request_id, count)
        self.spans = []
        #: (time, recovery stage seconds) per tenant open.
        self.opens = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.rid = contextvars.ContextVar("rid", default=None)
        self.frame_start = contextvars.ContextVar("frame_start",
                                                  default=None)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, rid=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[4]
        # [id, name, start, child seconds, request id, parent id, count]
        frame = [next(self._ids), name, now(), 0.0, rid,
                 parent[0] if parent is not None else 0, 0]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = now()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][3] += duration
        self.spans.append((frame[0], frame[5], frame[1], frame[2], end,
                           duration - frame[3], frame[4], frame[6]))

    def record(self, name: str, start: float, end: float, rid=None) -> None:
        """A leaf span timed by the caller (no stack involvement)."""
        self.spans.append((next(self._ids), 0, name, start, end, end - start,
                           rid, 0))

    def changes(self) -> int:
        """Triple changes applied on this thread so far."""
        return getattr(self._local, "changes", 0)

    def count_change(self, action, statement, sequence) -> None:
        """Store listener: one triple added or removed on this thread."""
        self._local.changes = getattr(self._local, "changes", 0) + 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "opens": self.opens}, handle,
                      separators=(",", ":"))


def _wrap(tracer: Tracer, owner, attr: str, name: str, count=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    *count* (optional) maps the call's result to the span's count field.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = original(*args, **kwargs)
            if count is not None:
                frame[6] = count(result)
            return result
        finally:
            tracer.exit(frame)

    setattr(owner, attr, traced)


class _TracedTable(dict):
    """An op table whose ``get`` hands out per-request traced callables.

    The server looks ops up in its task's context, right after the
    request was validated, so the request id is still in the context
    variable here even though the callable later runs on another thread.
    """

    def __init__(self, base: dict, wrap) -> None:
        super().__init__(base)
        self._wrap = wrap

    def get(self, op, default=None):
        fn = super().get(op)
        return default if fn is None else self._wrap(fn)


def install(tracer: Tracer) -> None:
    """Wrap every traced call of every layer."""
    from repro.dmi.runtime import DmiRuntime
    from repro.service import protocol, registry, server
    from repro.triples.store import TripleStore
    from repro.triples.trim import TrimManager
    from repro.triples.wal import Durability, WriteAheadLog

    # -- service: framing --------------------------------------------------
    decode_frame = protocol.decode_frame
    validate_request = protocol.validate_request
    encode_frame = protocol.encode_frame

    def traced_decode(line):
        tracer.frame_start.set(now())
        return decode_frame(line)

    def traced_validate(envelope):
        result = validate_request(envelope)
        tracer.rid.set(result[0])
        tracer.record("service.decode", tracer.frame_start.get(), now(),
                      result[0])
        return result

    def traced_encode(envelope):
        started = now()
        frame = encode_frame(envelope)
        ended = now()
        rid = envelope.get("id")
        tracer.record("service.encode", started, ended, rid)
        begun = tracer.frame_start.get()
        if begun is not None:
            tracer.record("service.request", begun, ended, rid)
            tracer.frame_start.set(None)
        return frame

    protocol.decode_frame = traced_decode
    protocol.validate_request = traced_validate
    protocol.encode_frame = traced_encode

    # -- service: read handlers and write thunks ----------------------------
    def wrap_read(fn):
        rid = tracer.rid.get()

        def traced_read(handle, params):
            frame = tracer.enter("service.read_exec", rid)
            try:
                return fn(handle, params)
            finally:
                tracer.exit(frame)
        return traced_read

    def wrap_mutation(mutation):
        rid = tracer.rid.get()

        def traced_mutation(handle, params):
            thunk = mutation(handle, params)

            def traced_thunk():
                started = now()
                enqueued = traced_thunk.enqueued
                if enqueued is not None:
                    tracer.record("service.queue_wait", enqueued, started,
                                  rid)
                frame = tracer.enter("service.apply", rid)
                before = tracer.changes()
                try:
                    return thunk()
                finally:
                    frame[6] = tracer.changes() - before
                    tracer.exit(frame)
            traced_thunk.enqueued = None
            return traced_thunk
        return traced_mutation

    server.READS = _TracedTable(server.READS, wrap_read)
    server.MUTATIONS = _TracedTable(server.MUTATIONS, wrap_mutation)

    submit = registry.TenantHandle.submit

    @functools.wraps(submit)
    def traced_submit(self, fn, loop=None, future=None):
        if hasattr(fn, "enqueued"):
            fn.enqueued = now()
        return submit(self, fn, loop=loop, future=future)

    registry.TenantHandle.submit = traced_submit

    # -- registry -------------------------------------------------------------
    _wrap(tracer, registry.PadRegistry, "acquire", "registry.acquire")
    _wrap(tracer, registry.PadRegistry, "evict_idle", "registry.evict",
          count=len)
    handle_init = registry.TenantHandle.__init__

    @functools.wraps(handle_init)
    def traced_handle_init(self, *args, **kwargs):
        handle_init(self, *args, **kwargs)
        for frame in reversed(tracer._stack()):
            if frame[1] == "registry.acquire":
                frame[1] = "registry.open"
                break
        stages = self.trim.recovery_stats().get("stage_seconds", {})
        tracer.opens.append((now(), stages))
        self.trim.store.add_listener(tracer.count_change)

    registry.TenantHandle.__init__ = traced_handle_init

    # -- dmi ------------------------------------------------------------------
    for method in ("create", "add_ref", "update", "value", "get", "all"):
        _wrap(tracer, DmiRuntime, method, f"dmi.{method}")

    # -- triples --------------------------------------------------------------
    for method in ("select", "query", "count", "create"):
        _wrap(tracer, TrimManager, method, f"triples.{method}")
    _wrap(tracer, TripleStore, "remove_matching", "triples.remove")
    _wrap(tracer, server, "reachable_triples", "triples.view")

    # -- wal ------------------------------------------------------------------
    _wrap(tracer, WriteAheadLog, "append", "wal.append")
    _wrap(tracer, TrimManager, "commit", "wal.commit")
    _wrap(tracer, Durability, "delta_compact", "wal.delta_compact",
          count=int)
    _wrap(tracer, Durability, "compact", "wal.compact")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans OUT.json serve ROOT [...]",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    from repro import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
