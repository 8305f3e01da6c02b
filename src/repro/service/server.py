"""The asyncio TCP front end: accept loop, dispatch, drain (DESIGN.md §15).

:class:`TrimService` binds a host/port, accepts newline-delimited JSON
request frames (:mod:`repro.service.protocol`), and routes each to one
tenant of a :class:`~repro.service.registry.PadRegistry`:

- **Mutations** (``trim.create``, ``dmi.create``, ``pad.note``, …) are
  decoded eagerly — malformed parameters answer ``BAD_REQUEST`` without
  touching the store — then enqueued on the tenant's write coalescer.
  The response is sent only after the batch holding the op has durably
  committed, so ``ok: true`` always means "on disk".  Past the tenant's
  high-water mark the server answers ``RETRY_AFTER`` (admission
  control) instead of queueing unboundedly.
- **Reads** (``trim.select``, ``trim.query``, ``dmi.value``, …) run on
  the default thread executor against the store's snapshot-isolated
  read path, so a slow conjunctive query never stalls the event
  loop or other connections.
- **Admin** operations (``ping``, ``admin.stats``, ``admin.evict``)
  need no tenant.

Shutdown is a graceful drain: stop accepting, let each connection
finish its inflight request, then flush every tenant's coalescer and
close every WAL (``PadRegistry.close_all``) — after which acknowledged
writes are guaranteed recoverable by reopening the directory.  The CLI
(``python -m repro serve``) wires SIGTERM and SIGINT to that drain.

Run standalone::

    service = TrimService("/var/lib/trim", port=7421)
    sys.exit(service.run())            # blocks; SIGTERM/SIGINT drain

or embedded in tests/benchmarks::

    service = TrimService(tmp, port=0).start_in_background()
    ... ServiceClient("127.0.0.1", service.port) ...
    service.stop()
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any, Callable, Dict, Optional, Set

from repro.errors import (BackpressureError, ProtocolError, ReproError,
                          ServiceUnavailableError)
from repro.service import protocol
from repro.service.registry import PadRegistry, TenantHandle
from repro.triples.query import Pattern, Query, Var
from repro.triples.triple import Node, Resource
from repro.triples.views import reachable_triples, view_key

__all__ = ["TrimService"]

#: Suggested client backoff carried by RETRY_AFTER frames, milliseconds.
RETRY_AFTER_MS = 25

#: How long shutdown waits for busy connections to answer their inflight
#: request before force-closing them, seconds.
DRAIN_GRACE_SECONDS = 5.0


def _uri(params: Dict[str, Any], field: str) -> str:
    """A required URI-string parameter."""
    value = params.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{field!r} must be a non-empty URI string")
    return value


def _text(params: Dict[str, Any], field: str) -> str:
    """A required string parameter."""
    value = params.get(field)
    if not isinstance(value, str):
        raise ProtocolError(f"{field!r} must be a string")
    return value


def _as_value_node(decoded: Any) -> Node:
    """Coerce a decoded wire value into a triple value node."""
    from repro.triples.triple import Literal
    if isinstance(decoded, Node):
        return decoded
    if isinstance(decoded, (str, int, float, bool)):
        return Literal(decoded)
    raise ProtocolError(f"cannot use {type(decoded).__name__} as a "
                        f"triple value")


def _term(payload: Any, position: str) -> Any:
    """Decode one query-pattern term.

    ``"?name"`` is a variable, ``None`` an anonymous wildcard; subject/
    property positions take bare URI strings, the value position takes a
    tagged node payload.
    """
    if payload is None:
        return None
    if isinstance(payload, str) and payload.startswith("?"):
        if len(payload) < 2:
            raise ProtocolError("variable name must be non-empty")
        return Var(payload[1:])
    if position in ("subject", "property"):
        if not isinstance(payload, str):
            raise ProtocolError(f"{position} term must be a URI string, "
                                f"'?var', or null")
        return Resource(payload)
    return _as_value_node(protocol.decode_value(payload))


# -- op implementations -------------------------------------------------------
#
# Mutation builders decode parameters eagerly (raising ProtocolError ->
# BAD_REQUEST before anything queues) and return a zero-argument thunk
# the tenant's writer thread runs inside a coalesced batch.  Read ops
# are plain functions the dispatcher runs on the executor.

def _mut_trim_create(handle: TenantHandle, params: Dict[str, Any]):
    subject, prop = _uri(params, "s"), _uri(params, "p")
    value = _as_value_node(protocol.decode_value(params.get("value")))

    def fn() -> Dict[str, Any]:
        statement = handle.trim.create(subject, prop, value)
        return {"triple": protocol.encode_triple(statement)}
    return fn


def _mut_trim_remove(handle: TenantHandle, params: Dict[str, Any]):
    from repro.triples.triple import triple as make_triple
    subject, prop = _uri(params, "s"), _uri(params, "p")
    value = _as_value_node(protocol.decode_value(params.get("value")))
    statement = make_triple(subject, prop, value)

    def fn() -> Dict[str, Any]:
        handle.trim.remove(statement)
        return {"removed": 1}
    return fn


def _mut_trim_remove_about(handle: TenantHandle, params: Dict[str, Any]):
    subject = Resource(_uri(params, "s"))

    def fn() -> Dict[str, Any]:
        return {"removed": handle.trim.remove_about(subject)}
    return fn


def _mut_trim_add_all(handle: TenantHandle, params: Dict[str, Any]):
    from repro.triples.triple import triple as make_triple
    payload = params.get("triples")
    if not isinstance(payload, list):
        raise ProtocolError("'triples' must be a list")
    statements = [make_triple(*protocol.decode_triple(entry))
                  for entry in payload]

    def fn() -> Dict[str, Any]:
        with handle.trim.store.bulk():
            added = handle.trim.store.add_all(statements)
        return {"added": added}
    return fn


def _mut_trim_commit(handle: TenantHandle, params: Dict[str, Any]):
    # The thunk is a no-op: the coalescer commits the batch that holds
    # it, which is exactly the durability boundary the caller asked for.
    def fn() -> Dict[str, Any]:
        return {"committed": True}
    return fn


def _decoded_attrs(params: Dict[str, Any]) -> Dict[str, Any]:
    attrs = params.get("attrs", {})
    if not isinstance(attrs, dict):
        raise ProtocolError("'attrs' must be an object")
    return {name: protocol.decode_value(value)
            for name, value in attrs.items()}


def _mut_dmi_create(handle: TenantHandle, params: Dict[str, Any]):
    entity = _text(params, "entity")
    attrs = _decoded_attrs(params)

    def fn() -> Dict[str, Any]:
        return {"id": handle.dmi.runtime.create(entity, **attrs).id}
    return fn


def _mut_dmi_update(handle: TenantHandle, params: Dict[str, Any]):
    entity, instance = _text(params, "entity"), _text(params, "id")
    attr = _text(params, "attr")
    value = protocol.decode_value(params.get("value"))

    def fn() -> Dict[str, Any]:
        runtime = handle.dmi.runtime
        runtime.update(runtime.get(entity, instance), attr, value)
        return {}
    return fn


def _mut_dmi_add_ref(handle: TenantHandle, params: Dict[str, Any]):
    entity, instance = _text(params, "entity"), _text(params, "id")
    ref = _text(params, "ref")
    target_entity = _text(params, "target_entity")
    target_id = _text(params, "target_id")

    def fn() -> Dict[str, Any]:
        runtime = handle.dmi.runtime
        runtime.add_ref(runtime.get(entity, instance), ref,
                        runtime.get(target_entity, target_id))
        return {}
    return fn


def _mut_dmi_delete(handle: TenantHandle, params: Dict[str, Any]):
    entity, instance = _text(params, "entity"), _text(params, "id")

    def fn() -> Dict[str, Any]:
        runtime = handle.dmi.runtime
        return {"removed": runtime.delete(runtime.get(entity, instance))}
    return fn


def _mut_pad_new(handle: TenantHandle, params: Dict[str, Any]):
    from repro.util.coordinates import Coordinate
    name = _text(params, "name")

    def fn() -> Dict[str, Any]:
        dmi = handle.dmi
        root = dmi.Create_Bundle(bundleName="", bundlePos=Coordinate(0, 0),
                                 bundleWidth=800.0, bundleHeight=600.0)
        pad = dmi.Create_SlimPad(padName=name, rootBundle=root)
        return {"pad": pad.id, "root": root.id}
    return fn


def _mut_pad_note(handle: TenantHandle, params: Dict[str, Any]):
    from repro.errors import SlimPadError
    from repro.util.coordinates import Coordinate
    text = _text(params, "text")
    pos = Coordinate(params.get("x", 0.0), params.get("y", 0.0))

    def fn() -> Dict[str, Any]:
        dmi = handle.dmi
        pads = dmi.All_SlimPad()
        if not pads:
            raise SlimPadError(f"tenant {handle.name!r} has no pad yet "
                               f"(send pad.new first)")
        root = pads[0].rootBundle
        scrap = dmi.Create_Scrap(scrapName=text, scrapPos=pos)
        dmi.Add_bundleContent(root, scrap)
        return {"scrap": scrap.id}
    return fn


def _read_trim_select(handle: TenantHandle, params: Dict[str, Any]):
    args = protocol.select_args(params)
    kwargs: Dict[str, Any] = {}
    if "subject" in args:
        kwargs["subject"] = Resource(args["subject"])
    if "prop" in args:
        kwargs["prop"] = Resource(args["prop"])
    if "value" in args:
        kwargs["value"] = _as_value_node(args["value"])
    hits = handle.trim.select(**kwargs)
    return {"triples": [protocol.encode_triple(t) for t in hits]}


def _read_trim_count(handle: TenantHandle, params: Dict[str, Any]):
    args = protocol.select_args(params)
    kwargs: Dict[str, Any] = {}
    if "subject" in args:
        kwargs["subject"] = Resource(args["subject"])
    if "prop" in args:
        kwargs["prop"] = Resource(args["prop"])
    if "value" in args:
        kwargs["value"] = _as_value_node(args["value"])
    return {"count": handle.trim.count(**kwargs)}


def _read_trim_values(handle: TenantHandle, params: Dict[str, Any]):
    subject = Resource(_uri(params, "s"))
    prop = Resource(_uri(params, "p"))
    values = handle.trim.values_of(subject, prop)
    return {"values": [protocol.encode_value(v) for v in values]}


def _read_trim_query(handle: TenantHandle, params: Dict[str, Any]):
    payload = params.get("patterns")
    if not isinstance(payload, list) or not payload:
        raise ProtocolError("'patterns' must be a non-empty list")
    patterns = []
    for entry in payload:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ProtocolError(f"pattern must be a [s, p, v] list: "
                                f"{entry!r}")
        patterns.append(Pattern(_term(entry[0], "subject"),
                                _term(entry[1], "property"),
                                _term(entry[2], "value")))
    planner = params.get("planner", True)
    if not isinstance(planner, bool):
        raise ProtocolError("'planner' must be a boolean")
    rows = handle.trim.query(Query(patterns, planner=planner))
    return {"bindings": [{name: protocol.encode_value(node)
                          for name, node in row.items()} for row in rows]}


def _read_trim_view(handle: TenantHandle, params: Dict[str, Any]):
    root = Resource(_uri(params, "root"))
    follow = params.get("follow")
    if follow is not None:
        if not isinstance(follow, list) or not all(
                isinstance(u, str) for u in follow):
            raise ProtocolError("'follow' must be a list of URI strings")
        follow = [Resource(u) for u in follow]
    max_depth = params.get("max_depth")
    if max_depth is not None and (not isinstance(max_depth, int)
                                  or isinstance(max_depth, bool)
                                  or max_depth < 0):
        raise ProtocolError("'max_depth' must be a non-negative integer")
    closure = handle.trim.read(
        view_key(root, follow, max_depth),
        lambda store: reachable_triples(store, root, follow, max_depth))
    return {"triples": [protocol.encode_triple(t) for t in closure]}


def _read_trim_stats(handle: TenantHandle, params: Dict[str, Any]):
    return {"tenant": handle.stats(),
            "cache": handle.trim.cache_stats()}


def _read_dmi_value(handle: TenantHandle, params: Dict[str, Any]):
    entity, instance = _text(params, "entity"), _text(params, "id")
    attr = _text(params, "attr")
    runtime = handle.dmi.runtime
    value = runtime.value(runtime.get(entity, instance), attr)
    return {"value": protocol.encode_value(value)}


def _read_dmi_all(handle: TenantHandle, params: Dict[str, Any]):
    entity = _text(params, "entity")
    return {"ids": [obj.id for obj in handle.dmi.runtime.all(entity)]}


#: op -> mutation builder; every op here funnels through the coalescer.
MUTATIONS: Dict[str, Callable] = {
    "trim.create": _mut_trim_create,
    "trim.remove": _mut_trim_remove,
    "trim.remove_about": _mut_trim_remove_about,
    "trim.add_all": _mut_trim_add_all,
    "trim.commit": _mut_trim_commit,
    "dmi.create": _mut_dmi_create,
    "dmi.update": _mut_dmi_update,
    "dmi.add_ref": _mut_dmi_add_ref,
    "dmi.delete": _mut_dmi_delete,
    "pad.new": _mut_pad_new,
    "pad.note": _mut_pad_note,
}

#: op -> read function; these run on the executor, never on the loop.
READS: Dict[str, Callable] = {
    "trim.select": _read_trim_select,
    "trim.count": _read_trim_count,
    "trim.values": _read_trim_values,
    "trim.query": _read_trim_query,
    "trim.view": _read_trim_view,
    "trim.stats": _read_trim_stats,
    "dmi.value": _read_dmi_value,
    "dmi.all": _read_dmi_all,
}


class _Connection:
    """Per-connection state: cached tenant refs + inflight marker."""

    __slots__ = ("writer", "tenants", "busy")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.tenants: Dict[str, TenantHandle] = {}
        self.busy = False


class TrimService:
    """The TRIM service: one registry behind one asyncio accept loop.

    *root* is the registry directory (one subdirectory per tenant);
    *high_water*/*idle_ttl* configure every tenant opened by
    this server (see :class:`~repro.service.registry.PadRegistry`).
    ``port=0`` binds an ephemeral port, resolved into :attr:`port` once
    the server has started.
    """

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0,
                 high_water: int = 64,
                 max_batch: int = 256, idle_ttl: float = 300.0,
                 reap_interval: Optional[float] = None) -> None:
        self.registry = PadRegistry(root, high_water=high_water,
                                    max_batch=max_batch, idle_ttl=idle_ttl)
        self.host = host
        self.port = port
        self.reap_interval = (reap_interval if reap_interval is not None
                              else max(idle_ttl / 4.0, 0.05))
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connections: Set[_Connection] = set()
        self._reaper: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._exit_code = 0
        self._draining = False
        # Wire counters, reported by ping / admin.stats.
        self.requests_total = 0
        self.errors_total = 0
        self.retry_after_total = 0
        self.connections_total = 0

    # -- dispatch --------------------------------------------------------------

    async def _acquire(self, conn: _Connection, name: str) -> TenantHandle:
        """The connection's handle for *name*, acquiring on first touch."""
        handle = conn.tenants.get(name)
        if handle is not None and not handle.closing:
            handle.touch()
            return handle
        loop = asyncio.get_running_loop()
        handle = await loop.run_in_executor(
            None, self.registry.acquire, name)
        stale = conn.tenants.get(name)
        if stale is not None:
            # The cached handle was evicted under us; swap references.
            self.registry.release(stale)
        conn.tenants[name] = handle
        return handle

    async def _dispatch(self, conn: _Connection, line: bytes
                        ) -> Dict[str, Any]:
        """One request line -> one response envelope (never raises)."""
        self.requests_total += 1
        request_id: Optional[str] = None
        try:
            envelope = protocol.decode_frame(line)
            raw_id = envelope.get("id")
            request_id = raw_id if isinstance(raw_id, str) else None
            request_id, op = protocol.validate_request(envelope)
        except ProtocolError as exc:
            self.errors_total += 1
            code = ("UNSUPPORTED_VERSION"
                    if "protocol version" in str(exc) else "BAD_REQUEST")
            return protocol.error_response(request_id, code, str(exc))
        params = envelope.get("params", {}) or {}

        if op == "ping":
            return protocol.ok_response(request_id, {
                "pong": True, "draining": self._draining,
                "requests_total": self.requests_total})
        if self._draining:
            self.errors_total += 1
            return protocol.error_response(
                request_id, "SHUTTING_DOWN", "server is draining")
        if op == "admin.stats":
            loop = asyncio.get_running_loop()
            stats = await loop.run_in_executor(None, self.registry.stats)
            stats["server"] = {
                "connections": len(self._connections),
                "connections_total": self.connections_total,
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "retry_after_total": self.retry_after_total,
            }
            return protocol.ok_response(request_id, stats)
        if op == "admin.evict":
            loop = asyncio.get_running_loop()
            if params.get("force"):
                import time as _time
                horizon = _time.monotonic() + self.registry.idle_ttl
            else:
                horizon = None
            evicted = await loop.run_in_executor(
                None, self.registry.evict_idle, horizon)
            return protocol.ok_response(request_id, {"evicted": evicted})

        tenant_name = envelope.get("tenant")
        if tenant_name is None:
            self.errors_total += 1
            return protocol.error_response(
                request_id, "TENANT_REQUIRED",
                f"op {op!r} requires a tenant")
        try:
            handle = await self._acquire(conn, tenant_name)
        except ProtocolError as exc:
            self.errors_total += 1
            return protocol.error_response(request_id, "BAD_TENANT", str(exc))
        except ServiceUnavailableError as exc:
            self.errors_total += 1
            return protocol.error_response(request_id, "SHUTTING_DOWN",
                                           str(exc))
        except Exception as exc:
            # The tenant failed to open (unreadable directory, a layout
            # this release refuses): answer with a frame, keep the
            # connection.
            return self._failure(request_id, exc)

        mutation = MUTATIONS.get(op)
        if mutation is not None:
            return await self._run_mutation(request_id, op, mutation,
                                            handle, params)
        read = READS.get(op)
        if read is not None:
            return await self._run_read(request_id, read, handle, params)
        self.errors_total += 1
        return protocol.error_response(request_id, "UNKNOWN_OP",
                                       f"unknown op {op!r}")

    async def _run_mutation(self, request_id: str, op: str,
                            mutation: Callable, handle: TenantHandle,
                            params: Dict[str, Any]) -> Dict[str, Any]:
        """Decode, enqueue on the coalescer, await the durable ack."""
        try:
            fn = mutation(handle, params)
        except ProtocolError as exc:
            self.errors_total += 1
            return protocol.error_response(request_id, "BAD_REQUEST",
                                           str(exc))
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        try:
            handle.submit(fn, loop=loop, future=future)
        except BackpressureError as exc:
            self.errors_total += 1
            self.retry_after_total += 1
            return protocol.error_response(request_id, "RETRY_AFTER",
                                           str(exc),
                                           retry_after_ms=RETRY_AFTER_MS)
        except ServiceUnavailableError as exc:
            self.errors_total += 1
            return protocol.error_response(request_id, "SHUTTING_DOWN",
                                           str(exc))
        try:
            result = await future
        except Exception as exc:
            return self._failure(request_id, exc)
        return protocol.ok_response(request_id, result)

    async def _run_read(self, request_id: str, read: Callable,
                        handle: TenantHandle, params: Dict[str, Any]
                        ) -> Dict[str, Any]:
        """Run one read op on the executor against the snapshot path."""
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(None, read, handle, params)
        except ProtocolError as exc:
            self.errors_total += 1
            return protocol.error_response(request_id, "BAD_REQUEST",
                                           str(exc))
        except Exception as exc:
            return self._failure(request_id, exc)
        return protocol.ok_response(request_id, result)

    def _failure(self, request_id: Optional[str],
                 exc: Exception) -> Dict[str, Any]:
        """The error frame for an operation that raised: ``OP_FAILED``
        for a :class:`ReproError`, ``INTERNAL`` for anything else."""
        self.errors_total += 1
        code = "OP_FAILED" if isinstance(exc, ReproError) else "INTERNAL"
        return protocol.error_response(
            request_id, code, f"{type(exc).__name__}: {exc}")

    # -- connection handling ---------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """One client connection: NDJSON request/response, in order."""
        conn = _Connection(writer)
        self._connections.add(conn)
        self.connections_total += 1
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Overlong line: NDJSON cannot resync reliably, so
                    # answer once and drop the connection.
                    with contextlib.suppress(Exception):
                        writer.write(protocol.encode_frame(
                            protocol.error_response(
                                None, "BAD_REQUEST", "frame too long")))
                        await writer.drain()
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                conn.busy = True
                try:
                    response = await self._dispatch(conn, line)
                finally:
                    conn.busy = False
                try:
                    frame = protocol.encode_frame(response)
                except ProtocolError:
                    frame = protocol.encode_frame(protocol.error_response(
                        response.get("id"), "OP_FAILED",
                        "response exceeds the frame size bound"))
                try:
                    writer.write(frame)
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        finally:
            self._connections.discard(conn)
            for handle in conn.tenants.values():
                self.registry.release(handle)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (resolving :attr:`port`) and start reaping."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port,
            limit=protocol.MAX_FRAME_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = asyncio.ensure_future(self._reap_loop())
        self._started.set()

    async def _reap_loop(self) -> None:
        """Periodically close idle, unreferenced tenants, then collect
        the cycles the frozen heap stranded
        (:meth:`~repro.service.registry.PadRegistry.reconcile_heap`)."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.reap_interval)
            with contextlib.suppress(Exception):
                await loop.run_in_executor(None, self.registry.evict_idle)
            with contextlib.suppress(Exception):
                await loop.run_in_executor(None, self.registry.reconcile_heap)

    def request_shutdown(self, exit_code: int = 0) -> None:
        """Begin a graceful drain (idempotent; loop-thread safe via
        :meth:`stop` from other threads)."""
        if self._stop_event is not None and not self._stop_event.is_set():
            self._exit_code = exit_code
            self._stop_event.set()

    async def _drain(self) -> None:
        """Stop accepting, finish inflight requests, flush every tenant."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._reaper is not None:
            self._reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper
        # Idle connections sit in readline(); closing the transport pops
        # them out.  Busy ones get a grace period to send their response
        # (which may be waiting on a durable commit).
        for conn in list(self._connections):
            if not conn.busy:
                with contextlib.suppress(Exception):
                    conn.writer.close()
        deadline = asyncio.get_running_loop().time() + DRAIN_GRACE_SECONDS
        while self._connections \
                and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
            for conn in list(self._connections):
                if not conn.busy:
                    with contextlib.suppress(Exception):
                        conn.writer.close()
        for conn in list(self._connections):
            with contextlib.suppress(Exception):
                conn.writer.close()
        # Flush every tenant: apply queued writes, commit, close WALs.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.registry.close_all)

    async def _main(self, signals: bool = False) -> int:
        """Serve until :meth:`request_shutdown`, then drain; exit code."""
        await self.start()
        if signals:
            loop = asyncio.get_running_loop()
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signal.SIGTERM, self.request_shutdown, 0)
                loop.add_signal_handler(
                    signal.SIGINT, self.request_shutdown, 130)
        try:
            await self._stop_event.wait()
        finally:
            await self._drain()
        return self._exit_code

    def run(self, announce: Optional[Callable[[str], None]] = None) -> int:
        """Blocking entry point for the CLI: serve until SIGTERM/SIGINT.

        *announce* (optional) is called with a human-readable "listening
        on ..." line once the port is bound.  Returns the process exit
        code (0 for SIGTERM/clean stop, 130 for SIGINT).
        """
        async def main() -> int:
            await self.start()
            if announce is not None:
                announce(f"listening on {self.host}:{self.port} "
                         f"(root {self.registry.root})")
            loop = asyncio.get_running_loop()
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signal.SIGTERM, self.request_shutdown, 0)
                loop.add_signal_handler(
                    signal.SIGINT, self.request_shutdown, 130)
            try:
                await self._stop_event.wait()
            finally:
                await self._drain()
            return self._exit_code

        try:
            return asyncio.run(main())
        except KeyboardInterrupt:
            # Signal handler could not be installed (exotic platform):
            # drain synchronously through the registry and report 130.
            self.registry.close_all()
            return 130

    # -- background-thread hosting (tests, benchmarks) -------------------------

    def start_in_background(self) -> "TrimService":
        """Host the server on a daemon thread; returns once the port is
        bound.  Pair with :meth:`stop`."""
        assert self._thread is None, "already started"

        def runner() -> None:
            try:
                asyncio.run(self._main(signals=False))
            finally:
                self._finished.set()

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="trim-service-loop")
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("service failed to start within 10s")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and stop a background-hosted server (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and not self._finished.is_set():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.request_shutdown, 0)
        self._finished.wait(timeout)
        self._thread.join(timeout)
        self._thread = None
