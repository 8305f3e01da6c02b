"""Server control and the single-threaded, multiplexing load client.

``Server`` starts ``python -m repro serve`` (or the tracing launcher) as
a child process on an ephemeral port and reads its CPU, memory and I/O
counters from ``/proc``.  ``drive`` runs op-script *sessions* over any
number of TCP connections from one thread: a session is a generator that
yields ``Req`` (send one request frame and wait for its reply) or
``Close`` (drop a connection) and is resumed with the reply.  Each
session has at most one request outstanding, so every session is a
closed loop, and a selector interleaves the sessions' replies without
any client-side thread handoffs.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

#: A reply not seen within this many seconds aborts the run.
REPLY_TIMEOUT_S = 60.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_ticks(cpu: int) -> tuple:
    """``(steal, total)`` ticks of one CPU so far, from ``/proc/stat``.

    Steal is time the host held the vCPU while it had work to run.
    """
    label = f"cpu{cpu}"
    with open("/proc/stat") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == label:
                ticks = [int(field) for field in fields[1:]]
                return ticks[7], sum(ticks)
    raise RuntimeError(f"{label} missing from /proc/stat")


def ticks_to_seconds(ticks: int) -> float:
    """``/proc/stat`` ticks as seconds."""
    return ticks / _CLK_TCK


class Req:
    """One request a session sends on its connection *conn*."""

    __slots__ = ("conn", "op", "params", "tenant")

    def __init__(self, conn: str, op: str, params: Optional[dict] = None,
                 tenant: Optional[str] = None) -> None:
        self.conn = conn
        self.op = op
        self.params = params
        self.tenant = tenant


class Close:
    """Close the session's connection *conn* (it reconnects on next use)."""

    __slots__ = ("conn",)

    def __init__(self, conn: str) -> None:
        self.conn = conn


class Recorder:
    """Per-class op latencies, op counts, oracle failures, client spans."""

    CLASSES = ("write", "read", "resolve")
    #: ``on_sample`` runs after every this many ops.
    SAMPLE_EVERY = 100

    def __init__(self, tracing: bool = False) -> None:
        self.tracing = tracing
        self.latencies: Dict[str, List[float]] = {c: [] for c in self.CLASSES}
        self.attempted = 0
        self.failed = 0
        self.acked_writes = 0
        #: Triples the acked ops added, by the DMI's triple shapes.
        self.triples_added = 0
        #: Optional callback for periodic samples during the timed phase.
        self.on_sample = None
        self.mismatches: List[str] = []
        #: Client-side layer samples (marks), name -> [(start, seconds)].
        self.layer: Dict[str, List[tuple]] = {}
        #: Client request spans for the wire metric: rid -> (send, reply).
        self.requests: Dict[str, tuple] = {}

    def op(self, cls: str, started: float, ok: bool, triples: int = 0
           ) -> None:
        """Record one user op of class *cls* that began at *started*.

        A failed op is stored as ``inf``: it misses every latency limit.
        *triples* is how many triples the op adds when it succeeds.
        """
        self.attempted += 1
        if ok:
            self.latencies[cls].append(time.perf_counter() - started)
            self.triples_added += triples
            if cls == "write":
                self.acked_writes += 1
        else:
            self.failed += 1
            self.latencies[cls].append(float("inf"))
        if self.on_sample is not None \
                and self.attempted % self.SAMPLE_EVERY == 0:
            self.on_sample()

    def mismatch(self, message: str) -> None:
        """An oracle check failed: the run is not correct."""
        if len(self.mismatches) < 20:
            self.mismatches.append(message)
        else:
            self.mismatches[-1] = f"... and more (latest: {message})"

    def span(self, name: str, started: float, ended: float) -> None:
        """A client-side layer span (kept only when tracing)."""
        if self.tracing:
            self.layer.setdefault(name, []).append((started, ended - started))


class Server:
    """``repro serve`` as a child process rooted at *root*.

    *trace_path* switches to the tracing launcher, which writes its spans
    to that file when the server exits.
    """

    def __init__(self, checkout: str, root: str, log_path: str,
                 trace_path: Optional[str] = None) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                   PYTHONUNBUFFERED="1")
        args = ["serve", root, "--port", "0"]
        if trace_path is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            launcher = os.path.join(checkout, "perfbench", "traced_serve.py")
            command = [sys.executable, launcher, "--spans", trace_path] + args
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(command, cwd=checkout, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"server failed to start: {line!r} "
                               f"(log: {log_path})")
        self.port = int(line.split("listening on ")[1].split()[0]
                        .rsplit(":", 1)[1])
        self.pid = self.proc.pid

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process, MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def wchar(self) -> int:
        """Bytes the server passed to write-type system calls so far."""
        with open(f"/proc/{self.pid}/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
        raise RuntimeError("wchar missing from /proc io")

    def terminate(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self._close_pipes()
        return code

    def kill(self) -> None:
        """Hard stop (error paths only)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class _Conn:
    __slots__ = ("name", "sock", "buffer", "seq", "session", "sent_at",
                 "rid")

    def __init__(self, name: str, port: int) -> None:
        self.name = name
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.seq = 0
        self.session = None
        self.sent_at = 0.0
        self.rid = ""


class Client:
    """The connections of one run, addressed by name, opened on first use."""

    def __init__(self, port: int, recorder: Recorder) -> None:
        self.port = port
        self.recorder = recorder
        self._conns: Dict[str, _Conn] = {}
        self._incarnation: Dict[str, int] = {}
        self._selector = selectors.DefaultSelector()

    def _conn(self, name: str) -> _Conn:
        conn = self._conns.get(name)
        if conn is None:
            generation = self._incarnation.get(name, 0) + 1
            self._incarnation[name] = generation
            conn = _Conn(f"{name}.{generation}", self.port)
            self._conns[name] = conn
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        return conn

    def close(self, name: Optional[str] = None) -> None:
        """Close one connection, or all of them."""
        names = [name] if name is not None else list(self._conns)
        for key in names:
            conn = self._conns.pop(key, None)
            if conn is not None:
                self._selector.unregister(conn.sock)
                conn.sock.close()
        if name is None:
            self._selector.close()

    def call(self, req: Req) -> dict:
        """Send one request outside any session and wait for its reply."""
        done: List[dict] = []

        def one() -> Iterator[Any]:
            done.append((yield req))

        self.drive([one()])
        return done[0]

    def _send(self, session, req: Req) -> None:
        conn = self._conn(req.conn)
        conn.seq += 1
        conn.rid = f"{conn.name}-{conn.seq}"
        envelope: Dict[str, Any] = {"v": 1, "id": conn.rid, "op": req.op}
        if req.tenant is not None:
            envelope["tenant"] = req.tenant
        if req.params:
            envelope["params"] = req.params
        frame = json.dumps(envelope, separators=(",", ":"),
                           ensure_ascii=False).encode("utf-8") + b"\n"
        conn.session = session
        conn.sent_at = time.perf_counter()
        conn.sock.sendall(frame)

    def _advance(self, session, value: Any) -> bool:
        """Resume *session* with *value* until it sends; False when done."""
        while True:
            try:
                step = session.send(value)
            except StopIteration:
                return False
            if isinstance(step, Close):
                self.close(step.conn)
                value = None
                continue
            self._send(session, step)
            return True

    def drive(self, sessions: List[Iterator[Any]]) -> None:
        """Run *sessions* to completion, interleaving their replies."""
        live = sum(1 for session in sessions if self._advance(session, None))
        recorder = self.recorder
        while live:
            events = self._selector.select(timeout=REPLY_TIMEOUT_S)
            if not events:
                raise RuntimeError(
                    f"no reply within {REPLY_TIMEOUT_S}s "
                    f"({live} session(s) waiting)")
            for key, _mask in events:
                conn: _Conn = key.data
                data = conn.sock.recv(1 << 20)
                if not data:
                    raise RuntimeError(
                        f"server closed connection {conn.name}")
                conn.buffer += data
                while conn.session is not None and b"\n" in conn.buffer:
                    line, conn.buffer = conn.buffer.split(b"\n", 1)
                    received = time.perf_counter()
                    reply = json.loads(line)
                    if reply.get("id") != conn.rid:
                        raise RuntimeError(
                            f"reply {reply.get('id')!r} on {conn.name} does "
                            f"not answer {conn.rid!r}")
                    if recorder.tracing:
                        recorder.requests[conn.rid] = (conn.sent_at, received)
                    session, conn.session = conn.session, None
                    if not self._advance(session, reply):
                        live -= 1
