"""The TRIM service: wire protocol, tenant lifecycle, drain guarantees.

Covers the network front end end to end:

- protocol round-trips (tagged values, frames, envelope validation);
- :class:`PadRegistry` lifecycle — concurrent open/close/reopen, idle
  eviction racing a late write (the per-name-lock contract), refcounts;
- the write coalescer's semantics — ack-after-commit, batch isolation,
  backpressure past high-water;
- server behaviour over real sockets — multi-tenant isolation,
  RETRY_AFTER frames, typed errors, drain-on-shutdown leaving every
  tenant's WAL committed;
- the ``python -m repro serve`` subprocess — SIGTERM during load drains
  cleanly (zero lost acknowledged writes on reopen), SIGINT exits 130.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (BackpressureError, ProtocolError, RemoteOpError,
                          ServiceUnavailableError)
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.registry import PadRegistry, valid_tenant_name
from repro.service.server import TrimService
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, triple
from repro.triples.wal import MAGIC, WAL_FILE, recover


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_value_round_trips(self):
        from repro.util.coordinates import Coordinate
        for value in (Literal(3), Literal(2.5), Literal(True),
                      Literal("text"), Resource("slim:x"),
                      Coordinate(1.5, -2.0), "plain", 7, None):
            encoded = protocol.encode_value(value)
            assert protocol.decode_value(encoded) == value

    def test_triple_round_trips(self):
        t = triple("slim:s", "slim:p", Literal(42))
        s, p, v = protocol.decode_triple(protocol.encode_triple(t))
        assert (s, p, v) == ("slim:s", "slim:p", Literal(42))

    def test_frame_round_trips(self):
        envelope = protocol.request("trim.create", "r1", tenant="t",
                                    params={"s": "a"})
        assert protocol.decode_frame(protocol.encode_frame(envelope)) \
            == envelope

    def test_oversized_frame_rejected_both_ways(self):
        big = protocol.ok_response("x", {"blob": "y" * protocol.MAX_FRAME_BYTES})
        with pytest.raises(ProtocolError):
            protocol.encode_frame(big)
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"x" * (protocol.MAX_FRAME_BYTES + 1))

    def test_malformed_frames_rejected(self):
        for raw in (b"not json\n", b"[1,2]\n", b"\xff\xfe\n"):
            with pytest.raises(ProtocolError):
                protocol.decode_frame(raw)

    def test_validate_request_checks_fields(self):
        ok = protocol.request("ping", "r1")
        assert protocol.validate_request(ok) == ("r1", "ping")
        for bad in ({"v": 2, "id": "r", "op": "ping"},
                    {"v": 1, "id": "", "op": "ping"},
                    {"v": 1, "id": "r", "op": ""},
                    {"v": 1, "id": "r", "op": "ping", "params": []},
                    {"v": 1, "id": "r", "op": "ping", "tenant": 3}):
            with pytest.raises(ProtocolError):
                protocol.validate_request(bad)

    def test_error_frames_carry_codes(self):
        frame = protocol.error_response("r1", "RETRY_AFTER", "busy",
                                        retry_after_ms=25)
        assert frame["ok"] is False
        assert frame["error"]["code"] == "RETRY_AFTER"
        assert frame["error"]["retry_after_ms"] == 25

    def test_tenant_name_validation(self):
        assert valid_tenant_name("ward-6")
        assert valid_tenant_name("a.b_c-1")
        for bad in ("", ".hidden", "../escape", "a/b", "x" * 65, "a b"):
            assert not valid_tenant_name(bad)


# ---------------------------------------------------------------------------
# PadRegistry lifecycle
# ---------------------------------------------------------------------------

class TestPadRegistry:
    def test_acquire_opens_lazily_and_recovers(self, tmp_path):
        root = str(tmp_path)
        registry = PadRegistry(root)
        handle = registry.acquire("alpha")
        handle.submit(lambda: handle.trim.create("s", "p", 1)).wait()
        registry.release(handle)
        registry.close_all()
        # A fresh registry reopens the same directory and sees the data.
        registry2 = PadRegistry(root)
        handle2 = registry2.acquire("alpha")
        assert len(handle2.trim.store) == 1
        registry2.release(handle2)
        registry2.close_all()

    def test_acquire_shares_one_handle_and_refcounts(self, tmp_path):
        registry = PadRegistry(str(tmp_path))
        a = registry.acquire("t")
        b = registry.acquire("t")
        assert a is b and a.refcount == 2
        registry.release(a)
        assert a.refcount == 1
        registry.release(b)
        registry.close_all()

    def test_invalid_names_rejected(self, tmp_path):
        registry = PadRegistry(str(tmp_path))
        with pytest.raises(ProtocolError):
            registry.acquire("../etc")
        registry.close_all()

    def test_closed_registry_refuses_acquires(self, tmp_path):
        registry = PadRegistry(str(tmp_path))
        registry.close_all()
        with pytest.raises(ServiceUnavailableError):
            registry.acquire("t")

    def test_concurrent_open_close_reopen_single_wal(self, tmp_path):
        """Hammer one name from many threads: every acquire must get a
        working handle and the directory must never be double-opened."""
        registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
        errors = []
        done = threading.Event()

        def churn(n):
            try:
                for i in range(25):
                    handle = registry.acquire("shared")
                    handle.submit(
                        lambda h=handle, k=f"w{n}-{i}":
                        h.trim.create(k, "p", 1)).wait()
                    registry.release(handle)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reaper():
            while not done.is_set():
                registry.evict_idle()

        workers = [threading.Thread(target=churn, args=(n,))
                   for n in range(4)]
        evictor = threading.Thread(target=reaper)
        for t in workers:
            t.start()
        evictor.start()
        for t in workers:
            t.join()
        done.set()
        evictor.join()
        registry.close_all()
        assert not errors, errors[0]
        # Every write survived however many close/reopen cycles happened.
        trim = TrimManager(durable=os.path.join(str(tmp_path), "shared"))
        assert len(trim.store) == 4 * 25
        trim.close()

    def test_idle_eviction_skips_referenced_tenants(self, tmp_path):
        registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
        handle = registry.acquire("busy")
        assert registry.evict_idle() == []  # refcount > 0: never evicted
        registry.release(handle)
        assert registry.evict_idle() == ["busy"]
        registry.close_all()

    def test_eviction_compacts_tenant_before_close(self, tmp_path):
        # Eviction is the cheap moment to compact: the next cold open
        # must be one snapshot load, not a WAL replay of the session.
        registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
        handle = registry.acquire("t")
        for i in range(5):
            handle.submit(
                lambda h=handle, k=f"w{i}": h.trim.create(k, "p", 1)).wait()
        registry.release(handle)
        assert registry.evict_idle() == ["t"]
        registry.close_all()
        result = recover(os.path.join(str(tmp_path), "t"))
        assert result.snapshot_triples == 5
        assert result.groups_replayed == 0
        assert os.path.getsize(
            os.path.join(str(tmp_path), "t", WAL_FILE)) == len(MAGIC)

    def test_stats_report_open_latency(self, tmp_path):
        registry = PadRegistry(str(tmp_path))
        handle = registry.acquire("t")
        assert handle.stats()["open_seconds"] > 0
        registry.release(handle)
        latency = registry.stats()["open_latency_us"]
        assert set(latency) == {"p50_us", "p95_us", "p99_us"}
        assert latency["p50_us"] > 0
        registry.close_all()

    def test_eviction_racing_late_write_reopens_cleanly(self, tmp_path):
        """A late acquire during an eviction close must wait for the WAL
        to be released, then reopen and see the committed state."""
        registry = PadRegistry(str(tmp_path), idle_ttl=0.0)
        handle = registry.acquire("pad")
        handle.submit(lambda: handle.trim.create("early", "p", 1)).wait()
        registry.release(handle)
        stop = threading.Event()
        errors = []

        def evict_loop():
            while not stop.is_set():
                try:
                    registry.evict_idle()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        evictor = threading.Thread(target=evict_loop)
        evictor.start()
        try:
            for i in range(40):  # late writes interleaved with evictions
                late = registry.acquire("pad")
                late.submit(
                    lambda h=late, k=f"late{i}": h.trim.create(k, "p", 1)
                ).wait()
                registry.release(late)
        finally:
            stop.set()
            evictor.join()
        registry.close_all()
        assert not errors, errors[0]
        trim = TrimManager(durable=os.path.join(str(tmp_path), "pad"))
        assert len(trim.store) == 41
        trim.close()

    def test_backpressure_past_high_water(self, tmp_path):
        registry = PadRegistry(str(tmp_path), high_water=2)
        handle = registry.acquire("t")
        gate = threading.Event()
        first = handle.submit(lambda: gate.wait(5))  # occupy the writer
        second = handle.submit(lambda: None)
        with pytest.raises(BackpressureError):
            handle.submit(lambda: None)
        gate.set()
        first.wait(5)
        second.wait(5)
        # Slots freed: submissions are admitted again.
        handle.submit(lambda: None).wait(5)
        registry.release(handle)
        registry.close_all()

    def test_batch_isolates_per_op_failures(self, tmp_path):
        registry = PadRegistry(str(tmp_path))
        handle = registry.acquire("t")
        gate = threading.Event()
        opener = handle.submit(lambda: gate.wait(5))

        def boom():
            raise RuntimeError("op failed")

        failing = handle.submit(boom)
        ok = handle.submit(lambda: handle.trim.create("s", "p", 1))
        gate.set()
        opener.wait(5)
        with pytest.raises(RuntimeError):
            failing.wait(5)
        ok.wait(5)  # the neighbouring op still landed and committed
        registry.release(handle)
        registry.close_all()
        trim = TrimManager(durable=os.path.join(str(tmp_path), "t"))
        assert triple("s", "p", 1) in list(trim.store)
        trim.close()

    def test_writer_coalesces_queued_writes_into_one_commit(self, tmp_path):
        """Writes queued behind a busy writer land as ONE commit + fsync."""
        registry = PadRegistry(str(tmp_path))
        handle = registry.acquire("t")
        before = handle.stats()
        started, gate = threading.Event(), threading.Event()

        def blocked_write():
            started.set()
            assert gate.wait(5)
            return handle.trim.create("s0", "p", 0)

        items = [handle.submit(blocked_write)]
        assert started.wait(5)  # the writer is inside batch one
        items += [handle.submit(
            lambda h=handle, i=i: h.trim.create(f"s{i}", "p", i))
            for i in range(1, 21)]
        gate.set()
        for item in items:
            item.wait(5)
        after = handle.stats()
        batches = after["write_batches"] - before["write_batches"]
        assert after["writes"] - before["writes"] == 21
        assert batches == 2
        assert (after["commits_requested"]
                - before["commits_requested"]) == batches
        assert after["fsync_count"] - before["fsync_count"] == batches
        registry.release(handle)
        registry.close_all()
        reopened = PadRegistry(str(tmp_path))
        handle = reopened.acquire("t")
        assert set(handle.trim.store) == {
            triple(f"s{i}", "p", i) for i in range(21)}
        reopened.release(handle)
        reopened.close_all()

    def test_submit_after_close_raises(self, tmp_path):
        registry = PadRegistry(str(tmp_path))
        handle = registry.acquire("t")
        registry.release(handle)
        registry.close_all()
        with pytest.raises(ServiceUnavailableError):
            handle.submit(lambda: None)

    def test_drain_on_close_commits_every_queued_write(self, tmp_path):
        """close_all applies and commits everything already queued —
        the acked-write durability contract."""
        registry = PadRegistry(str(tmp_path), max_batch=4)
        handle = registry.acquire("t")
        items = [handle.submit(
            lambda h=handle, k=f"s{i}": h.trim.create(k, "p", 1))
            for i in range(32)]
        registry.release(handle)
        registry.close_all()
        for item in items:
            item.wait(5)  # every queued op completed, none dropped
        trim = TrimManager(durable=os.path.join(str(tmp_path), "t"))
        assert len(trim.store) == 32
        trim.close()


# ---------------------------------------------------------------------------
# Server over real sockets
# ---------------------------------------------------------------------------

@pytest.fixture
def service(tmp_path):
    """A background-hosted TrimService on an ephemeral port."""
    svc = TrimService(str(tmp_path / "root"), port=0, high_water=8,
                      idle_ttl=300.0).start_in_background()
    yield svc
    svc.stop()


class TestTrimServiceSockets:
    def test_ping_and_basic_round_trip(self, service):
        with ServiceClient("127.0.0.1", service.port, tenant="a") as client:
            assert client.ping()["pong"] is True
            client.create("slim:s", "slim:p", 7)
            assert client.select(s="slim:s") == \
                [("slim:s", "slim:p", Literal(7))]
            assert client.count() == 1
            assert client.values("slim:s", "slim:p") == [Literal(7)]

    def test_tenants_are_isolated(self, service):
        with ServiceClient("127.0.0.1", service.port, tenant="a") as a, \
                ServiceClient("127.0.0.1", service.port, tenant="b") as b:
            a.create("slim:s", "slim:p", 1)
            assert b.count() == 0
            assert a.count() == 1

    def test_dmi_and_pad_surface(self, service):
        with ServiceClient("127.0.0.1", service.port, tenant="ward") as c:
            pad = c.pad_new("rounds")
            scrap = c.pad_note("check labs", 10.0, 20.0)
            assert scrap.startswith("scrap-")
            ids = c.dmi_all("Scrap")
            assert scrap in ids
            assert c.dmi_value("Scrap", scrap, "scrapName") == "check labs"
            c.dmi_update("Scrap", scrap, "scrapName", "done")
            assert c.dmi_value("Scrap", scrap, "scrapName") == "done"
            view = c.view(pad["root"])
            assert any(s == pad["root"] for s, _, _ in view)

    def test_query_over_the_wire(self, service):
        with ServiceClient("127.0.0.1", service.port, tenant="q") as c:
            c.create("slim:b1", "slim:content", Resource("slim:s1"))
            c.create("slim:s1", "slim:name", "needle")
            rows = c.query([("?b", "slim:content", "?s"),
                            ("?s", "slim:name", None)])
            assert rows == [{"b": Resource("slim:b1"),
                             "s": Resource("slim:s1")}]

    def test_view_reads_go_through_the_cache(self, service):
        with ServiceClient("127.0.0.1", service.port, tenant="v") as c:
            c.create("slim:b1", "slim:content", Resource("slim:s1"))
            c.create("slim:s1", "slim:name", "K+")
            c.create("slim:b2", "slim:content", Resource("slim:s2"))

            def hits():
                return c.stats()["cache"]["select_cache"]["hits"]

            first = c.view("slim:b1")
            assert len(first) == 2
            before = hits()
            assert c.view("slim:b1") == first
            c.create("slim:s2", "slim:name", "Na")   # outside the view
            assert c.view("slim:b1") == first
            assert hits() == before + 2
            c.create("slim:s1", "slim:note", "stat")  # inside the view
            assert len(c.view("slim:b1")) == 3
            assert hits() == before + 2

    def test_typed_error_frames(self, service):
        with ServiceClient("127.0.0.1", service.port) as c:
            with pytest.raises(RemoteOpError) as exc:
                c.request("no.such.op", tenant="a")
            assert exc.value.code == "UNKNOWN_OP"
            with pytest.raises(RemoteOpError) as exc:
                c.request("trim.create", {"s": "x"})  # no tenant
            assert exc.value.code == "TENANT_REQUIRED"
            with pytest.raises(RemoteOpError) as exc:
                c.request("trim.create", {"s": "x"}, tenant="../bad")
            assert exc.value.code == "BAD_TENANT"
            with pytest.raises(RemoteOpError) as exc:
                c.request("trim.create", {"s": 5}, tenant="a")
            assert exc.value.code == "BAD_REQUEST"
            with pytest.raises(RemoteOpError) as exc:
                c.request("dmi.value", {"entity": "Scrap", "id": "nope",
                                        "attr": "scrapName"}, tenant="a")
            assert exc.value.code == "OP_FAILED"
            assert "UnknownEntityError" in str(exc.value)

    def test_tenant_that_fails_to_open_gets_an_error_frame(self, service):
        """A tenant directory this release refuses (the retired sharded
        layout) answers OP_FAILED; the connection stays usable."""
        pad = os.path.join(service.registry.root, "sharded")
        os.makedirs(os.path.join(pad, "shard-000"))
        open(os.path.join(pad, "meta.wal"), "wb").close()
        with ServiceClient("127.0.0.1", service.port,
                           tenant="sharded") as c:
            with pytest.raises(RemoteOpError) as exc:
                c.create("slim:s", "slim:p", 1)
            assert exc.value.code == "OP_FAILED"
            assert "PersistenceError" in str(exc.value)
            c.tenant = "plain"          # same connection, another tenant
            c.create("slim:s", "slim:p", 1)
            assert c.count() == 1
        assert sorted(os.listdir(pad)) == ["meta.wal", "shard-000"]

    def test_unsupported_version_frame(self, service):
        with socket.create_connection(("127.0.0.1", service.port),
                                      timeout=10) as raw:
            raw.sendall(b'{"v": 99, "id": "x", "op": "ping"}\n')
            response = protocol.decode_frame(
                raw.makefile("rb").readline())
        assert response["error"]["code"] == "UNSUPPORTED_VERSION"
        assert response["id"] == "x"

    def test_garbage_line_answers_bad_request(self, service):
        with socket.create_connection(("127.0.0.1", service.port),
                                      timeout=10) as raw:
            raw.sendall(b"not json at all\n")
            response = protocol.decode_frame(
                raw.makefile("rb").readline())
        assert response["error"]["code"] == "BAD_REQUEST"

    def test_retry_after_under_backpressure(self, service):
        """Saturate one tenant's high-water mark: the server must answer
        RETRY_AFTER frames, and retrying clients must all land."""
        n_threads, per_thread = 8, 20
        retries = []
        errors = []

        def pound(n):
            try:
                with ServiceClient("127.0.0.1", service.port,
                                   tenant="hot") as c:
                    for i in range(per_thread):
                        _, r = c.submit_with_retry(
                            "trim.create",
                            {"s": f"slim:t{n}-{i}", "p": "slim:p",
                             "value": protocol.encode_value(i)})
                        retries.append(r)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=pound, args=(n,))
                   for n in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        with ServiceClient("127.0.0.1", service.port, tenant="hot") as c:
            assert c.count() == n_threads * per_thread

    def test_admin_stats_and_coalescing(self, service):
        """Concurrent connections' writes coalesce into fewer commit
        groups than requests (the tentpole's throughput claim)."""
        n_threads, per_thread = 6, 15

        def write(n):
            with ServiceClient("127.0.0.1", service.port,
                               tenant="co") as c:
                for i in range(per_thread):
                    c.submit_with_retry(
                        "trim.create",
                        {"s": f"slim:w{n}-{i}", "p": "slim:p",
                         "value": protocol.encode_value(i)})

        threads = [threading.Thread(target=write, args=(n,))
                   for n in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with ServiceClient("127.0.0.1", service.port, tenant="co") as c:
            stats = c.stats()["tenant"]
        assert stats["writes"] == n_threads * per_thread
        # Coalescing: at least some batches held >1 write.  (Exact
        # ratios are timing-dependent; the benchmark measures them.)
        assert stats["write_batches"] <= stats["writes"]

    def test_stats_carry_the_counters_perfbench_reads(self, service):
        """The stats shape ``perfbench/run.py`` sums: per tenant,
        ``trim.stats`` carries the writer's counters and the read cache's
        ``select_cache`` counters; ``admin.stats`` carries the registry's
        open and eviction totals."""
        with ServiceClient("127.0.0.1", service.port, tenant="pb") as c:
            c.create("slim:s", "slim:p", 1)
            c.select(s="slim:s")
            c.select(s="slim:s")
            stats = c.stats()
            admin = c.admin_stats()
        tenant = stats["tenant"]
        for key in ("writes", "write_batches", "fsync_count", "rejected"):
            assert isinstance(tenant[key], int), key
        assert tenant["writes"] == 1
        select_cache = stats["cache"]["select_cache"]
        for key in ("hits", "misses", "invalidations", "evictions"):
            assert isinstance(select_cache[key], int), key
        assert select_cache["hits"] >= 1 and select_cache["misses"] >= 1
        for key in ("opens", "evictions"):
            assert isinstance(admin[key], int), key
        assert admin["opens"] >= 1
        assert admin["tenants"]["pb"]["writes"] == 1

    def test_admin_evict_and_transparent_reopen(self, service):
        with ServiceClient("127.0.0.1", service.port, tenant="ev") as c:
            c.create("slim:s", "slim:p", 1)
        # The connection closed, releasing its reference.  Force-evict,
        # then a fresh connection transparently reopens the tenant.
        with ServiceClient("127.0.0.1", service.port) as admin:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if "ev" in admin.admin_evict(force=True):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("tenant was never evictable")
        with ServiceClient("127.0.0.1", service.port, tenant="ev") as c:
            assert c.count() == 1  # recovered from its WAL on reopen

    def test_stop_drains_and_commits(self, tmp_path):
        root = str(tmp_path / "drainroot")
        svc = TrimService(root, port=0).start_in_background()
        with ServiceClient("127.0.0.1", svc.port, tenant="d") as c:
            for i in range(10):
                c.create(f"slim:s{i}", "slim:p", i)
        svc.stop()
        # Every acked write is recoverable from the tenant's directory.
        trim = TrimManager(durable=os.path.join(root, "d"))
        assert len(trim.store) == 10
        trim.close()

    def test_draining_server_rejects_new_requests(self, tmp_path):
        svc = TrimService(str(tmp_path / "r2"), port=0,
                          reap_interval=60.0).start_in_background()
        client = ServiceClient("127.0.0.1", svc.port, tenant="x")
        client.create("slim:s", "slim:p", 1)
        svc.registry.close_all()  # simulate mid-drain registry state
        with pytest.raises((ServiceUnavailableError, RemoteOpError)):
            client.create("slim:s2", "slim:p", 2)
        client.close()
        svc.stop()


# ---------------------------------------------------------------------------
# python -m repro serve (subprocess: signals and drain)
# ---------------------------------------------------------------------------

def _spawn_server(root, extra=()):
    """Start ``python -m repro serve`` on an ephemeral port; return
    (process, port)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", root, "--port", "0",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        text=True)
    line = proc.stdout.readline()
    assert "listening on" in line, line
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    return proc, port


@pytest.mark.slow
class TestServeSubprocess:
    def test_sigterm_drains_with_zero_lost_acks(self, tmp_path):
        root = str(tmp_path / "served")
        proc, port = _spawn_server(root)
        acked = []
        stop = threading.Event()

        def load(n):
            try:
                with ServiceClient("127.0.0.1", port,
                                   tenant=f"t{n % 2}") as c:
                    i = 0
                    while not stop.is_set():
                        key = f"slim:w{n}-{i}"
                        c.submit_with_retry(
                            "trim.create",
                            {"s": key, "p": "slim:p",
                             "value": protocol.encode_value(i)})
                        acked.append((n % 2, key))
                        i += 1
            except (ServiceUnavailableError, ConnectionError, OSError):
                pass  # the drain closed us mid-request; acks stand

        threads = [threading.Thread(target=load, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.8)  # let real load build up
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        stop.set()
        for t in threads:
            t.join()
        assert len(acked) > 0
        # Zero lost acknowledged writes: reopen each tenant directory
        # and check every acked subject is present.
        for tenant in ("t0", "t1"):
            expected = {key for t, key in acked if t == int(tenant[1])}
            if not expected:
                continue
            trim = TrimManager(durable=os.path.join(root, tenant))
            subjects = {t.subject.uri for t in trim.store}
            trim.close()
            missing = expected - subjects
            assert not missing, f"{tenant}: lost {len(missing)} acked " \
                                f"write(s), e.g. {sorted(missing)[:3]}"

    def test_sigint_exits_130(self, tmp_path):
        proc, port = _spawn_server(str(tmp_path / "sigint"))
        with ServiceClient("127.0.0.1", port, tenant="x") as c:
            c.create("slim:s", "slim:p", 1)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 130


class TestCliInterrupts:
    def test_keyboard_interrupt_maps_to_130(self, monkeypatch, capsys):
        from repro import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_models", interrupted)
        parser_models = cli.build_parser()
        # Route through main() so the interrupt-safe dispatch is what
        # handles it.
        monkeypatch.setattr(cli, "build_parser", lambda: parser_models)
        parser_models.parse_args(["models"]).handler = interrupted
        assert cli.main(["models"]) == 130
        assert "interrupted" in capsys.readouterr().err
