"""The durability subsystem: WAL records, recovery, and crash injection.

The central property (ISSUE 2's acceptance bar): for a kill at *any* byte
offset during logged writes, :func:`repro.triples.wal.recover` yields
exactly the triples — and the exact ordering — of the last complete
group.  No partial group ever becomes visible, and no valid tail is ever
dropped.  The crash-injection harness below builds a scripted WAL,
records the expected store state at every commit boundary, then replays
truncations (and corruptions) at randomized offsets and checks the
recovered state against the boundary map.

Set ``CRASH_POINTS`` to raise the number of randomized kill points (the
``make verify`` target does).
"""

import os
import random

import pytest

from repro.cli import main
from repro.errors import PersistenceError
from repro.service.registry import PadRegistry
from repro.triples import persistence
from repro.triples.query import Pattern, Query, Var
from repro.triples.transactions import Change
from repro.triples.trim import TrimManager
from repro.triples.store import TripleStore
from repro.triples.triple import Literal, Resource, triple
from repro.triples import wal
from repro.triples.wal import (MAGIC, SNAPSHOT_FILE, WAL_FILE, Durability,
                               WriteAheadLog, decode_record, encode_change,
                               encode_commit, recover, scan_wal)
from repro.util.env import env_int

from tests.snapshot_files import (DELTA_MAGIC, DELTAS_FILE, delta_log, framed,
                                  raw_segments, v2_text_snapshot)

CRASH_POINTS = env_int("CRASH_POINTS", 40)


class TestRecordCodec:
    def test_change_round_trip_resource_value(self):
        change = Change("add", triple("b1", "slim:bundleContent",
                                      Resource("s1")), 17)
        decoded = decode_record(encode_change(change))
        assert decoded.kind == "change"
        assert decoded.change == change

    @pytest.mark.parametrize("value", ["text", "", "with \r\n and \x00", 3,
                                       -2**40, 3.5, True, False])
    def test_change_round_trip_literal_values(self, value):
        change = Change("remove", triple("s", "p", value), 2**33)
        assert decode_record(encode_change(change)).change == change

    def test_commit_round_trip(self):
        decoded = decode_record(encode_commit(41))
        assert decoded.kind == "commit"
        assert decoded.group == 41

    def test_garbled_payloads_rejected(self):
        for payload in (b"", b"Zjunk", b"C\x00", b"A\x00\x00"):
            with pytest.raises(PersistenceError):
                decode_record(payload)


class TestWriteAheadLog:
    def test_append_commit_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path))
        c1 = Change("add", triple("a", "p", 1), 0)
        c2 = Change("add", triple("b", "p", 2), 1)
        wal.append(c1)
        wal.append(c2)
        assert wal.dirty == 2
        assert wal.commit() == 1
        wal.append(Change("remove", triple("a", "p", 1), 0))
        wal.commit()
        wal.close()
        scan = scan_wal(path)
        assert [g for g, _ in scan.groups] == [1, 2]
        assert scan.groups[0][1] == [c1, c2]
        assert scan.pending == []
        assert scan.last_group == 2

    def test_pending_tail_not_in_groups(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path))
        wal.append(Change("add", triple("a", "p", 1), 0))
        wal.commit()
        wal.append(Change("add", triple("b", "p", 2), 1))
        wal.close()  # no boundary for b
        scan = scan_wal(path)
        assert len(scan.groups) == 1
        assert len(scan.pending) == 1

    def test_reopen_truncates_corrupt_tail_and_appends(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path))
        wal.append(Change("add", triple("a", "p", 1), 0))
        wal.commit()
        wal.close()
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x01garbage tail")
        wal = WriteAheadLog(path, scan_wal(path))
        assert os.path.getsize(path) == good_size
        assert wal.group == 1
        wal.append(Change("add", triple("b", "p", 2), 1))
        wal.commit()
        wal.close()
        assert [g for g, _ in scan_wal(path).groups] == [1, 2]

    def test_reopen_discards_uncommitted_tail(self, tmp_path):
        # Valid-but-uncommitted records from a crashed session must be
        # physically truncated on reopen; otherwise the next commit's
        # boundary record would fence them into a committed group that
        # recovery replays but the live session never applied.
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path))
        wal.append(Change("add", triple("a", "p", 1), 0))
        wal.commit()
        committed_size = os.path.getsize(path)
        wal.append(Change("add", triple("ghost", "p", 2), 1))
        wal.close()   # crash: a complete record past the last boundary
        assert os.path.getsize(path) > committed_size
        wal = WriteAheadLog(path, scan_wal(path))
        assert os.path.getsize(path) == committed_size
        wal.append(Change("add", triple("b", "p", 3), 1))
        wal.commit()
        wal.close()
        committed = [c for _, group in scan_wal(path).groups for c in group]
        assert [c.triple.subject.uri for c in committed] == ["a", "b"]

    def test_missing_and_headerless_files_scan_empty(self, tmp_path):
        assert scan_wal(str(tmp_path / "absent.log")).groups == []
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"NOTAWAL!rest")
        scan = scan_wal(str(bad))
        assert scan.groups == [] and scan.valid_end == 0

    def test_reset_keeps_group_counter(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path))
        wal.append(Change("add", triple("a", "p", 1), 0))
        wal.commit()
        wal.reset()
        assert os.path.getsize(path) == len(MAGIC)
        wal.append(Change("add", triple("b", "p", 2), 1))
        assert wal.commit() == 2  # monotonic across resets
        wal.close()


class _BrokenFile:
    """Delegates to a real file object but fails selected operations."""

    def __init__(self, inner, fail_ops):
        self._inner = inner
        self._fail = set(fail_ops)

    def __getattr__(self, name):
        if name in self._fail:
            def boom(*args, **kwargs):
                raise OSError(f"injected {name} failure")
            return boom
        return getattr(self._inner, name)


class TestGroupCommitBuffering:
    def test_append_buffers_until_commit(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path), fsync=False)
        wal.append(Change("add", triple("a", "p", 1), 0))
        wal.append(Change("add", triple("b", "p", 2), 1))
        # Nothing but the header on disk yet: records are buffered.
        assert os.path.getsize(path) == len(MAGIC)
        assert wal.dirty == 2
        wal.commit()
        wal.close()
        scan = scan_wal(path)
        assert [g for g, _ in scan.groups] == [1]
        assert [c.triple.subject.uri for c in scan.groups[0][1]] == ["a", "b"]

    def test_close_writes_buffered_tail_without_boundary(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path), fsync=False)
        wal.append(Change("add", triple("a", "p", 1), 0))
        wal.commit()
        wal.append(Change("add", triple("b", "p", 2), 1))
        wal.close()
        scan = scan_wal(path)
        assert len(scan.groups) == 1
        assert [c.triple.subject.uri for c in scan.pending] == ["b"]

    def test_reset_discards_buffered_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path), fsync=False)
        wal.append(Change("add", triple("doomed", "p", 1), 0))
        wal.reset()
        assert wal.dirty == 0
        wal.append(Change("add", triple("kept", "p", 2), 1))
        wal.commit()
        wal.close()
        committed = [c for _, group in scan_wal(path).groups for c in group]
        assert [c.triple.subject.uri for c in committed] == ["kept"]

    def test_commit_fsync_failure_keeps_buffer_for_retry(self, tmp_path,
                                                         monkeypatch):
        import repro.triples.wal as wal_module
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path), fsync=True)
        wal.append(Change("add", triple("a", "p", 1), 0))
        wal.append(Change("add", triple("b", "p", 2), 1))

        def failing_fsync(fd):
            raise OSError("injected fsync failure")
        monkeypatch.setattr(wal_module.os, "fsync", failing_fsync)
        with pytest.raises(PersistenceError):
            wal.commit()
        # Nothing moved: same buffer, same accounting, same group counter.
        assert wal.dirty == 2
        assert wal.group == 0
        monkeypatch.undo()
        # The identical commit retries cleanly — and the rewind means the
        # log holds exactly one copy of the group, not a duplicate.
        assert wal.commit() == 1
        wal.close()
        scan = scan_wal(path)
        assert [g for g, _ in scan.groups] == [1]
        assert [c.triple.subject.uri for c in scan.groups[0][1]] == ["a", "b"]
        assert scan.total_bytes == scan.committed_end

    def test_commit_flush_failure_is_retryable(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path), fsync=False)
        wal.append(Change("add", triple("a", "p", 1), 0))
        real_file = wal._file
        wal._file = _BrokenFile(real_file, {"flush"})
        with pytest.raises(PersistenceError):
            wal.commit()
        assert wal.dirty == 1 and wal.group == 0
        wal._file = real_file
        assert wal.commit() == 1
        wal.close()
        scan = scan_wal(path)
        assert [g for g, _ in scan.groups] == [1]
        assert len(scan.groups[0][1]) == 1

    def test_unrecoverable_commit_failure_fails_closed(self, tmp_path):
        # When the post-failure rewind cannot restore the on-disk tail,
        # the log must refuse all further writes: a later boundary record
        # could otherwise fence half-written frames into a committed group.
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, scan_wal(path), fsync=False)
        wal.append(Change("add", triple("a", "p", 1), 0))
        wal._file = _BrokenFile(wal._file, {"flush", "seek"})
        with pytest.raises(PersistenceError):
            wal.commit()
        with pytest.raises(PersistenceError):
            wal.append(Change("add", triple("b", "p", 2), 1))
        with pytest.raises(PersistenceError):
            wal.commit()


class TestExplicitGroupCommit:
    def test_groups_close_only_on_explicit_commit(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        for i in range(25):
            trim.create(f"r{i}", "p", i)
        assert trim.durability.group == 0
        assert trim.durability.pending_changes == 25
        trim.commit()
        for i in range(3):
            trim.create(f"s{i}", "p", i)
        trim.commit()
        trim.close()
        scan = scan_wal(os.path.join(directory, WAL_FILE))
        assert [len(changes) for _, changes in scan.groups] == [25, 3]
        assert len(recover(directory).store) == 28


def _scripted_run(directory, compact_every=10_000):
    """Drive a durable TrimManager through a deterministic mutation script.

    Returns ``(wal_bytes, boundaries)`` where *boundaries* maps each
    commit point to ``(wal_size_after_commit, expected_triples_in_order)``.
    The script mixes adds, removes, undo (sequence-restoring), and
    literal payloads that need v2 escaping.
    """
    trim = TrimManager(durable=directory, compact_every=compact_every)
    log = trim.enable_undo()
    wal_path = os.path.join(directory, WAL_FILE)
    boundaries = [(os.path.getsize(wal_path), [])]

    def checkpoint():
        log.checkpoint()
        trim.commit()
        boundaries.append((os.path.getsize(wal_path), list(trim.store)))

    trim.create("b1", "slim:bundleName", "Electrolyte")
    trim.create("b1", "slim:bundleContent", Resource("s1"))
    trim.create("s1", "slim:scrapName", "K+ 3.9")
    checkpoint()
    trim.create("s2", "slim:scrapName", "CR\rLF\nNUL\x00")
    trim.create("b1", "slim:bundleContent", Resource("s2"))
    checkpoint()
    trim.remove(triple("s1", "slim:scrapName", "K+ 3.9"))
    trim.create("s1", "slim:scrapName", "K+ 4.1")
    checkpoint()
    log.undo()   # restore K+ 3.9 at its original position
    checkpoint()
    trim.create("b2", "slim:bundleName", Literal(True))
    trim.create("b2", "slim:bundleWeight", 70.5)
    trim.create("b2", "slim:bundleSize", -12)
    checkpoint()
    trim.store.remove_matching(subject=Resource("b2"))
    checkpoint()
    # A logged-but-uncommitted tail: must never be recovered.
    trim.create("ghost", "p", "never committed")
    trim.close()
    with open(wal_path, "rb") as handle:
        wal_bytes = handle.read()
    return wal_bytes, boundaries


def _expected_at(boundaries, size):
    """The store contents of the last commit boundary at or before *size*."""
    expected = boundaries[0][1]
    for boundary_size, triples in boundaries:
        if boundary_size <= size:
            expected = triples
    return expected


class TestCrashInjection:
    """Kill the writer at randomized byte offsets; recovery must land on
    the last complete group — exactly, including order."""

    @pytest.fixture(scope="class")
    def script(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("scripted"))
        return _scripted_run(directory)

    def _offsets(self, wal_bytes, seed):
        rng = random.Random(seed)
        offsets = {0, len(MAGIC), len(wal_bytes) - 1, len(wal_bytes)}
        offsets.update(rng.randrange(len(wal_bytes) + 1)
                       for _ in range(CRASH_POINTS))
        return sorted(offsets)

    def test_truncation_at_randomized_offsets(self, script, tmp_path):
        wal_bytes, boundaries = script
        for i, offset in enumerate(self._offsets(wal_bytes, seed=2001)):
            crash_dir = tmp_path / f"t{i}"
            crash_dir.mkdir()
            (crash_dir / WAL_FILE).write_bytes(wal_bytes[:offset])
            result = recover(str(crash_dir))
            expected = _expected_at(boundaries, offset)
            assert list(result.store) == expected, f"truncate@{offset}"
            # Only the torn suffix past the last *valid record* may be
            # discarded (complete-but-uncommitted records scan fine; they
            # are just never applied).
            assert 0 <= result.discarded_bytes <= offset, f"truncate@{offset}"

    def test_corruption_at_randomized_offsets(self, script, tmp_path):
        wal_bytes, boundaries = script
        for i, offset in enumerate(self._offsets(wal_bytes, seed=77)):
            if offset >= len(wal_bytes):
                continue
            damaged = bytearray(wal_bytes)
            damaged[offset] ^= 0xFF
            crash_dir = tmp_path / f"c{i}"
            crash_dir.mkdir()
            (crash_dir / WAL_FILE).write_bytes(bytes(damaged))
            result = recover(str(crash_dir))
            # A flipped byte invalidates the record containing it and
            # everything after; all complete groups before it survive.
            assert list(result.store) == _expected_at(boundaries, offset), \
                f"corrupt@{offset}"

    def test_truncation_with_snapshot_in_play(self, tmp_path):
        """Same property when recovery stacks the WAL tail on a snapshot
        a full rewrite wrote."""
        directory = str(tmp_path / "snap")
        trim = TrimManager(durable=directory, compact_every=10_000)
        wal_path = os.path.join(directory, WAL_FILE)
        covered_state = []      # what the latest snapshot covers
        boundaries = []         # (wal size, state) since that snapshot
        for i in range(8):      # rewrites after commits 3 and 6
            trim.create(f"r{i}", "p", i)
            trim.commit()
            if i in (2, 5):
                trim.durability.compact()
                covered_state = list(trim.store)
                boundaries = []
            else:
                boundaries.append((os.path.getsize(wal_path),
                                   list(trim.store)))
        trim.create("tail", "p", "uncommitted")
        trim.close()
        wal_bytes = open(wal_path, "rb").read()
        snapshot_bytes = open(os.path.join(directory, SNAPSHOT_FILE),
                              "rb").read()
        assert boundaries, "script must leave a WAL tail past the snapshot"
        for i, offset in enumerate(range(0, len(wal_bytes) + 1, 5)):
            crash_dir = tmp_path / f"s{i}"
            crash_dir.mkdir()
            (crash_dir / SNAPSHOT_FILE).write_bytes(snapshot_bytes)
            (crash_dir / WAL_FILE).write_bytes(wal_bytes[:offset])
            result = recover(str(crash_dir))
            # A damaged/short WAL never loses the snapshotted groups.
            expected = covered_state
            for size, triples in boundaries:
                if size <= offset:
                    expected = triples
            assert list(result.store) == expected, f"snap-truncate@{offset}"


class TestBulkIngestCrashInjection:
    """The crash property must survive the bulk path: a kill mid-group
    during a bulk ingest recovers to the last *committed* group, with
    indexes (counts, plans) indistinguishable from a freshly built store."""

    @pytest.fixture(scope="class")
    def script(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("bulk-scripted"))
        trim = TrimManager(durable=directory, compact_every=10_000)
        wal_path = os.path.join(directory, WAL_FILE)
        boundaries = [(os.path.getsize(wal_path), [])]

        def mark():
            boundaries.append((os.path.getsize(wal_path), list(trim.store)))

        # One group per ingest: direct triple form ...
        trim.bulk_ingest([triple(f"a{i}", "slim:size", i) for i in range(40)])
        mark()
        # ... the session form, driving the TRIM create API ...
        with trim.bulk_ingest():
            for i in range(30):
                trim.create(f"b{i}", "slim:scrapName", f"scrap {i}")
                trim.create(f"b{i}", "slim:member", Resource(f"a{i % 40}"))
        mark()
        # ... and a mixed group with removals after a bulk load.
        trim.bulk_ingest([triple(f"c{i}", "slim:size", i) for i in range(20)])
        mark()
        trim.store.remove_matching(subject=Resource("c3"))
        trim.remove(triple("a1", "slim:size", 1))
        trim.commit()
        mark()
        # An ingest that dies mid-session must commit nothing.
        try:
            with trim.bulk_ingest():
                trim.create("doomed", "p", 1)
                raise RuntimeError("die mid-ingest")
        except RuntimeError:
            pass
        trim.close()
        with open(wal_path, "rb") as handle:
            wal_bytes = handle.read()
        return wal_bytes, boundaries

    def test_each_ingest_is_one_group(self, script, tmp_path):
        wal_bytes, _ = script
        path = tmp_path / WAL_FILE
        path.write_bytes(wal_bytes)
        scan = scan_wal(str(path))
        # One WAL group per ingest (40, then 30 creates x 2 triples, then
        # 20), one for the mixed removals — and nothing at all from the
        # session that died mid-ingest.
        assert [len(changes) for _, changes in scan.groups] == [40, 60, 20, 2]
        assert scan.pending == []

    def test_kill_mid_group_recovers_last_committed_group(self, script,
                                                          tmp_path):
        wal_bytes, boundaries = script
        rng = random.Random(4242)
        offsets = {0, len(MAGIC), len(wal_bytes) - 1, len(wal_bytes)}
        offsets.update(rng.randrange(len(wal_bytes) + 1)
                       for _ in range(CRASH_POINTS))
        for i, offset in enumerate(sorted(offsets)):
            crash_dir = tmp_path / f"b{i}"
            crash_dir.mkdir()
            (crash_dir / WAL_FILE).write_bytes(wal_bytes[:offset])
            result = recover(str(crash_dir))
            expected = _expected_at(boundaries, offset)
            assert list(result.store) == expected, f"bulk-truncate@{offset}"

    def test_post_recovery_indexes_agree_with_fresh_store(self, script,
                                                          tmp_path):
        wal_bytes, boundaries = script
        # Recover from the complete log, then compare counts and query
        # plans against a store built from scratch: stale or torn indexes
        # would disagree even where the triple sets match.
        (tmp_path / WAL_FILE).write_bytes(wal_bytes)
        recovered = recover(str(tmp_path)).store
        fresh = TripleStore()
        fresh.add_all(boundaries[-1][1])
        assert list(recovered) == list(fresh)
        probes = [
            dict(),
            dict(subject=Resource("a3")),
            dict(property=Resource("slim:size")),
            dict(subject=Resource("b7"), property=Resource("slim:scrapName")),
            dict(property=Resource("slim:member"), value=Resource("a1")),
            dict(subject=Resource("c3")),          # removed mid-script
            dict(subject=Resource("doomed")),      # aborted mid-ingest
        ]
        for kwargs in probes:
            assert recovered.count(**kwargs) == fresh.count(**kwargs) \
                == len(fresh.select(**kwargs)), kwargs
        query = Query([
            Pattern(Var("b"), Resource("slim:member"), Var("a")),
            Pattern(Var("a"), Resource("slim:size"), Literal(2)),
        ])
        assert [(s.position, s.estimate) for s in query.explain(recovered)] \
            == [(s.position, s.estimate) for s in query.explain(fresh)]
        assert query.run_all(recovered) == query.run_all(fresh)


class TestSnapshotSafety:
    def test_leftover_tmp_file_is_ignored(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.create("a", "p", 1)
        trim.commit()
        trim.durability.compact()
        trim.close()
        # A crash mid-compaction leaves a torn temp file; the atomic
        # rename protocol means the real snapshot is still the old one.
        with open(os.path.join(directory, SNAPSHOT_FILE + ".tmp"), "wb") as f:
            f.write(b"torn garbage")
        result = recover(directory)
        assert list(result.store) == [triple("a", "p", 1)]

    def test_corrupt_snapshot_is_rejected_loudly(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.create("a", "p", 1)
        trim.commit()
        trim.durability.compact()
        trim.close()
        path = os.path.join(directory, SNAPSHOT_FILE)
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(PersistenceError):
            recover(directory)

    def test_crash_between_snapshot_and_wal_reset(self, tmp_path):
        """Snapshot ahead of the log: replay must not double-apply."""
        directory = str(tmp_path)
        trim = TrimManager(durable=directory, compact_every=10_000)
        trim.create("a", "p", 1)
        trim.commit()
        trim.remove(triple("a", "p", 1))
        trim.create("a", "p", 2)
        trim.commit()
        # Simulate the crash window: snapshot covering group 2 written,
        # but the WAL still holds groups 1-2.
        persistence.save_snapshot(trim.store,
                                  os.path.join(directory, SNAPSHOT_FILE),
                                  trim.namespaces, group=trim.durability.group)
        trim.close()
        result = recover(directory)
        assert list(result.store) == [triple("a", "p", 2)]
        assert result.groups_replayed == 0  # all skipped by group number
        # Reopening must fast-forward the group counter past the snapshot.
        trim = TrimManager(durable=directory)
        trim.create("b", "p", 3)
        trim.commit()
        assert trim.durability.group > 2
        trim.close()
        assert set(recover(directory).store) == {triple("a", "p", 2),
                                                 triple("b", "p", 3)}


class TestFullRewriteCrashInjection:
    """A crash inside a full rewrite must lose nothing and apply nothing
    twice.

    The rewrite protocol: the snapshot covering every committed group is
    fsynced and renamed into place *before* the WAL is reset.  A crash in
    between leaves a WAL whose groups the snapshot already covers, and
    recovery must skip every one of them by group number — whatever of
    that stale WAL survived, torn or bit-flipped at any byte.
    """

    @pytest.fixture(scope="class")
    def rewrite(self, tmp_path_factory):
        """The snapshot after one full rewrite, and the WAL before it."""
        directory = str(tmp_path_factory.mktemp("full-rewrite"))
        trim = TrimManager(durable=directory, compact_every=10_000)
        for i in range(3):
            trim.create(f"r{i}", "p", i)
            trim.commit()
        # Groups a double replay would visibly get wrong: a removal, a
        # re-add at a new sequence, and literals that exercise the codec.
        trim.remove(triple("r1", "p", 1))
        trim.create("s1", "slim:scrapName", "CR\rLF\nNUL\x00")
        trim.commit()
        trim.create("r1", "p", 1)
        trim.create("b2", "slim:bundleWeight", 70.5)
        trim.commit()
        wal_bytes = open(os.path.join(directory, WAL_FILE), "rb").read()
        trim.durability.compact()   # snapshot now covers everything
        snapshot_bytes = open(os.path.join(directory, SNAPSHOT_FILE),
                              "rb").read()
        expected = list(trim.store)
        sequences = [trim.store.sequence_of(t) for t in expected]
        trim.close()
        return snapshot_bytes, wal_bytes, expected, sequences

    def _crash_dir(self, tmp_path, name, snapshot_bytes, wal_bytes):
        crash_dir = tmp_path / name
        crash_dir.mkdir()
        (crash_dir / SNAPSHOT_FILE).write_bytes(snapshot_bytes)
        (crash_dir / WAL_FILE).write_bytes(wal_bytes)
        return str(crash_dir)

    def test_covered_wal_groups_are_skipped(self, rewrite, tmp_path):
        snapshot_bytes, wal_bytes, expected, sequences = rewrite
        result = recover(self._crash_dir(tmp_path, "crash", snapshot_bytes,
                                         wal_bytes))
        assert list(result.store) == expected
        assert [result.store.sequence_of(t) for t in result.store] == \
            sequences
        assert result.snapshot_group == 5
        assert result.groups_replayed == 0

    def test_any_truncation_or_bit_flip_of_the_covered_wal(self, rewrite,
                                                           tmp_path):
        snapshot_bytes, wal_bytes, expected, _ = rewrite
        for offset in range(len(wal_bytes) + 1):
            directory = self._crash_dir(tmp_path, f"t{offset}",
                                        snapshot_bytes, wal_bytes[:offset])
            assert list(recover(directory).store) == expected, \
                f"covered-truncate@{offset}"
        for offset in range(len(wal_bytes)):
            damaged = bytearray(wal_bytes)
            damaged[offset] ^= 0xFF
            directory = self._crash_dir(tmp_path, f"c{offset}",
                                        snapshot_bytes, bytes(damaged))
            assert list(recover(directory).store) == expected, \
                f"covered-corrupt@{offset}"

    def test_reopen_finishes_the_interrupted_reset(self, rewrite, tmp_path):
        # A session that reopens on a crashed rewrite resets the covered
        # WAL and carries on: new commits are numbered above the
        # snapshot, so replay never skips them.
        snapshot_bytes, wal_bytes, expected, _ = rewrite
        directory = self._crash_dir(tmp_path, "reopen", snapshot_bytes,
                                    wal_bytes)
        trim = TrimManager(durable=directory, compact_every=10_000)
        assert list(trim.store) == expected
        assert os.path.getsize(os.path.join(directory, WAL_FILE)) == \
            len(MAGIC)
        trim.create("post-crash", "p", 1)
        trim.commit()
        assert trim.durability.group > 5
        trim.close()
        result = recover(directory)
        assert list(result.store) == expected + [triple("post-crash", "p", 1)]
        assert result.groups_replayed == 1


class TestMixedFormatRecovery:
    """A v3 snapshot composes with a WAL tail.  A snapshot or a delta log
    an earlier release wrote is refused (see
    :class:`TestOldSnapshotRefusal`).
    """

    def test_v3_snapshot_with_wal_tail(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory, compact_every=10_000)
        for i in range(3):
            trim.create(f"r{i}", "slim:size", i)
            trim.commit()
        trim.durability.compact()
        trim.create("r3", "slim:size", 3)
        trim.remove(triple("r1", "slim:size", 1))
        trim.commit()
        trim.create("r4", "slim:size", 4)
        trim.commit()
        expected = list(trim.store)
        sequences = [trim.store.sequence_of(t) for t in expected]
        trim.close()
        result = recover(directory)
        assert list(result.store) == expected
        assert [result.store.sequence_of(t) for t in result.store] == sequences
        assert result.snapshot_group == 3
        assert result.groups_replayed == 2
        # And the reopened directory keeps working as a live pad.
        trim = TrimManager(durable=directory)
        assert list(trim.store) == expected
        trim.create("r5", "slim:size", 5)
        trim.commit()
        trim.close()
        assert len(recover(directory).store) == len(expected) + 1

    def test_pre_delta_directory_recovers(self, tmp_path):
        # Snapshot + WAL only — the layout every release before the delta
        # log left behind, and the one this release writes.
        directory = str(tmp_path)
        trim = TrimManager(durable=directory, compact_every=10_000)
        trim.create("a", "p", 1)
        trim.commit()
        trim.durability.compact()
        trim.create("b", "p", 2)
        trim.commit()
        expected = list(trim.store)
        trim.close()
        assert not os.path.exists(os.path.join(directory, DELTAS_FILE))
        result = recover(directory)
        assert list(result.store) == expected
        assert result.snapshot_group == 1
        assert result.groups_replayed == 1

    def test_recovered_state_dumps_identically_across_formats(self, tmp_path):
        # The same store recovered from a v3 snapshot and read back from
        # the XML interchange dumps byte-identically (order, escaping —
        # everything), and the snapshot also keeps every sequence.
        source = TripleStore()
        source.add(triple("b1", "slim:bundleName", "Electrolyte"))
        source.add(triple("s2", "slim:scrapName", "CR\rLF\nNUL\x00"))
        source.add(triple("b1", "slim:bundleWeight", 70.5))
        source.remove(triple("s2", "slim:scrapName", "CR\rLF\nNUL\x00"))
        source.restore(triple("s2", "slim:scrapName", "CR\rLF\nNUL\x00"), 1)
        persistence.save_snapshot(source, str(tmp_path / SNAPSHOT_FILE),
                                  group=1)
        recovered = recover(str(tmp_path)).store
        interchange = persistence.loads(persistence.dumps(source))
        assert persistence.dumps(recovered) == \
            persistence.dumps(interchange) == persistence.dumps(source)
        assert [recovered.sequence_of(t) for t in recovered] == \
            [source.sequence_of(t) for t in source]


def _snapshot_and_wal_directory(directory):
    """A durable directory: a snapshot through group 1, then groups 2
    and 3 in the WAL.  Returns what it holds."""
    trim = TrimManager(durable=directory, compact_every=10_000)
    trim.create("r0", "slim:size", 0)
    trim.commit()
    trim.durability.compact()
    trim.create("r1", "slim:size", 1)
    trim.commit()
    trim.create("r2", "slim:size", 2)
    trim.commit()
    trim.close()
    return trim.store


def _old_format_directory(directory, form):
    """A durable directory as an earlier release left it: its snapshot
    rewritten in *form* — ``"v2"`` (XML text) or ``"raw-v3"`` (raw
    ``D``/``T``) — or, for ``"deltas"``, a delta log whose segment
    holds group 2 (the WAL still holding it too, as after a crash
    between the segment's fsync and the WAL truncate)."""
    store = _snapshot_and_wal_directory(directory)
    if form == "deltas":
        group, changes = scan_wal(os.path.join(directory, WAL_FILE)).groups[0]
        with open(os.path.join(directory, DELTAS_FILE), "wb") as handle:
            handle.write(delta_log([(group, group, changes)]))
        return
    path = os.path.join(directory, SNAPSHOT_FILE)
    if form == "v2":
        data = v2_text_snapshot(store, group=1)
    else:
        data = framed(raw_segments(open(path, "rb").read()))
    with open(path, "wb") as handle:
        handle.write(data)


def _directory_bytes(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


#: form -> the file the refusal must name.
_REFUSED_FILE = {"v2": SNAPSHOT_FILE, "raw-v3": SNAPSHOT_FILE,
                 "deltas": DELTAS_FILE}


class TestOldSnapshotRefusal:
    """A snapshot or a non-empty delta log an earlier release wrote
    raises one migration error through every way a directory is opened,
    and the refusal leaves every file in the directory byte-identical."""

    def _open_trim(self, directory):
        TrimManager(durable=directory)

    def _open_registry(self, directory):
        registry = PadRegistry(os.path.dirname(directory))
        try:
            registry.acquire(os.path.basename(directory))
        finally:
            registry.close_all()

    @pytest.mark.parametrize("form", sorted(_REFUSED_FILE))
    @pytest.mark.parametrize("opener", ["recover", "trim", "registry"])
    def test_refused_without_touching_the_directory(self, form, opener,
                                                    tmp_path):
        directory = str(tmp_path / "pad")
        _old_format_directory(directory, form)
        before = _directory_bytes(directory)
        open_directory = {"recover": recover, "trim": self._open_trim,
                          "registry": self._open_registry}[opener]
        with pytest.raises(PersistenceError) as excinfo:
            open_directory(directory)
        message = str(excinfo.value)
        assert _REFUSED_FILE[form] in message
        assert "earlier release" in message
        assert "previous release and compact it" in message
        assert _directory_bytes(directory) == before

    @pytest.mark.parametrize("form", sorted(_REFUSED_FILE))
    def test_cli_recover_exits_1(self, form, tmp_path, capsys):
        directory = str(tmp_path / "pad")
        _old_format_directory(directory, form)
        before = _directory_bytes(directory)
        assert main(["recover", directory]) == 1
        err = capsys.readouterr().err
        assert _REFUSED_FILE[form] in err
        assert "earlier release" in err
        assert _directory_bytes(directory) == before

    def test_header_only_delta_log_is_ignored_and_kept(self, tmp_path):
        # Every directory an earlier release compacted or evicted keeps a
        # delta log that is only its magic: it holds nothing, so the
        # directory opens on its snapshot + WAL, and the file stays.
        directory = str(tmp_path / "pad")
        expected = list(_snapshot_and_wal_directory(directory))
        deltas_path = os.path.join(directory, DELTAS_FILE)
        with open(deltas_path, "wb") as handle:
            handle.write(DELTA_MAGIC)
        assert list(recover(directory).store) == expected
        trim = TrimManager(durable=directory)
        assert list(trim.store) == expected
        trim.create("r3", "slim:size", 3)
        trim.commit()
        trim.durability.compact()
        trim.close()
        assert open(deltas_path, "rb").read() == DELTA_MAGIC
        assert len(recover(directory).store) == len(expected) + 1


class TestDurabilityLifecycle:
    def test_recovery_preserves_exact_order_and_sequences(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        log = trim.enable_undo()
        for i in range(6):
            trim.create(f"r{i}", "p", i)
        log.checkpoint()
        trim.remove(triple("r2", "p", 2))
        log.checkpoint()
        trim.commit()
        log.undo()        # r2 returns to position 2, not the end
        trim.commit()
        expected = list(trim.store)
        trim.close()
        recovered = recover(directory).store
        assert list(recovered) == expected
        assert recovered.select() == expected
        assert [recovered.sequence_of(t) for t in recovered] == \
            [trim.store.sequence_of(t) for t in expected]

    def test_crashed_sessions_pending_changes_never_fenced_in(self, tmp_path):
        # The review scenario end to end: session 1 crashes with an
        # uncommitted add in the log; session 2 recovers (without the
        # ghost), commits its own work, and a final recovery must still
        # not resurrect the dead session's change.
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.create("a", "p", 1)
        trim.commit()
        trim.create("ghost", "p", "uncommitted")
        trim.close()   # the add is in the log but has no boundary record
        again = TrimManager(durable=directory)
        assert list(again.store) == [triple("a", "p", 1)]
        again.create("b", "p", 2)
        again.commit()
        again.close()
        assert list(recover(directory).store) == [triple("a", "p", 1),
                                                  triple("b", "p", 2)]

    def test_attaching_nonempty_store_writes_baseline_snapshot(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager()
        trim.create("pre", "p", "existing")
        trim.enable_durability(directory)
        trim.close()
        assert list(recover(directory).store) == [
            triple("pre", "p", "existing")]

    def test_attaching_nonempty_store_to_existing_state_rejected(self, tmp_path):
        directory = str(tmp_path)
        first = TrimManager(durable=directory)
        first.create("a", "p", 1)
        first.commit()
        first.close()
        second = TrimManager()
        second.create("b", "p", 2)
        with pytest.raises(PersistenceError):
            second.enable_durability(directory)

    def test_compaction_counts_resume_after_reopen(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory, compact_every=3)
        trim.create("a", "p", 1)
        trim.commit()
        trim.close()
        trim = TrimManager(durable=directory, compact_every=3)
        assert trim.durability.groups_since_check == 1
        trim.create("b", "p", 2)
        trim.commit()
        trim.create("c", "p", 3)
        trim.commit()   # third group since the open -> trigger weighed
        assert trim.durability.groups_since_check == 0
        # A WAL far below the floor is not rewritten: all three groups
        # stay in the log, and no snapshot is written.
        assert [group for group, _ in scan_wal(
            os.path.join(directory, WAL_FILE)).groups] == [1, 2, 3]
        assert not os.path.exists(os.path.join(directory, SNAPSHOT_FILE))
        trim.close()
        assert len(recover(directory).store) == 3

    def test_empty_commit_is_a_noop(self, tmp_path):
        trim = TrimManager(durable=str(tmp_path))
        assert trim.commit() is False
        trim.create("a", "p", 1)
        assert trim.commit() is True
        assert trim.commit() is False
        trim.close()

    def test_commit_without_durability_is_noop(self):
        assert TrimManager().commit() is False

    def test_recover_requires_empty_target(self, tmp_path):
        occupied = TripleStore()
        occupied.add(triple("a", "p", 1))
        with pytest.raises(PersistenceError):
            recover(str(tmp_path), store=occupied)

    def test_load_replaces_durable_contents(self, tmp_path):
        plain = TrimManager()
        plain.create("x", "p", "from file")
        xml_path = str(tmp_path / "pad.xml")
        plain.save(xml_path)
        directory = str(tmp_path / "dur")
        trim = TrimManager(durable=directory)
        trim.create("old", "p", "doomed")
        trim.commit()
        trim.load(xml_path)
        trim.commit()
        trim.close()
        assert list(recover(directory).store) == [
            triple("x", "p", "from file")]


class TestOneScanPerOpen:
    """A durable open reads the WAL once: recovery's scan is handed to
    the log handle instead of being taken again."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        real = wal.scan_wal

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(wal, "scan_wal", counting)
        return calls

    def test_durable_open_of_existing_state(self, tmp_path, scans):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory, compact_every=10_000)
        trim.create("a", "p", 1)
        trim.commit()
        trim.durability.compact()
        trim.create("b", "p", 2)
        trim.commit()
        trim.create("c", "p", 3)
        trim.commit()
        expected = list(trim.store)
        trim.close()
        scans.clear()
        reopened = TrimManager(durable=directory)
        assert scans == [os.path.join(directory, WAL_FILE)]
        assert list(reopened.store) == expected
        assert reopened.recovery_stats()["snapshot_group"] == 1
        assert reopened.recovery_stats()["groups_replayed"] == 2
        # The handle opened from the shared scan keeps logging.
        reopened.create("d", "p", 4)
        reopened.commit()
        reopened.close()
        assert list(recover(directory).store) == \
            expected + [triple("d", "p", 4)]

    def test_durable_open_of_a_fresh_directory(self, tmp_path, scans):
        trim = TrimManager(durable=str(tmp_path / "fresh"))
        assert len(scans) == 1
        trim.close()


def _uncompressed_size(path):
    """The size *path* would have with every compressed ``d``/``t``
    segment stored raw — recomputed here from the file itself."""
    return len(framed(raw_segments(open(path, "rb").read())))


class TestFullRewriteTrigger:
    """The WAL is weighed against the snapshot's *uncompressed* size,
    so compressing snapshots leaves the rewrite cadence alone.

    The store is large enough that ``_DELTA_RATIO`` times its snapshot
    is above the fixed floor, so the ratio decides.
    """

    RATIO = Durability._DELTA_RATIO

    def _populated(self, directory):
        store = TripleStore()
        durability = Durability(store, directory, compact_every=10**9,
                                fsync=False)
        for i in range(6000):
            store.add(triple(f"scrap-{i:05d}", "slim:scrapName",
                             f"renamed in cycle {i % 97}"))
        durability.commit()
        durability.compact()
        return store, durability

    def _assert_flips_at_uncompressed_basis(self, store, durability,
                                            directory):
        snapshot = os.path.join(directory, SNAPSHOT_FILE)
        wal_path = os.path.join(directory, WAL_FILE)
        raw = _uncompressed_size(snapshot)
        threshold = self.RATIO * raw
        # The ratio decides, not the floor, and the compressed file would
        # have put the threshold well below this one.
        assert threshold > Durability._DELTA_FLOOR_BYTES
        assert self.RATIO * os.path.getsize(snapshot) < threshold / 2
        for cycle in range(1000):
            if os.path.getsize(wal_path) > threshold:
                break
            assert not durability._full_rewrite_due()
            for i in range(0, 6000, 60):
                name = f"scrap-{i:05d}"
                store.remove_matching(subject=Resource(name))
                store.add(triple(name, "slim:scrapName", f"pass {cycle}"))
            durability.commit()
            assert durability._wal.size == os.path.getsize(wal_path)
        else:
            pytest.fail("the WAL never outgrew the threshold")
        assert durability._full_rewrite_due()

    def test_flips_at_uncompressed_size_after_compaction(self, tmp_path):
        directory = str(tmp_path)
        store, durability = self._populated(directory)
        self._assert_flips_at_uncompressed_basis(store, durability, directory)
        durability.close()

    def test_flips_at_uncompressed_size_after_reopen(self, tmp_path):
        directory = str(tmp_path)
        self._populated(directory)[1].close()
        store = TripleStore()
        reopened = Durability(store, directory, compact_every=10**9,
                              fsync=False)
        assert reopened.recovered.snapshot_bytes == _uncompressed_size(
            os.path.join(directory, SNAPSHOT_FILE))
        self._assert_flips_at_uncompressed_basis(store, reopened, directory)
        reopened.close()


class TestRoutineRewrite:
    """End to end through commits: a run of rename groups grows the WAL
    past the floor, and the routine step every *compact_every* groups
    rewrites the snapshot at the first boundary after the WAL outgrew
    the trigger — so the WAL never holds more than the threshold plus
    one window of groups."""

    COMPACT_EVERY = 8

    def test_rewrite_at_the_next_boundary_past_the_floor(self, tmp_path,
                                                         monkeypatch):
        directory = str(tmp_path)
        wal_path = os.path.join(directory, WAL_FILE)
        trim = TrimManager()
        durability = trim.enable_durability(
            directory, compact_every=self.COMPACT_EVERY, fsync=False)
        for i in range(20):
            trim.create(f"scrap-{i:02d}", "slim:scrapName", "untitled")
        trim.commit()
        checks = []     # (group, WAL bytes weighed, threshold, rewrote)
        step = durability.delta_compact

        def weighed():
            threshold = max(Durability._DELTA_FLOOR_BYTES,
                            Durability._DELTA_RATIO
                            * durability._snapshot_bytes)
            size = durability._wal.size
            rewrote = step()
            checks.append((durability.group, size, threshold, rewrote))
            return rewrote

        monkeypatch.setattr(durability, "delta_compact", weighed)
        sizes = []
        for n in range(1000):
            name = f"scrap-{n % 20:02d}"
            trim.store.remove_matching(subject=Resource(name))
            trim.create(name, "slim:scrapName", f"renamed {n} times")
            trim.commit()
            sizes.append(os.path.getsize(wal_path))
            assert sizes[-1] == durability._wal.size
        trim.close()
        growth = [b - a for a, b in zip(sizes, sizes[1:]) if b > a]
        window = self.COMPACT_EVERY * max(growth)
        # Every routine step ran on a boundary, and rewrote exactly when
        # the WAL it weighed was over the trigger.
        assert [group % self.COMPACT_EVERY for group, *_ in checks] == \
            [0] * len(checks)
        assert all(rewrote == (size > threshold)
                   for _, size, threshold, rewrote in checks)
        rewrites = [check for check in checks if check[3]]
        assert len(rewrites) >= 2
        # The small pad's snapshot keeps the threshold at the floor.
        assert {threshold for *_, threshold, _ in checks} == \
            {Durability._DELTA_FLOOR_BYTES}
        assert max(sizes) <= Durability._DELTA_FLOOR_BYTES + window
        result = recover(directory)
        assert result.snapshot_group == rewrites[-1][0]
        assert len(result.store) == 20


@pytest.fixture
def fsyncs(monkeypatch):
    """Count every ``os.fsync`` call (they still run)."""
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return calls


class TestHousekeepingFsyncs:
    """Opening and closing a directory whose log is empty touches
    nothing on disk; commits are the only routine fsyncs."""

    def test_clean_open_and_close_after_compaction(self, tmp_path, fsyncs):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.create("a", "p", 1)
        trim.commit()
        trim.durability.compact()
        trim.close()
        fsyncs.clear()
        reopened = TrimManager(durable=directory)
        assert reopened.durability.group == 1
        reopened.close()
        assert fsyncs == []
        # The fast-forwarded group counter still numbers new commits
        # above the snapshot's group.
        again = TrimManager(durable=directory)
        again.create("b", "p", 2)
        again.commit()
        assert again.durability.group == 2
        again.close()
        assert len(recover(directory).store) == 2

    def test_open_of_a_log_with_groups_fsyncs_once(self, tmp_path, fsyncs):
        # The groups may have reached only the page cache before a
        # crash; the open makes them durable before replay serves them.
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.create("a", "p", 1)
        trim.commit()
        trim.close()
        fsyncs.clear()
        reopened = TrimManager(durable=directory)
        assert len(fsyncs) == 1
        assert list(reopened.store) == [triple("a", "p", 1)]
        reopened.close()
        assert len(fsyncs) == 1

    def test_open_that_cuts_a_tail_fsyncs(self, tmp_path, fsyncs):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.create("a", "p", 1)
        trim.commit()
        trim.create("b", "p", 2)
        fsyncs.clear()
        trim.close()   # writes the uncommitted record, fsyncs it
        assert len(fsyncs) == 1
        fsyncs.clear()
        reopened = TrimManager(durable=directory)
        assert len(fsyncs) == 1   # the uncommitted tail was cut
        assert list(reopened.store) == [triple("a", "p", 1)]
        reopened.close()
        assert len(fsyncs) == 1

    def test_creating_the_log_fsyncs(self, tmp_path, fsyncs):
        path = str(tmp_path / WAL_FILE)
        WriteAheadLog(path, scan_wal(path)).close()
        assert len(fsyncs) == 1
