"""Write-ahead logging and crash-safe durability for TRIM stores.

The paper's TRIM must "persist (through XML files)" the superimposed
layer, but a full-file dump on every mutation is neither affordable at
scale nor crash-safe.  This module adds the classic durability pair:

- :class:`WriteAheadLog` — an append-only binary log.  It subscribes to a
  store's change listeners and appends every add/remove as a checksummed,
  length-prefixed record carrying the triple, its insertion-sequence
  number, and the action.  :meth:`WriteAheadLog.commit` closes a *group*
  (the WAL's unit of atomicity, aligned with user-level operations) by
  appending a commit record and fsyncing.
- :class:`Durability` — the orchestrator wired through
  :class:`~repro.triples.trim.TrimManager`'s ``durable=`` mode: recovery
  on attach, logging while attached, and snapshot compaction (an atomic
  checksummed snapshot via :func:`repro.triples.persistence.save_snapshot`,
  then a log reset) once the log outgrows the snapshot it amends.
- :func:`recover` — load the latest valid snapshot and replay the WAL
  tail.  Replay stops at the first corrupt or torn record (everything
  before it is kept, everything after discarded) and only *complete*
  groups are applied, so a crash at any byte offset yields exactly the
  state of the last committed group — the property the crash-injection
  suite (``tests/test_triples_wal.py``) asserts for randomized kill
  points.

Record framing::

    file   := MAGIC record*
    record := u32 payload-length | u32 crc32(payload) | payload
    payload:= 'A'|'R' u64 sequence  str subject  str property  value
            | 'C' u64 group-number
    value  := 'r' str uri | 's'|'i'|'f'|'b' str encoded-literal
    str    := u32 length | utf-8 bytes

Group numbers are monotonic and survive compaction: the snapshot header
records the group it covers, and replay skips any logged group at or
below it — so a crash *between* snapshot rename and log reset cannot
double-apply changes.

The WAL is the only log between snapshots.  Every *compact_every*
committed groups the WAL's size is weighed against the snapshot's
uncompressed size; once it has outgrown half of it (or a fixed floor
when the snapshot is small or absent), the store is rewritten into a
fresh snapshot and the WAL reset.  A commit in between does no
compaction work, and recovery reads one snapshot and one log.

Concurrency (DESIGN.md §10): the log's buffer/offset state is guarded by
an internal lock, so concurrent appenders and committers serialize
correctly.  Every commit writes and fsyncs on the caller's thread;
coalescing many writers into one fsync is the job of the caller that
owns the write path (the service's per-tenant writer thread,
:mod:`repro.service.registry`).  Lock ordering across the stack is
store lock -> Durability meta lock -> WAL lock, never reversed.
"""

from __future__ import annotations

import os
import re
import struct
import threading
import time
import zlib
from typing import IO, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import PersistenceError
from repro.triples import persistence
from repro.triples.namespaces import NamespaceRegistry
from repro.triples.store import TripleStore
from repro.triples.transactions import Change
from repro.triples.triple import Literal, Resource, Triple
from repro.util.heap import collector_paused

MAGIC = b"SLIMWAL1"

SNAPSHOT_FILE = "snapshot.slim"
WAL_FILE = "wal.log"

_FRAME = struct.Struct(">II")   # payload length, crc32
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")

_LITERAL_TAGS = {"string": b"s", "integer": b"i", "float": b"f",
                 "boolean": b"b"}
_TAG_TYPES = {tag: name for name, tag in _LITERAL_TAGS.items()}


# -- record encoding ---------------------------------------------------------

def _pack_str(text: str) -> bytes:
    # surrogatepass: persistence v2 round-trips lone surrogates in literals,
    # so the log must be able to carry them too (plain UTF-8 would raise).
    data = text.encode("utf-8", "surrogatepass")
    return _U32.pack(len(data)) + data


def _unpack_str(payload: bytes, offset: int) -> Tuple[str, int]:
    (length,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    end = offset + length
    if end > len(payload):
        raise PersistenceError("WAL string field overruns record")
    return payload[offset:end].decode("utf-8", "surrogatepass"), end


def encode_change(change: Change) -> bytes:
    """Serialize one add/remove as a WAL record payload."""
    kind = b"A" if change.action == "add" else b"R"
    triple = change.triple
    parts = [kind, _U64.pack(change.sequence),
             _pack_str(triple.subject.uri), _pack_str(triple.property.uri)]
    if isinstance(triple.value, Resource):
        parts.append(b"r" + _pack_str(triple.value.uri))
    else:
        tag = _LITERAL_TAGS[triple.value.type_name]
        parts.append(tag + _pack_str(
            persistence._encode_literal(triple.value.value)))
    return b"".join(parts)


def encode_commit(group: int) -> bytes:
    """Serialize a group-boundary (commit) record payload."""
    return b"C" + _U64.pack(group)


class WalRecord(NamedTuple):
    """One decoded WAL record: a change or a group boundary."""

    kind: str                      #: ``'change'`` or ``'commit'``
    change: Optional[Change]       #: set for change records
    group: Optional[int]           #: set for commit records


def decode_record(payload: bytes) -> WalRecord:
    """Decode a record payload; raises :class:`PersistenceError` if garbled."""
    try:
        return _decode_record(payload)
    except PersistenceError:
        raise
    except (struct.error, UnicodeDecodeError, ValueError, KeyError) as exc:
        # Short fields, bad UTF-8, unparseable literals: all just "garbled".
        raise PersistenceError(f"garbled WAL record: {exc}") from exc


def _decode_record(payload: bytes) -> WalRecord:
    if not payload:
        raise PersistenceError("empty WAL record")
    kind = payload[:1]
    if kind == b"C":
        if len(payload) != 1 + _U64.size:
            raise PersistenceError("bad WAL commit record length")
        (group,) = _U64.unpack_from(payload, 1)
        return WalRecord("commit", None, group)
    if kind not in (b"A", b"R"):
        raise PersistenceError(f"unknown WAL record kind: {kind!r}")
    (sequence,) = _U64.unpack_from(payload, 1)
    offset = 1 + _U64.size
    subject, offset = _unpack_str(payload, offset)
    prop, offset = _unpack_str(payload, offset)
    if offset >= len(payload):
        raise PersistenceError("WAL record missing value field")
    tag = payload[offset:offset + 1]
    text, offset = _unpack_str(payload, offset + 1)
    if offset != len(payload):
        raise PersistenceError("trailing bytes in WAL record")
    if tag == b"r":
        value = Resource(text)
    elif tag in _TAG_TYPES:
        value = Literal(persistence._decode_literal(_TAG_TYPES[tag], text))
    else:
        raise PersistenceError(f"unknown WAL value tag: {tag!r}")
    action = "add" if kind == b"A" else "remove"
    return WalRecord("change", Change(action, Triple(
        Resource(subject), Resource(prop), value), sequence), None)


# -- scanning ----------------------------------------------------------------

class WalScan(NamedTuple):
    """Result of reading a WAL file up to its last valid record."""

    groups: List[Tuple[int, List[Change]]]  #: complete (committed) groups
    pending: List[Change]       #: changes after the last commit (discarded)
    valid_end: int              #: byte offset of the last valid record's end
    total_bytes: int            #: file size as found on disk
    last_group: int             #: highest committed group number (0 if none)
    committed_end: int          #: byte offset of the last commit record's end


def scan_wal(path: str) -> WalScan:
    """Read a WAL file, truncating (logically) at the first corrupt record.

    Torn frames, short payloads, checksum mismatches, and garbled record
    bodies all end the scan at the last fully valid record instead of
    raising — recovery keeps every complete group before the damage.
    A missing file or a damaged magic header scans as empty.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return WalScan([], [], 0, 0, 0, 0)
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    total = len(data)
    if data[:len(MAGIC)] != MAGIC:
        return WalScan([], [], 0, total, 0, 0)
    groups: List[Tuple[int, List[Change]]] = []
    pending: List[Change] = []
    offset = len(MAGIC)
    valid_end = offset
    committed_end = offset
    last_group = 0
    while offset + _FRAME.size <= total:
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = decode_record(payload)
        except PersistenceError:
            break
        if record.kind == "commit":
            groups.append((record.group, pending))
            pending = []
            last_group = record.group
            committed_end = end
        else:
            pending.append(record.change)
        offset = end
        valid_end = end
    return WalScan(groups, pending, valid_end, total, last_group,
                   committed_end)


# -- the log -----------------------------------------------------------------

def _frame(payload: bytes) -> bytes:
    """Wrap a record payload in its length+crc32 frame."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """Append-only checksummed change log with group boundaries.

    Opens (or creates) the file at *path* from *scan*, a
    :func:`scan_wal` of it (recovery's, on a durable open), truncating it
    back to the end of its last commit record.  That discards both the corrupt tail a
    crash may have torn *and* any valid-but-uncommitted change records a
    crashed session left behind — recovery ignores those, so keeping
    them would let the next commit's boundary record fence a dead
    session's changes into a committed group.  ``fsync=False`` trades
    durability for speed in benchmarks and tests; real durability keeps
    the default.

    Writes use *group commit*: :meth:`append` only frames the record
    into an in-memory buffer, and :meth:`commit` writes the whole group
    (records + boundary) with a single ``write``/``flush``/``fsync``.
    Per-group cost is therefore one syscall round trip regardless of
    group size, which is what makes bulk ingest run at hardware speed.
    A commit that fails mid-flush rewinds the file to the end of the
    last durable group and keeps the buffer intact so the caller can
    retry; if even the rewind fails the log closes itself rather than
    risk a later boundary record fencing half-written frames into a
    committed group.

    All buffer/offset state is guarded by an internal re-entrant lock:
    appenders and committers on different threads serialize, and an
    append can never land between a commit's buffer snapshot and its
    buffer clear.
    """

    def __init__(self, path: str, scan: WalScan, fsync: bool = True) -> None:
        self.path = path
        self._fsync = fsync
        self._lock = threading.RLock()
        self._sync_count = 0
        self._group = scan.last_group
        self._dirty = 0
        self._buffer: List[bytes] = []
        self._file: Optional[IO[bytes]] = None
        try:
            # Only a log that is exactly its magic header is left
            # untouched.  (Re)creating the file or cutting a tail off it
            # needs an fsync, and so does a log that holds committed
            # groups: a process that died between a commit's write and
            # its fsync left that group in the page cache alone, and
            # replay is about to serve it.
            if scan.committed_end == 0:
                self._file = open(path, "wb")
                self._file.write(MAGIC)
                self._good_end = len(MAGIC)
            else:
                self._file = open(path, "r+b")
                self._file.seek(scan.committed_end)
                self._good_end = scan.committed_end
                if scan.total_bytes != scan.committed_end:
                    self._file.truncate(scan.committed_end)
            if scan.committed_end != len(MAGIC) \
                    or scan.total_bytes != len(MAGIC):
                self._flush()
        except OSError as exc:
            raise PersistenceError(f"cannot open WAL {path}: {exc}") from exc

    @property
    def group(self) -> int:
        """The highest group number committed to this log."""
        return self._group

    @property
    def dirty(self) -> int:
        """How many changes have been appended since the last commit."""
        return self._dirty

    @property
    def size(self) -> int:
        """Bytes of the file through its last committed group (drives
        the full-rewrite trigger; buffered appends are not counted)."""
        return self._good_end

    @property
    def sync_count(self) -> int:
        """How many group-commit fsyncs this log has issued (0 when
        ``fsync=False``; housekeeping syncs on open/reset are not counted).

        The service's ``admin.stats`` reports it per tenant, beside the
        writes its writer thread coalesced into each commit.
        """
        return self._sync_count

    def append(self, change: Change) -> None:
        """Buffer one add/remove record (written by :meth:`commit`)."""
        with self._lock:
            self._require_open()
            self._buffer.append(_frame(encode_change(change)))
            self._dirty += 1

    def commit(self) -> int:
        """Close the current group: one write + flush + fsync for all of it.

        Returns the group number of the last committed group.  Changes
        appended after the previous commit only become recoverable now —
        a crash before the boundary record hits disk discards the whole
        partial group.  With an *empty* buffer this is a no-op (no
        boundary record, no group bump, no fsync): there is nothing to
        make durable, so callers may commit unconditionally without
        burning a syscall per no-op.

        On an I/O error nothing moves: the buffer, ``dirty`` count, and
        group counter keep their pre-commit values, the file is rewound
        to the last durable group, and the same commit can be retried.
        """
        with self._lock:
            file = self._require_open()
            if not self._buffer:
                return self._group
            group = self._group + 1
            data = b"".join(self._buffer) + _frame(encode_commit(group))
            try:
                file.write(data)
                file.flush()
                if self._fsync:
                    os.fsync(file.fileno())
                    self._sync_count += 1
            except OSError as exc:
                self._rewind()
                raise PersistenceError(
                    f"cannot commit WAL group to {self.path}: {exc}") from exc
            self._good_end += len(data)
            self._group = group
            self._buffer.clear()
            self._dirty = 0
            return group

    def reset(self, group: Optional[int] = None) -> None:
        """Truncate the log back to its header (after a snapshot).

        Buffered uncommitted records are discarded along with the file
        body.  The group counter is *not* reset — group numbers stay
        monotonic across compactions so replay can skip groups a
        snapshot already covers.  *group* (when given) fast-forwards the
        counter, used when recovery found a snapshot newer than the log.
        A log whose body is already empty is not touched on disk.
        """
        with self._lock:
            self._truncate_body()
            if group is not None:
                self._group = max(self._group, group)
            self._buffer.clear()
            self._dirty = 0

    def close(self) -> None:
        """Write any buffered records, flush, and close (idempotent).

        Uncommitted records are written *without* a boundary record:
        recovery discards them, but :func:`scan_wal` still reports them
        as ``pending`` — the same on-disk shape per-append writes left
        behind before group commit.  Only a close that wrote them
        fsyncs; every commit already fsynced its own group.
        """
        with self._lock:
            if self._file is None:
                return
            try:
                data = b"".join(self._buffer)
                self._buffer.clear()
                if data:
                    try:
                        self._file.write(data)
                    except OSError as exc:
                        raise PersistenceError(
                            f"cannot append to WAL {self.path}: {exc}") from exc
                    self._flush()
            finally:
                if self._file is not None:
                    self._file.close()
                    self._file = None

    # -- internals -----------------------------------------------------------

    def _require_open(self) -> IO[bytes]:
        if self._file is None:
            raise PersistenceError(f"WAL {self.path} is closed")
        return self._file

    def _truncate_body(self) -> None:
        """Cut the file back to its magic header, unless it already is.

        The file never extends past ``_good_end`` while open (commits
        advance it, failed commits rewind to it), so a log at its header
        needs no truncate and no fsync.
        """
        file = self._require_open()
        if self._good_end == len(MAGIC):
            return
        try:
            file.seek(len(MAGIC))
            file.truncate(len(MAGIC))
        except OSError as exc:
            raise PersistenceError(
                f"cannot reset WAL {self.path}: {exc}") from exc
        self._flush()
        self._good_end = len(MAGIC)

    def _rewind(self) -> None:
        """Drop a partially written group after a failed commit.

        Seeks/truncates back to the end of the last durable group so the
        buffered records can be committed again.  If the rewind itself
        fails the log *fails closed* (file handle dropped): a log whose
        tail state is unknown must not accept further writes.
        """
        file = self._file
        if file is None:
            return
        try:
            file.seek(self._good_end)
            file.truncate(self._good_end)
        except OSError:
            self._file = None
            try:
                file.close()
            except OSError:
                pass

    def _flush(self) -> None:
        file = self._require_open()
        try:
            file.flush()
            if self._fsync:
                os.fsync(file.fileno())
        except OSError as exc:
            raise PersistenceError(
                f"cannot flush WAL {self.path}: {exc}") from exc


# -- recovery ----------------------------------------------------------------

#: Files and subdirectories only the retired subject-hash sharded layout
#: wrote: a coordinator log beside ``shard-000``, ``shard-001``, ...
_SHARDED_META_FILE = "meta.wal"
_SHARDED_DIR_RE = re.compile(r"^shard-\d{3}$")
#: The delta log earlier releases kept between snapshot and WAL.  One
#: that is only its 8-byte magic holds nothing (every directory such a
#: release compacted or evicted), so it is left in place and ignored.
_DELTA_LOG_FILE = "deltas.slim"
_DELTA_LOG_MAGIC_BYTES = 8


def _refuse_retired_layout(directory: str) -> None:
    """Raise :class:`PersistenceError` if *directory* holds a layout this
    module cannot read — the retired sharded layout, or a delta log with
    changes in it; touches nothing on disk.

    Opening either as a plain directory would recover without what it
    holds and then log new writes beside files that are never read again.
    """
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return
    except OSError as exc:
        raise PersistenceError(f"cannot list {directory}: {exc}") from exc
    if _SHARDED_META_FILE in names or any(
            _SHARDED_DIR_RE.match(name)
            and os.path.isdir(os.path.join(directory, name))
            for name in names):
        raise PersistenceError(
            f"{directory} holds a sharded store ({_SHARDED_META_FILE} or "
            f"shard-NNN/ subdirectories), which is no longer supported. "
            f"To migrate it, run `repro shards split {directory} --shards 1` "
            f"with the previous release, then move the contents of "
            f"{os.path.join(directory, 'shard-000')} up into {directory} "
            f"and delete {os.path.join(directory, _SHARDED_META_FILE)}")
    if _DELTA_LOG_FILE not in names:
        return
    path = os.path.join(directory, _DELTA_LOG_FILE)
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    if size > _DELTA_LOG_MAGIC_BYTES:
        raise PersistenceError(
            f"{path}: a delta log an earlier release wrote, holding "
            f"changes this release cannot read (it keeps no delta log). "
            f"To migrate, open {directory} once with the previous release "
            f"and compact it (TrimManager(durable=...).durability."
            f"compact(), then close()), then open it with this release")


class RecoveryResult(NamedTuple):
    """What :func:`recover` reconstructed and how."""

    store: TripleStore          #: the recovered store
    snapshot_group: int         #: group covered by the snapshot (0 if none)
    snapshot_triples: int       #: triples loaded from the snapshot
    groups_replayed: int        #: complete WAL groups applied on top
    changes_replayed: int       #: individual changes applied from the WAL
    last_group: int             #: highest group number in the final state
    discarded_bytes: int        #: corrupt/torn WAL tail bytes ignored
    namespaces: NamespaceRegistry  #: registry with the snapshot's declarations
    #: per-stage wall-clock timings (``snapshot_s``/``wal_s``); ``wal_s``
    #: includes the bulk-load index build at scope exit.
    stage_seconds: Optional[Dict[str, float]] = None
    #: the snapshot's uncompressed size in bytes (0 if none), as
    #: :func:`repro.triples.persistence.save_snapshot` returns it
    snapshot_bytes: int = 0


def recover(directory: str,
            store: Optional[TripleStore] = None,
            namespaces: Optional[NamespaceRegistry] = None) -> RecoveryResult:
    """Rebuild the durable state under *directory*.

    Loads the latest valid snapshot, then replays every complete WAL
    group above the group the snapshot covers, stopping at the first
    corrupt record.  Adds replay through
    :meth:`~repro.triples.store.TripleStore.restore` with their logged
    sequence numbers, so the recovered store matches the crashed store's
    iteration and ``select()`` order exactly, not just its set of triples.

    *store* (default: a fresh :class:`TripleStore`) must be empty; the
    recovered triples are loaded into it.  The snapshot's namespace
    declarations are registered into *namespaces* when given, else into a
    fresh registry; either way the populated registry is returned in the
    result, so nothing recovered is dropped.  A directory in the retired
    sharded layout, a delta log holding changes, or a snapshot an earlier
    release wrote raises :class:`PersistenceError` and leaves every file
    as it was.

    Runs with the cyclic collector paused
    (:func:`repro.util.heap.collector_paused`): the load allocates the
    whole store, and collections during it would only walk what it
    just built.
    """
    return _recover(directory, store, namespaces)[0]


@collector_paused()
def _recover(directory: str, store: Optional[TripleStore],
             namespaces: Optional[NamespaceRegistry]
             ) -> Tuple[RecoveryResult, WalScan]:
    """:func:`recover`, plus the WAL scan it took, for the log handle a
    durable open creates next."""
    _refuse_retired_layout(directory)
    store = store if store is not None else TripleStore()
    if len(store):
        raise PersistenceError("recovery target store must be empty")
    registry = namespaces if namespaces is not None else NamespaceRegistry()
    snapshot_path = os.path.join(directory, SNAPSHOT_FILE)
    snapshot_group = 0
    snapshot_triples = 0
    snapshot_bytes = 0
    t_start = time.perf_counter()
    if os.path.exists(snapshot_path):
        # Loaded straight into the target store rather than through an
        # intermediate store plus a restore loop.
        snapshot = persistence.load_snapshot(snapshot_path, registry,
                                             store=store)
        snapshot_group = snapshot.group
        snapshot_triples = len(store)
        snapshot_bytes = snapshot.raw_bytes
    t_snapshot = time.perf_counter()
    scan = scan_wal(os.path.join(directory, WAL_FILE))
    groups_replayed = 0
    changes_replayed = 0
    with store.bulk():
        # Replayed adds ride the bulk path: index maintenance happens in
        # one pass at exit instead of per change.  Removals flush first,
        # so mixed groups replay exactly as they would per-op.
        for group, changes in scan.groups:
            if group <= snapshot_group:
                continue  # already in the snapshot (crash between its
                #           rename and the WAL reset)
            for change in changes:
                if change.action == "add":
                    store.restore(change.triple, change.sequence)
                else:
                    store.discard(change.triple)
            groups_replayed += 1
            changes_replayed += len(changes)
    t_end = time.perf_counter()
    stage_seconds = {"snapshot_s": t_snapshot - t_start,
                     "wal_s": t_end - t_snapshot}
    result = RecoveryResult(store, snapshot_group, snapshot_triples,
                            groups_replayed, changes_replayed,
                            max(snapshot_group, scan.last_group),
                            scan.total_bytes - scan.valid_end, registry,
                            stage_seconds, snapshot_bytes)
    return result, scan


# -- the durability orchestrator ---------------------------------------------

def _noop() -> None:
    """The unsubscribe of a listener that is not (or no longer) attached."""


class Durability:
    """Crash-safe persistence for one store: recovery, WAL, compaction.

    Attaching to a *directory* that already holds durable state recovers
    it into *store* (which must then be empty) before subscribing to the
    store's change listeners.  Attaching a *non-empty* store to a fresh
    directory writes a baseline snapshot immediately, so pre-existing
    triples are never invisible to recovery.

    Call :meth:`commit` at user-level operation boundaries.  Every
    *compact_every* committed groups the WAL's size is weighed against
    the snapshot's uncompressed size (or a fixed floor when the snapshot
    is small or absent); once the WAL has outgrown it, the store is
    rewritten into a fresh atomic snapshot and the WAL reset.  All
    writes go through the checksummed formats in
    :mod:`repro.triples.persistence` and this module, so a crash at any
    point leaves a recoverable directory.

    Groups close only on an explicit :meth:`commit`, which writes and
    fsyncs on the caller's thread, so a commit that returns is durable.
    Every change logged since the previous commit joins the group — a
    ``Batch`` or bulk load committed after it exits is one group, and a
    crash before that commit recovers none of it.
    """

    def __init__(self, store: TripleStore, directory: str,
                 namespaces: Optional[NamespaceRegistry] = None,
                 compact_every: int = 64, fsync: bool = True) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.directory = directory
        self.namespaces = namespaces
        self.compact_every = compact_every
        self._store = store
        # Guards the commit/compaction metadata (_groups_since_check)
        # and serializes flush-vs-compact decisions.  Lock order:
        # store lock -> this meta lock -> WAL lock, never reversed.
        self._meta_lock = threading.Lock()
        self._commits = 0
        _refuse_retired_layout(directory)
        os.makedirs(directory, exist_ok=True)
        self._snapshot_path = os.path.join(directory, SNAPSHOT_FILE)
        wal_path = os.path.join(directory, WAL_FILE)
        self.recovered: Optional[RecoveryResult] = None
        if os.path.exists(self._snapshot_path) or os.path.exists(wal_path):
            # The log handle reuses recovery's scan: the WAL is read
            # once per open.
            self.recovered, wal_scan = _recover(directory, store, namespaces)
        else:
            wal_scan = scan_wal(wal_path)
        self._wal = WriteAheadLog(wal_path, wal_scan, fsync=fsync)
        #: Uncompressed size of the snapshot on disk: the basis of the
        #: full-rewrite trigger (see :meth:`_full_rewrite_due`).
        self._snapshot_bytes = 0
        self._groups_since_check = 0
        if self.recovered is not None:
            self._snapshot_bytes = self.recovered.snapshot_bytes
            self._groups_since_check = self.recovered.groups_replayed
            if self.recovered.snapshot_group >= self._wal.group:
                # Every logged group is covered: either a compaction
                # emptied the log (every clean open after one), or a crash
                # fell between the snapshot rename and the log reset.
                # Finish any interrupted reset and fast-forward the
                # counter, so fresh commits get numbers replay will not
                # skip; an already-empty log costs no I/O.
                self._wal.reset(group=self.recovered.last_group)
        self._closed = False
        self._unsubscribe = store.add_listener(self._on_change)
        try:
            if self.recovered is None and len(store):
                self.compact()
        except BaseException:
            # Construction failed after the listener attached: detach
            # it so later store mutations don't feed a half-built,
            # closed-over handle, and release the log file.
            self._detach()
            self._wal.close()
            raise

    @property
    def group(self) -> int:
        """The highest committed group number."""
        return self._wal.group

    @property
    def pending_changes(self) -> int:
        """Changes logged since the last :meth:`commit` (not yet durable)."""
        return self._wal.dirty

    @property
    def groups_since_check(self) -> int:
        """Committed groups since the full-rewrite trigger was last
        weighed (by a rewrite, or by a routine :meth:`delta_compact`
        that found none due)."""
        return self._groups_since_check

    @property
    def commits_requested(self) -> int:
        """How many :meth:`commit` calls reached the WAL (found changes
        to make durable)."""
        return self._commits

    @property
    def fsync_count(self) -> int:
        """Group-commit fsyncs issued by the underlying WAL."""
        return self._wal.sync_count

    def commit(self) -> bool:
        """Close the current group; ``False`` when nothing changed.

        Makes every change since the previous commit durable as one
        atomic group (one WAL write + fsync on this thread); runs
        :meth:`delta_compact` after ``compact_every`` groups.
        """
        if self._closed:
            raise PersistenceError("durability handle is closed")
        changed = self._flush_group()
        if changed:
            with self._meta_lock:
                self._commits += 1
                due = self._groups_since_check >= self.compact_every
            if due:
                self.delta_compact()
        return changed

    def compact(self) -> None:
        """Full rewrite: fold everything into a fresh atomic snapshot,
        then reset the WAL.

        Ordering is crash-safe at every step by the monotone-group
        argument: the snapshot (recording the covered group number) is
        fsynced and renamed into place *before* the WAL is truncated.
        A crash in between leaves WAL groups that the snapshot already
        covers; recovery skips them by group number.

        Runs under the store lock so the snapshot writer never iterates
        a store mid-mutation, then the meta lock — consistent with the
        global lock order.
        """
        if self._closed:
            raise PersistenceError("durability handle is closed")
        with self._store.lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        with self._meta_lock:
            self._snapshot_bytes = persistence.save_snapshot(
                self._store, self._snapshot_path, self.namespaces,
                group=self._wal.group)
            self._wal.reset()
            self._groups_since_check = 0

    def delta_compact(self) -> bool:
        """The routine compaction step: a full rewrite if the WAL has
        outgrown the trigger (:meth:`_full_rewrite_due`); returns
        whether it rewrote.

        Never *blocks* on the store lock.  A commit must not stall
        behind another thread's bulk ingest or ``Batch``, which holds
        the store lock for its whole duration, so when the store is busy
        the rewrite is deferred to the next commit.  The name is the
        retired delta log's; it stays until the perfbench span
        ``wal.delta_compact`` that wraps this method is re-pointed.
        """
        if self._closed:
            raise PersistenceError("durability handle is closed")
        with self._meta_lock:
            if not self._full_rewrite_due():
                self._groups_since_check = 0
                return False
        lock = self._store.lock
        if not lock.acquire(blocking=False):
            return False
        try:
            self._compact_locked()
        finally:
            lock.release()
        return True

    def close(self) -> None:
        """Detach from the store and close the log (idempotent).

        Uncommitted changes remain in the WAL file but are not fsynced
        and, lacking a boundary record, will be discarded by recovery —
        commit first if they should survive.
        """
        if self._closed:
            return
        self._closed = True
        self._detach()
        self._wal.close()

    def __del__(self) -> None:
        try:
            self.close()
        except BaseException:
            pass

    def abandon(self) -> None:
        """Make this handle inert, as if its process just died.

        The crash-simulation primitive the replay harness and the crash
        matrices share: unlike :meth:`close`, nothing is flushed — the
        WAL's in-memory buffer is dropped and the file handle released
        exactly where the last durable write left it, so the directory
        looks like a hard kill and must go through :func:`recover`.
        Idempotent.
        """
        self._closed = True
        self._detach()
        wal = self._wal
        file, wal._file = wal._file, None
        if file is not None:
            try:
                file.close()
            except OSError:
                pass

    # -- internals -----------------------------------------------------------

    def _detach(self) -> None:
        """Unsubscribe from the store and drop the unsubscribe closure.

        The closure holds this handle's bound listener, so keeping it
        would leave a handle -> closure -> handle cycle: a closed handle
        and the store it wraps would wait for the cyclic collector
        instead of dying with their last reference.
        """
        unsubscribe, self._unsubscribe = self._unsubscribe, _noop
        unsubscribe()

    def _flush_group(self) -> bool:
        """One WAL group commit (write + fsync); ``True`` if anything
        was dirty.  Takes the meta lock so a commit on one thread and a
        :meth:`compact` on another never interleave their dirty-check /
        commit / counter-bump steps.
        """
        with self._meta_lock:
            if self._wal.dirty == 0:
                return False
            self._wal.commit()
            self._groups_since_check += 1
            return True

    #: Below this WAL size a full rewrite is never ratio-triggered —
    #: small stores would otherwise rewrite constantly (any log dwarfs a
    #: tiny snapshot).
    _DELTA_FLOOR_BYTES = 64 * 1024
    #: Above the floor, a full rewrite is due once the WAL outgrows this
    #: fraction of the snapshot's uncompressed size.
    _DELTA_RATIO = 0.5

    def _full_rewrite_due(self) -> bool:
        """Whether the WAL has outgrown the snapshot it amends.

        The snapshot counts at its *uncompressed* size: the WAL is
        stored raw, and measured against the ~3x smaller compressed
        file the trigger would fire ~3x as often, rewriting the whole
        store for the same amount of change.
        """
        threshold = max(self._DELTA_FLOOR_BYTES,
                        self._DELTA_RATIO * self._snapshot_bytes)
        return self._wal.size > threshold

    def _on_change(self, action: str, triple: Triple, sequence: int) -> None:
        self._wal.append(Change(action, triple, sequence))
