"""Online resharding: the versioned shard map and live migration.

The contract under test: routing through a version-1
:class:`~repro.triples.sharded.ShardMap` is *bit-identical* to the
legacy ``crc32 % N`` arithmetic (so pre-map directories reopen onto the
same shards), ``reshard()`` grows the shard count under live readers
and writers with zero lost or duplicated triples (pinned against an
unsharded reference), and a coordinator killed anywhere inside the
migration's 2PC window recovers all-or-nothing — a reopen at the
target count resumes and finishes the drain.
"""

import os
import random
import threading

import pytest

from repro.errors import (BundleError, PersistenceError, ReplayError,
                          TransactionError)
from repro.replay import BUNDLE_VERSION, CaptureTap, replay, validate_bundle
from repro.triples.sharded import (MigrationPlan, ShardMap,
                                   ShardedDurability, ShardedTripleStore,
                                   SimulatedCrash, recover_sharded, shard_of,
                                   split_offline)
from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, Triple


def T(i, subjects=57):
    return Triple(Resource(f"slim:s{i % subjects}"), Resource("slim:p"),
                  Literal(i))


def contents(store):
    return {(t.subject.uri, t.property.uri, t.value.value) for t in store.match()}


def fill(store, n, subjects=57):
    for i in range(n):
        store.add(T(i, subjects))
    return {(f"slim:s{i % subjects}", "slim:p", i) for i in range(n)}


MIGRATION_STAGES = ["reshard-begin", "reshard-grown", "prepare", "decide",
                    "decided", "fence", "finish", "reshard-final",
                    "reshard-installed"]


# ---------------------------------------------------------------------------
# the shard map


class TestShardMap:
    def test_v1_matches_legacy_crc32_routing(self):
        # The load-bearing parity: every directory written before maps
        # existed must route identically under its implicit v1 map.
        rng = random.Random(2001)
        uris = [f"slim:s{rng.randrange(10**9)}" for _ in range(500)]
        uris += ["slim:s0", "", "a", "é元"]
        for n in (1, 2, 3, 4, 7, 8, 16):
            v1 = ShardMap.initial(n)
            assert v1.version == 1
            for uri in uris:
                assert v1.shard_for_uri(uri) == shard_of(uri, n)

    def test_rebalanced_is_level_and_movement_minimal(self):
        for old, new in [(1, 2), (1, 4), (2, 8), (4, 3), (8, 1), (3, 7)]:
            m = ShardMap.initial(old)
            r = m.rebalanced(new)
            assert r.version == m.version + 1
            assert r.shard_count == new
            assert len(r.slots) == len(m.slots)
            counts = [0] * new
            for owner in r.slots:
                counts[owner] += 1
            assert max(counts) - min(counts) <= 1
            # Only as many slots move as the new targets require.
            moved = sum(1 for a, b in zip(m.slots, r.slots) if a != b)
            assert moved == len(m.diff(r))
            base, extra = divmod(len(m.slots), new)
            owned = [0] * max(old, new)
            for a in m.slots:
                owned[a] += 1
            surviving = [0] * new
            for a, b in zip(m.slots, r.slots):
                if a == b:
                    surviving[a] += 1
            for shard in range(min(old, new)):
                # A surviving shard keeps everything its new quota
                # allows — it never gives up a slot just to take
                # another (movement minimality).
                quota = base + (1 if shard < extra else 0)
                assert surviving[shard] == min(owned[shard], quota)

    def test_rebalanced_is_deterministic(self):
        m = ShardMap.initial(2)
        assert m.rebalanced(6) == m.rebalanced(6)
        assert m.rebalanced(6).rebalanced(2).rebalanced(6).slots \
            == m.rebalanced(6).slots

    def test_rebalanced_rejects_out_of_range(self):
        m = ShardMap.initial(2)
        with pytest.raises(ValueError):
            m.rebalanced(0)
        with pytest.raises(ValueError):
            m.rebalanced(len(m.slots) + 1)

    def test_migration_plan_reconstructs_target(self):
        m = ShardMap.initial(2)
        r = m.rebalanced(5)
        plan = MigrationPlan(r.version, 5, m.diff(r))
        assert plan.target_map(m) == r


# ---------------------------------------------------------------------------
# in-memory resharding


class TestInMemoryReshard:
    def test_grow_preserves_contents_and_order(self):
        store = ShardedTripleStore(1)
        plain = TripleStore()
        rng = random.Random(7)
        for i in range(300):
            store.add(T(i)), plain.add(T(i))
            if rng.random() < 0.1:
                victim = T(rng.randrange(i + 1))
                store.discard(victim), plain.discard(victim)
        version = store.reshard(4)
        assert version == 2 and store.shard_count == 4
        assert list(store) == list(plain)
        assert contents(store) == contents(plain)
        assert len(store) == len(plain)

    def test_reshard_under_concurrent_writers(self):
        store = ShardedTripleStore(1)
        expected = fill(store, 1000, subjects=97)
        stop, written, errors = threading.Event(), [], []

        def writer(wid):
            n = 0
            try:
                while not stop.is_set():
                    i = 10**6 * (wid + 1) + n
                    store.add(T(i, subjects=97))
                    written.append(i)
                    n += 1
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(3)]
        for th in threads:
            th.start()
        try:
            store.reshard(8, batch_subjects=16)
        finally:
            stop.set()
            for th in threads:
                th.join()
        assert not errors
        expected |= {(f"slim:s{i % 97}", "slim:p", i) for i in written}
        assert contents(store) == expected
        assert len(store) == len(expected)

    def test_reader_survives_map_version_bump_mid_scatter(self):
        store = ShardedTripleStore(2)
        expected = fill(store, 400)
        it = store.match()
        seen = {next(it) for _ in range(50)}
        store.reshard(6)
        seen.update(it)
        assert {(t.subject.uri, t.property.uri, t.value.value) for t in seen} \
            == expected

    def test_subject_reads_follow_moves_mid_migration(self):
        store = ShardedTripleStore(1)
        fill(store, 200, subjects=11)
        store._grow_shards(4)
        target = store.shard_map.rebalanced(4)
        store._begin_migration(target, store.shard_map.diff(target))
        # Move one batch by hand, then read every subject both ways.
        batch = store._migration_pending(4)
        (frm, to), uris = next(iter(batch.items()))
        with store.shards[frm]._lock, store.shards[to]._lock:
            store._move_subjects_locked(frm, to, uris)
        for s in range(11):
            subject = Resource(f"slim:s{s}")
            hits = list(store.match(subject=subject))
            assert {t.value.value for t in hits} \
                == {i for i in range(200) if i % 11 == s}
            assert store.count(subject=subject) == len(hits)
        # Finish and verify the map swapped in.
        while not store._try_finish_migration():
            batch = store._migration_pending(64)
            for (frm, to), uris in batch.items():
                with store.shards[frm]._lock, store.shards[to]._lock:
                    store._move_subjects_locked(frm, to, uris)
        assert store.map_version == 2 and not store.migration_active

    def test_durable_store_refuses_memory_reshard(self, tmp_path):
        store = ShardedTripleStore(2)
        dur = ShardedDurability(store, str(tmp_path))
        try:
            with pytest.raises(TransactionError):
                store.reshard(4)
        finally:
            dur.close()
            store.close()

    def test_reshard_refused_during_bulk(self):
        store = ShardedTripleStore(2)
        with pytest.raises(TransactionError):
            with store.bulk():
                store.reshard(4)


# ---------------------------------------------------------------------------
# durable resharding


class TestDurableReshard:
    def test_grow_1_to_4_and_reopen(self, tmp_path):
        d = str(tmp_path / "pad")
        store = ShardedTripleStore(1)
        dur = ShardedDurability(store, d)
        expected = fill(store, 500)
        dur.commit()
        job = dur.reshard(4)
        assert job.done and job.subjects_moved > 0
        assert dur.map_version == 2 and store.shard_count == 4
        assert contents(store) == expected
        dur.close(), store.close()
        result = recover_sharded(d)
        assert result.map_version == 2 and not result.migration_open
        assert contents(result.store) == expected
        result.store.close()
        reopened = ShardedTripleStore(4)
        redur = ShardedDurability(reopened, d)
        assert redur.map_version == 2 and not redur.resumed_migration
        assert contents(reopened) == expected
        redur.close(), reopened.close()

    def test_reshard_under_live_writer_matches_reference(self, tmp_path):
        d = str(tmp_path / "pad")
        store = ShardedTripleStore(1)
        dur = ShardedDurability(store, d, commit_every=50)
        fill(store, 1000, subjects=97)
        dur.commit()
        reference = TripleStore()
        for i in range(1000):
            reference.add(T(i, subjects=97))
        stop, lock, errors = threading.Event(), threading.Lock(), []

        def writer(wid):
            rng = random.Random(wid)
            n = 0
            try:
                while not stop.is_set():
                    i = 10**6 * (wid + 1) + n
                    t = T(i, subjects=97)
                    store.add(t)
                    with lock:
                        reference.add(t)
                    n += 1
                    if rng.random() < 0.25:
                        subject = Resource(f"slim:s{i % 97}")
                        assert store.count(subject=subject) > 0
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(4)]
        for th in threads:
            th.start()
        try:
            job = dur.reshard(4, batch_subjects=16)
        finally:
            stop.set()
            for th in threads:
                th.join()
        assert not errors and job.done
        dur.commit()
        assert contents(store) == contents(reference)
        assert len(store) == len(reference)
        dur.close(), store.close()
        result = recover_sharded(d)
        assert contents(result.store) == contents(reference)
        result.store.close()

    def test_background_reshard_job(self, tmp_path):
        store = ShardedTripleStore(1)
        dur = ShardedDurability(store, str(tmp_path / "pad"))
        expected = fill(store, 300)
        dur.commit()
        job = dur.reshard(2, wait=False)
        job.join(timeout=60)
        assert job.done and job.error is None
        assert dur.map_version == 2 and contents(store) == expected
        dur.close(), store.close()

    def test_same_count_is_a_done_noop(self, tmp_path):
        store = ShardedTripleStore(2)
        dur = ShardedDurability(store, str(tmp_path / "pad"))
        job = dur.reshard(2)
        assert job.done and dur.map_version == 1
        dur.close(), store.close()

    def test_shrink_points_at_offline_split(self, tmp_path):
        store = ShardedTripleStore(4)
        dur = ShardedDurability(store, str(tmp_path / "pad"))
        with pytest.raises(PersistenceError, match="shards split"):
            dur.reshard(2)
        dur.close(), store.close()

    def test_concurrent_reshard_refused(self, tmp_path):
        store = ShardedTripleStore(1)
        dur = ShardedDurability(store, str(tmp_path / "pad"))
        fill(store, 300, subjects=41)
        dur.commit()
        # Stall the drain by parking the donor's store lock, then try to
        # start a second migration while the first is mid-flight.
        with store.shards[0]._lock:
            job = dur.reshard(2, wait=False)
            with pytest.raises(TransactionError):
                dur.reshard(4)
        job.join(timeout=60)
        assert job.done
        dur.close(), store.close()

    def test_mismatch_error_names_both_counts_and_remedies(self, tmp_path):
        d = str(tmp_path / "pad")
        store = ShardedTripleStore(4)
        dur = ShardedDurability(store, d)
        dur.close(), store.close()
        wrong = ShardedTripleStore(2)
        with pytest.raises(PersistenceError) as err:
            ShardedDurability(wrong, d)
        message = str(err.value)
        assert "4 shard(s)" in message
        assert "shard_count=2" in message
        assert "reshard" in message and "shards split" in message
        wrong.close()

    def test_map_survives_meta_compaction(self, tmp_path):
        d = str(tmp_path / "pad")
        store = ShardedTripleStore(1)
        dur = ShardedDurability(store, d, compact_every=1)
        expected = fill(store, 200)
        dur.commit()
        dur.reshard(4)
        for i in range(1000, 1040):
            store.add(T(i))
            expected.add((f"slim:s{i % 57}", "slim:p", i))
            dur.commit()
        dur.compact()
        dur.close(), store.close()
        result = recover_sharded(d)
        assert result.map_version == 2
        assert contents(result.store) == expected
        result.store.close()


# ---------------------------------------------------------------------------
# the migration crash matrix


class TestMigrationCrashMatrix:
    @pytest.mark.parametrize("stage", MIGRATION_STAGES)
    def test_crash_recovers_all_or_nothing_then_resumes(self, stage,
                                                        tmp_path):
        d = str(tmp_path / "pad")
        store = ShardedTripleStore(1)
        dur = ShardedDurability(store, d)
        expected = fill(store, 300, subjects=41)
        dur.commit()
        fired = []

        def hook(hook_stage, txn, index=None):
            if hook_stage == stage and not fired:
                fired.append(hook_stage)
                raise SimulatedCrash(hook_stage)

        dur.crash_hook = hook
        with pytest.raises(SimulatedCrash):
            dur.reshard(4)
        dur.abandon()
        store.close()
        # Recovery: every migrated batch is all-or-nothing, nothing is
        # lost or duplicated, whatever the kill point.
        result = recover_sharded(d)
        assert contents(result.store) == expected
        assert len(result.store) == len(expected)
        result.store.close()
        # Reopening at the target count resumes and finishes the drain.
        reopened = ShardedTripleStore(4)
        redur = ShardedDurability(reopened, d)
        assert redur.map_version == 2
        assert not reopened.migration_active
        assert redur.resumed_migration == (stage != "reshard-installed")
        assert contents(reopened) == expected
        redur.close(), reopened.close()

    def test_crashed_migration_reopens_at_target_not_donor_count(
            self, tmp_path):
        d = str(tmp_path / "pad")
        store = ShardedTripleStore(1)
        dur = ShardedDurability(store, d)
        fill(store, 100, subjects=13)
        dur.commit()
        dur.crash_hook = lambda s, t, i=None: (_ for _ in ()).throw(
            SimulatedCrash(s)) if s == "decided" else None
        with pytest.raises(SimulatedCrash):
            dur.reshard(2)
        dur.abandon()
        store.close()
        # The 'G' intent pins the live count at the target: reopening at
        # the old count must fail closed with the migration called out.
        stale = ShardedTripleStore(1)
        with pytest.raises(PersistenceError, match="shard"):
            ShardedDurability(stale, d)
        stale.close()


# ---------------------------------------------------------------------------
# offline split


class TestOfflineSplit:
    def test_shrink_round_trip_preserves_sequences(self, tmp_path):
        d = str(tmp_path / "pad")
        store = ShardedTripleStore(4)
        dur = ShardedDurability(store, d)
        expected = fill(store, 400)
        dur.commit()
        order = list(store)
        dur.close(), store.close()
        shard_map = split_offline(d, 2)
        assert shard_map.shard_count == 2 and shard_map.version == 2
        result = recover_sharded(d)
        assert contents(result.store) == expected
        assert list(result.store) == order
        assert result.store.shard_count == 2
        result.store.close()
        assert not os.path.exists(d + ".split-old")
        assert not os.path.exists(d + ".split-tmp")

    def test_split_to_out_directory(self, tmp_path):
        d, out = str(tmp_path / "pad"), str(tmp_path / "wider")
        store = ShardedTripleStore(2)
        dur = ShardedDurability(store, d)
        expected = fill(store, 200)
        dur.commit(), dur.close(), store.close()
        split_offline(d, 8, out=out)
        result = recover_sharded(out)
        assert contents(result.store) == expected
        assert result.store.shard_count == 8
        result.store.close()
        # The original is untouched.
        original = recover_sharded(d)
        assert original.store.shard_count == 2
        original.store.close()

    def test_split_refuses_open_migration(self, tmp_path):
        d = str(tmp_path / "pad")
        store = ShardedTripleStore(1)
        dur = ShardedDurability(store, d)
        fill(store, 100, subjects=13)
        dur.commit()
        dur.crash_hook = lambda s, t, i=None: (_ for _ in ()).throw(
            SimulatedCrash(s)) if s == "prepare" else None
        with pytest.raises(SimulatedCrash):
            dur.reshard(2)
        dur.abandon()
        store.close()
        with pytest.raises(PersistenceError, match="migration"):
            split_offline(d, 4)


# ---------------------------------------------------------------------------
# passthroughs


class TestPassthroughs:
    def test_trim_reshard_and_map_version(self, tmp_path):
        trim = TrimManager(shards=2)
        assert trim.map_version == 1
        trim.enable_durability(str(tmp_path / "pad"))
        subject = trim.new_resource("scrap")
        trim.create(subject, Resource("slim:p"), Literal("x"))
        trim.commit()
        job = trim.reshard(4)
        assert job.done and trim.map_version == 2 and trim.shards == 4
        assert trim.store.count(subject=subject) == 1
        trim.close()

    def test_memory_trim_reshard(self):
        trim = TrimManager(shards=2)
        subject = trim.new_resource("scrap")
        trim.create(subject, Resource("slim:p"), Literal("x"))
        assert trim.reshard(4) == 2
        assert trim.map_version == 2 and trim.shards == 4

    def test_unsharded_trim_refuses(self):
        trim = TrimManager()
        with pytest.raises(TransactionError):
            trim.reshard(4)


# ---------------------------------------------------------------------------
# replay capture


class TestReplayMapVersion:
    def _bundle(self, map_version):
        return {
            "version": BUNDLE_VERSION,
            "kind": "trim-replay",
            "config": {"shards": 2, "map_version": map_version,
                       "compact_every": 64, "commit_every": None,
                       "fsync": False},
            "seeds": {}, "interleave": [], "ops": [],
            "outcome": None, "meta": {},
        }

    def test_capture_stamps_map_version(self, tmp_path):
        trim = TrimManager(shards=2)
        trim.enable_durability(str(tmp_path / "pad"), fsync=False)
        tap = CaptureTap(trim)
        assert tap.config["map_version"] == 1
        bundle = tap.finish()
        assert bundle["config"]["map_version"] == 1
        trim.close()

    def test_bad_map_version_rejected(self):
        with pytest.raises(BundleError):
            validate_bundle(self._bundle(0))
        assert validate_bundle(self._bundle(1))

    def test_replay_fails_closed_on_rebalanced_map(self, tmp_path):
        with pytest.raises(ReplayError, match="map version"):
            replay(self._bundle(2), str(tmp_path / "replay"))


# ---------------------------------------------------------------------------
# the CLI


class TestShardsCli:
    def _make_pad(self, d):
        store = ShardedTripleStore(2)
        dur = ShardedDurability(store, d)
        expected = fill(store, 120, subjects=13)
        dur.commit(), dur.close(), store.close()
        return expected

    def test_info_reports_map_and_balance(self, tmp_path, capsys):
        from repro.cli import main
        d = str(tmp_path / "pad")
        self._make_pad(d)
        assert main(["shards", "info", d]) == 0
        out = capsys.readouterr().out
        assert "version 1" in out and "2 shard(s)" in out and "skew" in out

    def test_split_then_info(self, tmp_path, capsys):
        from repro.cli import main
        d = str(tmp_path / "pad")
        expected = self._make_pad(d)
        assert main(["shards", "split", d, "--shards", "4"]) == 0
        assert main(["shards", "info", d]) == 0
        out = capsys.readouterr().out
        assert "version 2" in out and "4 shard(s)" in out
        result = recover_sharded(d)
        assert contents(result.store) == expected
        result.store.close()

    def test_info_rejects_plain_directory(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["shards", "info", str(tmp_path)]) == 1
