"""Sharded triple stores: routing, parity, two-phase commit, recovery.

The contract under test: a :class:`ShardedTripleStore` is *observably
identical* to a plain store — same ``select``/``match``/``count``
results, same global insertion order — and a sharded durable directory
always recovers to an all-shards-consistent state: every in-flight
multi-shard transaction is either fully committed or fully rolled back,
no matter where inside the 2PC window the coordinator dies.

Set ``CRASH_POINTS`` to raise the number of randomized crash trials
(the ``make verify`` target does).
"""

import os
import random

import pytest

from repro.errors import PersistenceError, TransactionError
from repro.triples.interned import InternedTripleStore
from repro.triples.sharded import (META_FILE, ShardedDurability,
                                   ShardedTripleStore, SimulatedCrash,
                                   _scan_meta, is_sharded_directory,
                                   recover_sharded, shard_of)
from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Literal, Resource, Triple, triple
from repro.triples.wal import Durability
from repro.util.env import env_int

CRASH_POINTS = env_int("CRASH_POINTS", 40)


def T(i, prop="slim:p", value=None):
    return Triple(Resource(f"slim:s{i}"), Resource(prop),
                  Literal(value if value is not None else i))


# ---------------------------------------------------------------------------
# routing


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        # Pinned values: routing must never change across versions, or
        # existing durable directories would reopen onto wrong shards.
        assert shard_of("slim:s0", 4) == shard_of("slim:s0", 4)
        for n in (1, 2, 4, 7):
            for i in range(50):
                assert 0 <= shard_of(f"slim:s{i}", n) < n

    def test_subject_bound_routes_to_single_shard(self):
        store = ShardedTripleStore(4)
        kind, index = store.route(subject=Resource("slim:s1"))
        assert kind == "single"
        assert index == store.shard_index(Resource("slim:s1"))
        assert store.route(property=Resource("slim:p")) == ("scatter", 4)

    def test_triples_land_on_their_subject_shard(self):
        store = ShardedTripleStore(4)
        for i in range(40):
            store.add(T(i))
        for i in range(40):
            t = T(i)
            owner = store.shard_for(t.subject)
            assert t in owner
            for shard in store.shards:
                if shard is not owner:
                    assert t not in shard

    def test_single_shard_degenerate_case(self):
        store = ShardedTripleStore(1)
        store.add_all(T(i) for i in range(10))
        assert len(store) == 10
        assert len(store.shards[0]) == 10

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ShardedTripleStore(0)


# ---------------------------------------------------------------------------
# randomized parity: sharded vs plain must be observably identical


def _random_ops(rng, n_subjects, n_ops):
    """A reproducible op script exercising adds, duplicates, removals,
    subject sweeps, and bulk sections."""
    ops = []
    live = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.55 or not live:
            t = Triple(Resource(f"slim:s{rng.randrange(n_subjects)}"),
                       Resource(f"slim:p{rng.randrange(5)}"),
                       Literal(rng.randrange(30)))
            ops.append(("add", t))
            live.append(t)
        elif roll < 0.70:
            ops.append(("add", rng.choice(live)))  # duplicate
        elif roll < 0.85:
            t = live.pop(rng.randrange(len(live)))
            ops.append(("discard", t))
        elif roll < 0.93:
            subject = Resource(f"slim:s{rng.randrange(n_subjects)}")
            ops.append(("remove_about", subject))
            live = [t for t in live if t.subject != subject]
        else:
            batch = [Triple(Resource(f"slim:s{rng.randrange(n_subjects)}"),
                            Resource(f"slim:p{rng.randrange(5)}"),
                            Literal(100 + rng.randrange(100)))
                     for _ in range(rng.randrange(1, 12))]
            ops.append(("bulk", batch))
            live.extend(batch)
    return ops


def _apply(store, ops):
    for op, arg in ops:
        if op == "add":
            store.add(arg)
        elif op == "discard":
            store.discard(arg)
        elif op == "remove_about":
            store.remove_matching(subject=arg)
        else:
            with store.bulk():
                store.add_all(arg)


def _assert_parity(sharded, plain, n_subjects):
    assert len(sharded) == len(plain)
    assert list(sharded) == list(plain)
    assert sharded.select() == plain.select()
    assert sharded.count() == plain.count()
    assert sharded.subjects() == plain.subjects()
    assert sharded.properties() == plain.properties()
    for i in range(n_subjects):
        s = Resource(f"slim:s{i}")
        assert sharded.select(subject=s) == plain.select(subject=s)
        assert sharded.count(subject=s) == plain.count(subject=s)
    for j in range(5):
        p = Resource(f"slim:p{j}")
        assert sharded.select(property=p) == plain.select(property=p)
        assert sharded.count(property=p) == plain.count(property=p)
        # match() carries no ordering contract on either store
        assert set(sharded.match(property=p, value=Literal(3))) \
            == set(plain.match(property=p, value=Literal(3)))
    for t in plain.select():
        assert t in sharded


class TestShardParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("factory", [TripleStore, InternedTripleStore],
                             ids=["plain", "interned"])
    def test_randomized_ops_match_plain_store(self, shards, factory):
        for seed in range(4):
            rng = random.Random(1000 * shards + seed)
            ops = _random_ops(rng, n_subjects=12, n_ops=120)
            sharded = ShardedTripleStore(shards, store_factory=factory)
            plain = TripleStore()
            _apply(sharded, ops)
            _apply(plain, ops)
            _assert_parity(sharded, plain, n_subjects=12)
            sharded.close()

    def test_scatter_select_merges_in_insertion_order(self):
        store = ShardedTripleStore(4)
        ts = [T(i) for i in range(60)]
        for t in ts:
            store.add(t)
        assert store.select() == ts
        store.discard(ts[10])
        readded = ts[10]
        store.add(readded)
        expected = ts[:10] + ts[11:] + [readded]
        assert store.select() == expected
        assert list(store) == expected

    def test_planner_runs_unchanged_over_sharded_store(self):
        from repro.triples.query import Pattern, Query, Var
        sharded = ShardedTripleStore(4)
        plain = TripleStore()
        for store in (sharded, plain):
            for i in range(20):
                store.add(triple(f"slim:s{i}", "slim:type", "bundle"))
                store.add(triple(f"slim:s{i}", "slim:size", Literal(i % 4)))
        q = Query([Pattern(Var("x"), Resource("slim:type"),
                           Literal("bundle")),
                   Pattern(Var("x"), Resource("slim:size"), Literal(2))])
        # same solutions; evaluation order may differ with scatter reads
        sharded_rows = q.run_all(sharded)
        plain_rows = q.run_all(plain)
        assert len(sharded_rows) == len(plain_rows)
        assert all(row in plain_rows for row in sharded_rows)
        # per-shard count() sums feed the same global selectivity ranking
        assert [s.pattern for s in q.explain(sharded)] \
            == [s.pattern for s in q.explain(plain)]


class TestShardedStoreApi:
    def test_listeners_see_every_shard_with_global_sequences(self):
        store = ShardedTripleStore(4)
        events = []
        unsubscribe = store.add_listener(
            lambda action, t, seq: events.append((action, t, seq)))
        ts = [T(i) for i in range(8)]
        for t in ts:
            store.add(t)
        store.discard(ts[3])
        assert [e[0] for e in events] == ["add"] * 8 + ["remove"]
        sequences = [seq for _, _, seq in events[:8]]
        assert sequences == sorted(sequences)  # global, monotonic
        unsubscribe()
        store.add(T(99))
        assert len(events) == 9

    def test_bulk_aborts_all_shards_on_error(self):
        store = ShardedTripleStore(4)
        store.add_all(T(i) for i in range(4))
        with pytest.raises(RuntimeError):
            with store.bulk() as b:
                b.add_all(T(i) for i in range(10, 30))
                raise RuntimeError("boom")
        assert len(store) == 4

    def test_nested_bulk_rejected(self):
        store = ShardedTripleStore(2)
        with store.bulk():
            with pytest.raises(TransactionError):
                store._begin_bulk()

    def test_atomic_listener_fires_at_outermost_exit(self):
        store = ShardedTripleStore(2)
        fired = []
        store.add_atomic_listener(lambda: fired.append(len(store)))
        store.begin_atomic()
        store.begin_atomic()
        store.add(T(1))
        store.end_atomic()
        assert fired == []
        store.end_atomic()
        assert fired == [1]

    def test_value_helpers_route_by_subject(self):
        store = ShardedTripleStore(4)
        store.add(triple("slim:s1", "slim:name", "alpha"))
        store.add(triple("slim:s1", "slim:tag", "a"))
        store.add(triple("slim:s1", "slim:tag", "b"))
        assert store.literal_of(Resource("slim:s1"),
                                Resource("slim:name")) == "alpha"
        assert [v.value for v in
                store.values_of(Resource("slim:s1"),
                                Resource("slim:tag"))] == ["a", "b"]
        with pytest.raises(LookupError):
            store.one(subject=Resource("slim:s1"),
                      property=Resource("slim:tag"))

    def test_clear_and_generation(self):
        store = ShardedTripleStore(4)
        store.add_all(T(i) for i in range(10))
        generation = store.generation
        store.clear()
        assert len(store) == 0
        assert store.generation > generation

    def test_large_add_all_uses_pool_and_keeps_order(self):
        store = ShardedTripleStore(4)
        ts = [T(i, prop=f"slim:p{i % 3}") for i in range(1500)]
        assert store.add_all(ts) == 1500
        assert store.select() == ts
        store.close()
        store.close()  # idempotent


# ---------------------------------------------------------------------------
# sharded durability: round trips, commit_for, layout guards


class TestShardedDurability:
    def test_multi_shard_commit_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "pool")
        store = ShardedTripleStore(4)
        durability = ShardedDurability(store, directory)
        ts = [T(i) for i in range(40)]
        store.add_all(ts)
        assert durability.commit() is True
        assert durability.commit() is False  # nothing pending
        durability.close()
        result = recover_sharded(directory)
        assert result.store.select() == ts
        assert result.repaired == 0
        assert is_sharded_directory(directory)

    def test_commit_for_touches_only_that_shard(self, tmp_path):
        store = ShardedTripleStore(4)
        durability = ShardedDurability(store, str(tmp_path / "pool"))
        a, b = T(0), T(1)
        assert store.shard_index(a.subject) != store.shard_index(b.subject)
        store.add(a)
        store.add(b)
        assert durability.commit_for(a.subject) is True
        owner_a = store.shard_index(a.subject)
        pending = [d.pending_changes for d in durability.shard_durabilities]
        assert pending[owner_a] == 0
        assert sum(pending) == 1  # b's shard still dirty
        durability.close()
        result = recover_sharded(str(tmp_path / "pool"))
        assert result.store.select() == [a]  # b was never committed

    def test_uncommitted_changes_roll_back_on_reopen(self, tmp_path):
        directory = str(tmp_path / "pool")
        store = ShardedTripleStore(4)
        durability = ShardedDurability(store, directory)
        committed = [T(i) for i in range(10)]
        store.add_all(committed)
        durability.commit()
        store.add_all(T(i) for i in range(10, 20))  # never committed
        durability.close()
        result = recover_sharded(directory)
        assert result.store.select() == committed

    def test_reshard_rejected(self, tmp_path):
        directory = str(tmp_path / "pool")
        ShardedDurability(ShardedTripleStore(4), directory).close()
        with pytest.raises(PersistenceError):
            ShardedDurability(ShardedTripleStore(2), directory)

    def test_snapshot_compaction_per_shard(self, tmp_path):
        directory = str(tmp_path / "pool")
        store = ShardedTripleStore(2)
        durability = ShardedDurability(store, directory, compact_every=2)
        for round_number in range(5):
            store.add_all(T(100 * round_number + i) for i in range(8))
            durability.commit()
        expected = store.select()
        durability.compact()
        durability.close()
        result = recover_sharded(directory)
        assert result.store.select() == expected
        for shard_result in result.shards:
            assert shard_result.groups_replayed == 0  # all folded away

    def test_commit_every_auto_groups(self, tmp_path):
        store = ShardedTripleStore(4)
        durability = ShardedDurability(store, str(tmp_path / "pool"),
                                       commit_every=10)
        for i in range(25):
            store.add(T(i))
        assert durability.pending_changes < 10
        assert durability.group >= 2
        durability.close()

    def test_trim_manager_passthrough(self, tmp_path):
        directory = str(tmp_path / "pool")
        trim = TrimManager(shards=4, durable=directory)
        assert trim.shards == 4
        assert isinstance(trim.durability, ShardedDurability)
        statement = trim.create("slim:e1", "slim:name", "n")
        trim.commit(subject=statement.subject)
        trim.create("slim:e2", "slim:name", "m")
        trim.commit()
        trim.close()
        trim.close()  # idempotent (satellite: double-close regression)
        reopened = TrimManager(shards=4, durable=directory)
        assert len(reopened.store) == 2
        # recovered ids advanced the generator like load() does
        assert reopened.ids.next("slim:e") not in ("slim:e1", "slim:e2")
        reopened.close()

    def test_trim_commit_accepts_string_subject(self, tmp_path):
        # commit(subject=...) takes plain strings just like create() does
        directory = str(tmp_path / "pool")
        trim = TrimManager(shards=4, durable=directory)
        trim.create("slim:e1", "slim:name", "n")
        assert trim.commit(subject="slim:e1")
        trim.close()
        reopened = TrimManager(shards=4, durable=directory)
        assert len(reopened.store) == 1
        reopened.close()


# ---------------------------------------------------------------------------
# the 2PC crash matrix


def _crash_at(stage_name, index=None):
    def hook(stage, txn, i):
        if stage == stage_name and (index is None or i == index):
            raise SimulatedCrash(f"{stage}[{i}] txn {txn}")
    return hook


def _open_pool(directory, shards=4):
    store = ShardedTripleStore(shards)
    return store, ShardedDurability(store, directory)


class TestTwoPhaseCrashMatrix:
    """Kill the coordinator at every protocol step; recovery must land on
    full commit or full rollback of the in-flight transaction — on every
    shard alike."""

    BASE = [T(i) for i in range(12)]          # spread over all 4 shards
    INFLIGHT = [T(i) for i in range(12, 24)]  # the doomed transaction

    def _seed(self, directory):
        store, durability = _open_pool(directory)
        store.add_all(self.BASE)
        durability.commit()
        return store, durability

    def _crash_commit(self, directory, hook):
        store, durability = self._seed(directory)
        durability.crash_hook = hook
        store.add_all(self.INFLIGHT)
        with pytest.raises(SimulatedCrash):
            durability.commit()
        durability.abandon()

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_crash_mid_prepare_rolls_back(self, tmp_path, index):
        directory = str(tmp_path / "pool")
        self._crash_commit(directory, _crash_at("prepare", index))
        result = recover_sharded(directory)
        assert result.store.select() == self.BASE
        assert result.repaired == 0

    def test_crash_before_decision_rolls_back(self, tmp_path):
        directory = str(tmp_path / "pool")
        self._crash_commit(directory, _crash_at("decide"))
        result = recover_sharded(directory)
        assert result.store.select() == self.BASE

    def test_crash_after_decision_commits_fully(self, tmp_path):
        directory = str(tmp_path / "pool")
        self._crash_commit(directory, _crash_at("decided"))
        result = recover_sharded(directory)
        assert result.store.select() == self.BASE + self.INFLIGHT
        assert result.repaired == 4  # every participant re-fenced

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_crash_mid_fence_commits_fully(self, tmp_path, index):
        directory = str(tmp_path / "pool")
        self._crash_commit(directory, _crash_at("fence", index))
        result = recover_sharded(directory)
        assert result.store.select() == self.BASE + self.INFLIGHT
        # shards fenced before the crash need no repair; the rest do
        assert result.repaired == 3 - index

    def test_crash_after_finish_commits_without_repair(self, tmp_path):
        directory = str(tmp_path / "pool")
        self._crash_commit(directory, _crash_at("finish"))
        result = recover_sharded(directory)
        assert result.store.select() == self.BASE + self.INFLIGHT
        assert result.repaired == 0

    def test_torn_meta_decision_rolls_back(self, tmp_path):
        # Truncate the meta-WAL mid-decision-record: the commit point
        # never became durable, so recovery must discard the prepared
        # groups even though every shard staged them successfully.
        directory = str(tmp_path / "pool")
        self._crash_commit(directory, _crash_at("decided"))
        meta_path = os.path.join(directory, META_FILE)
        with open(meta_path, "rb") as handle:
            blob = handle.read()
        assert _scan_meta(meta_path).decisions  # the decision did land...
        # ...so shave tail bytes until it is gone: a torn decision write
        cut = len(blob)
        while _scan_meta(meta_path).decisions:
            cut -= 1
            with open(meta_path, "wb") as handle:
                handle.write(blob[:cut])
        result = recover_sharded(directory)
        assert result.store.select() == self.BASE
        assert result.repaired == 0

    def test_repair_is_idempotent_across_repeated_crashes(self, tmp_path):
        directory = str(tmp_path / "pool")
        self._crash_commit(directory, _crash_at("decided"))
        first = recover_sharded(directory)
        assert first.repaired == 4
        second = recover_sharded(directory)  # crash again before reopening
        assert second.repaired == 0  # already fenced — nothing to redo
        assert second.store.select() == first.store.select()

    def test_reopen_via_durability_repairs_and_continues(self, tmp_path):
        directory = str(tmp_path / "pool")
        self._crash_commit(directory, _crash_at("decided"))
        store, durability = _open_pool(directory)
        assert durability.repaired == 4
        assert store.select() == self.BASE + self.INFLIGHT
        more = [T(i) for i in range(24, 30)]
        store.add_all(more)
        durability.commit()
        durability.close()
        assert recover_sharded(directory).store.select() \
            == self.BASE + self.INFLIGHT + more

    def test_randomized_crash_sweep_always_consistent(self, tmp_path):
        """CRASH_POINTS randomized trials: random batches, a crash at a
        random protocol step, then recovery — which must always equal
        the committed prefix plus (iff the decision record landed) the
        in-flight transaction.  The sharded store must also stay
        identical to a plain store replaying the surviving history."""
        rng = random.Random(2001)
        stages = (["prepare"] * 4 + ["decide", "decided"]
                  + ["fence"] * 4 + ["finish"])
        trials = max(10, CRASH_POINTS)
        for trial in range(trials):
            directory = str(tmp_path / f"sweep-{trial}")
            store, durability = _open_pool(directory)
            committed = []
            for _ in range(rng.randrange(1, 4)):
                batch = [Triple(Resource(f"slim:s{rng.randrange(16)}"),
                                Resource(f"slim:p{rng.randrange(3)}"),
                                Literal(rng.randrange(1000)))
                         for _ in range(rng.randrange(2, 10))]
                added = [t for t in batch if store.add(t)]
                durability.commit()
                committed.extend(added)
            stage = rng.choice(stages)
            index = rng.randrange(4) if stage in ("prepare", "fence") else None
            inflight = [Triple(Resource(f"slim:s{rng.randrange(16)}"),
                               Resource("slim:px"),
                               Literal(10_000 + trial * 100 + j))
                        for j in range(8)]
            durability.crash_hook = _crash_at(stage, index)
            survivors = [t for t in inflight if store.add(t)]
            try:
                durability.commit()
                crashed = False  # single-participant group: no 2PC window
            except SimulatedCrash:
                crashed = True
            durability.abandon()
            result = recover_sharded(directory)
            # The commit point is the decision record: a crash before it
            # ('prepare'/'decide' stages) must roll back, a crash after
            # it ('decided'/'fence'/'finish') must commit fully.
            if crashed and stage in ("prepare", "decide"):
                expected = committed
            else:
                expected = committed + survivors
            assert result.store.select() == expected, \
                f"trial {trial}: stage {stage}[{index}]"
            # cross-check against a plain store replaying the survivors
            plain = TripleStore()
            for t in expected:
                plain.add(t)
            _assert_parity(result.store, plain, n_subjects=16)
            result.store.close()


# ---------------------------------------------------------------------------
# close() idempotence (satellite: safe __del__-time teardown)


class TestCloseIdempotence:
    def test_plain_durability_double_close(self, tmp_path):
        store = TripleStore()
        durability = Durability(store, str(tmp_path / "d"))
        store.add(T(1))
        durability.commit()
        durability.close()
        durability.close()  # second close is a no-op, not an error

    def test_durability_del_after_close(self, tmp_path):
        durability = Durability(TripleStore(), str(tmp_path / "d"))
        durability.close()
        durability.__del__()  # finalizer after explicit close: silent

    def test_sharded_durability_double_close(self, tmp_path):
        store = ShardedTripleStore(2)
        durability = ShardedDurability(store, str(tmp_path / "d"))
        store.add(T(1))
        durability.commit()
        durability.close()
        durability.close()
        durability.__del__()

    def test_trim_manager_double_close_and_del(self, tmp_path):
        trim = TrimManager(durable=str(tmp_path / "d"))
        trim.create("slim:e1", "slim:name", "x")
        trim.commit()
        trim.close()
        trim.close()
        trim.__del__()
        sharded = TrimManager(shards=2, durable=str(tmp_path / "d2"))
        sharded.close()
        sharded.close()
        sharded.__del__()

    def test_closed_handle_rejects_commit(self, tmp_path):
        store = ShardedTripleStore(2)
        durability = ShardedDurability(store, str(tmp_path / "d"))
        durability.close()
        with pytest.raises(PersistenceError):
            durability.commit()
        with pytest.raises(PersistenceError):
            durability.commit_for(Resource("slim:s1"))
