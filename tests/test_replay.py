"""Deterministic replay: bundle schema, capture, byte-identical re-runs.

The contract under test: a crash captured once (a WAL kill point from
``tests/test_triples_wal.py``) becomes a bundle that two *independent*
replays re-execute to the same recovered store — same digest as each
other and as the original run's recorded outcome.  The schema half:
malformed, wrong-version, oversized-payload, and sharded-store bundles
are rejected before anything executes.
"""

import json

import pytest

from repro.errors import BundleError, ReplayDivergenceError, ReplayError
from repro.replay import (BUNDLE_VERSION, MAX_TEXT, CaptureTap, load_bundle,
                          loads_bundle, make_bundle, replay, replay_check,
                          save_bundle, state_digest, validate_bundle)
from repro.replay.bundle import (MAX_INTERLEAVE, REDACTED, decode_change,
                                 decode_node, encode_change, encode_node,
                                 redact)
from repro.replay.scenarios import capture_wal_kill
from repro.triples.triple import Literal, Resource, Triple
from repro.triples.trim import TrimManager


def _minimal(**overrides):
    """The smallest valid bundle document, with optional field overrides."""
    bundle = {
        "version": BUNDLE_VERSION,
        "kind": "trim-replay",
        "config": {"compact_every": 64, "fsync": False},
        "seeds": {},
        "interleave": [],
        "ops": [],
        "outcome": None,
        "meta": {},
    }
    bundle.update(overrides)
    return bundle


# ---------------------------------------------------------------------------
# node / op codec


class TestNodeCodec:
    def test_round_trip_preserves_literal_types(self):
        # JSON alone cannot tell these apart; the tagged encoding must.
        for value in (Literal(3), Literal(3.0), Literal(True),
                      Literal("3"), Resource("slim:s1")):
            assert decode_node(encode_node(value)) == value
        assert decode_node(encode_node(Literal(3))) != Literal(3.0)
        assert decode_node(encode_node(Literal(True))) != Literal(1)

    def test_change_round_trip(self):
        statement = Triple(Resource("slim:s1"), Resource("slim:p"),
                           Literal(42))
        op = encode_change("add", statement, 17)
        assert decode_change(op) == ("add", statement, 17)

    @pytest.mark.parametrize("payload", [
        None, [], ["x", "uri"], ["r"], ["r", 3], ["l", "integer"],
        ["l", "complex", 1], ["l", "integer", "3"], ["l", "string", 3],
    ])
    def test_malformed_nodes_rejected(self, payload):
        with pytest.raises(BundleError):
            decode_node(payload)


# ---------------------------------------------------------------------------
# schema validation


class TestBundleSchema:
    def test_minimal_bundle_validates(self):
        assert validate_bundle(_minimal()) is not None

    def test_non_object_rejected(self):
        with pytest.raises(BundleError, match="JSON object"):
            validate_bundle(["not", "a", "bundle"])

    def test_wrong_version_rejected(self):
        with pytest.raises(BundleError, match="version"):
            validate_bundle(_minimal(version=BUNDLE_VERSION + 1))

    def test_wrong_kind_rejected(self):
        with pytest.raises(BundleError, match="kind"):
            validate_bundle(_minimal(kind="trim-checkpoint"))

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(BundleError, match="unknown op kind"):
            validate_bundle(_minimal(ops=[{"op": "merge"}]))

    def test_oversized_payload_rejected(self):
        huge = Triple(Resource("slim:" + "x" * MAX_TEXT),
                      Resource("slim:p"), Literal(1))
        bundle = _minimal(ops=[encode_change("add", huge, 0)])
        with pytest.raises(BundleError, match="payload bound"):
            validate_bundle(bundle)
        long_str = Triple(Resource("slim:s"), Resource("slim:p"),
                          Literal("v" * (MAX_TEXT + 1)))
        bundle = _minimal(ops=[encode_change("add", long_str, 0)])
        with pytest.raises(BundleError, match="payload bound"):
            validate_bundle(bundle)

    def test_too_many_interleave_hints_rejected(self):
        bundle = _minimal(interleave=["hint"] * (MAX_INTERLEAVE + 1))
        with pytest.raises(BundleError, match="interleave"):
            validate_bundle(bundle)

    def test_crash_op_rejected_as_sharded(self):
        """A 'crash' op killed a sharded store's two-phase commit."""
        op = {"op": "crash", "stage": "decided", "index": None}
        with pytest.raises(BundleError, match="no longer replayable"):
            validate_bundle(_minimal(ops=[op]))

    def test_kill_requires_single_store(self):
        op = {"op": "kill", "offset": 12}
        sharded = _minimal(ops=[op])
        sharded["config"]["shards"] = 4
        with pytest.raises(BundleError, match="no longer replayable"):
            validate_bundle(sharded)
        assert validate_bundle(_minimal(ops=[op]))
        single = _minimal(ops=[op])
        single["config"]["shards"] = 1   # as older captures recorded it
        assert validate_bundle(single)

    def test_commit_every_absent_or_null_accepted(self):
        """Older captures recorded ``commit_every: null``; they still load."""
        assert "commit_every" not in _minimal()["config"]
        assert validate_bundle(_minimal())
        older = _minimal()
        older["config"]["commit_every"] = None
        assert validate_bundle(older)

    @pytest.mark.parametrize("value", [1, 50, 0, "10"])
    def test_non_null_commit_every_rejected(self, value):
        """Auto-commit groups cannot be reproduced, so refuse loudly."""
        bundle = _minimal()
        bundle["config"]["commit_every"] = value
        with pytest.raises(BundleError, match="commit_every"):
            validate_bundle(bundle)

    def test_capture_config_omits_commit_every(self, tmp_path):
        bundle = capture_wal_kill(str(tmp_path / "capture"), seed=5)
        assert "commit_every" not in bundle["config"]
        assert validate_bundle(bundle)

    def test_terminal_op_must_be_last(self):
        ops = [{"op": "kill", "offset": 12}, {"op": "commit"}]
        with pytest.raises(BundleError, match="final op"):
            validate_bundle(_minimal(ops=ops))

    def test_bad_outcome_digest_rejected(self):
        with pytest.raises(BundleError, match="sha256"):
            validate_bundle(_minimal(outcome={"digest": "abc", "triples": 1}))

    def test_loads_rejects_non_json(self):
        with pytest.raises(BundleError, match="not valid JSON"):
            loads_bundle("{not json")

    def test_save_load_round_trip(self, tmp_path):
        bundle = _minimal(seeds={"workload": 7})
        path = str(tmp_path / "bundle.json")
        save_bundle(bundle, path)
        assert load_bundle(path) == bundle
        # canonical serialization: sorted keys, trailing newline
        text = (tmp_path / "bundle.json").read_text()
        assert text == json.dumps(bundle, indent=2, sort_keys=True) + "\n"

    def test_meta_is_redacted_on_assembly(self):
        bundle = make_bundle(
            {}, [],
            meta={"host": "ci-7", "api_token": "hunter2",
                  "nested": {"password": "x", "depth": [{"auth_key": "y"}]}})
        assert bundle["meta"]["host"] == "ci-7"
        assert bundle["meta"]["api_token"] == REDACTED
        assert bundle["meta"]["nested"]["password"] == REDACTED
        assert bundle["meta"]["nested"]["depth"][0]["auth_key"] == REDACTED
        assert redact({"token": "t"}) == {"token": REDACTED}


# ---------------------------------------------------------------------------
# capture + replay: the acceptance-criteria scenarios


class TestCaptureReplay:
    def test_wal_kill_bundle_replays_identically_twice(self, tmp_path):
        bundle = capture_wal_kill(str(tmp_path / "capture"), seed=2001)
        results = replay_check(bundle, str(tmp_path / "replays"), runs=2)
        assert results[0].digest == results[1].digest
        assert results[0].digest == bundle["outcome"]["digest"]
        assert results[0].killed_at == bundle["ops"][-1]["offset"]

    def test_capture_is_seed_deterministic(self, tmp_path):
        """Same seed, two captures: identical op streams and outcomes."""
        first = capture_wal_kill(str(tmp_path / "a"), seed=31)
        second = capture_wal_kill(str(tmp_path / "b"), seed=31)
        assert first["ops"] == second["ops"]
        assert first["outcome"] == second["outcome"]

    def test_tampered_outcome_diverges(self, tmp_path):
        bundle = capture_wal_kill(str(tmp_path / "capture"), seed=5)
        bundle["outcome"]["digest"] = "0" * 64
        with pytest.raises(ReplayDivergenceError, match="diverged"):
            replay(bundle, str(tmp_path / "replay"))

    def test_replay_refuses_nonempty_directory(self, tmp_path):
        bundle = capture_wal_kill(str(tmp_path / "capture"), seed=5)
        target = tmp_path / "dirty"
        target.mkdir()
        (target / "leftover").write_text("x")
        with pytest.raises(ReplayError, match="not empty"):
            replay(bundle, str(target))

    def test_capture_requires_durability(self):
        with pytest.raises(ReplayError, match="durable"):
            CaptureTap(TrimManager())

    def test_tap_detach_restores_commit(self, tmp_path):
        trim = TrimManager(durable=str(tmp_path / "store"))
        tap = CaptureTap(trim)
        assert "commit" in trim.__dict__
        trim.create("slim:s1", "slim:p", 1)
        trim.commit()
        tap.detach()
        assert "commit" not in trim.__dict__
        trim.create("slim:s2", "slim:p", 2)   # not recorded after detach
        trim.commit()
        trim.close()
        kinds = [op["op"] for op in tap.ops]
        assert kinds == ["add", "commit"]

    def test_digest_covers_sequence_not_just_membership(self, tmp_path):
        """Two stores with equal contents but different insertion order
        must digest differently — byte-identical means ordering too."""
        a, b = TrimManager(), TrimManager()
        a.create("slim:s1", "slim:p", 1)
        a.create("slim:s2", "slim:p", 2)
        b.create("slim:s2", "slim:p", 2)
        b.create("slim:s1", "slim:p", 1)
        assert set(a.store.select()) == set(b.store.select())
        assert state_digest(a.store) != state_digest(b.store)
