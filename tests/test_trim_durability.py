"""Durable mode end to end: TrimManager, SLIMPad, and the CLI.

The WAL/recovery machinery itself is exercised (including crash
injection) in ``test_triples_wal.py``; these tests pin the integration
surface — the ``durable=`` façade, id-generator observation after
recovery, the SLIMPad ``open_durable`` flow, the ``recover`` /
``demo --durable`` CLI commands, and the refusal of the retired sharded
directory layout.
"""

import os

import pytest

from repro import DocumentLibrary, SlimPadApplication, standard_mark_manager
from repro.base.spreadsheet import Workbook
from repro.cli import main
from repro.errors import PersistenceError, SlimPadError
from repro.triples import persistence
from repro.triples.namespaces import NamespaceRegistry
from repro.triples.store import TripleStore
from repro.triples.trim import TrimManager
from repro.triples.triple import Resource, triple
from repro.triples.wal import SNAPSHOT_FILE, WAL_FILE, Durability, recover
from repro.util.coordinates import Coordinate


class TestDurableTrim:
    def test_enable_durability_is_idempotent(self, tmp_path):
        trim = TrimManager()
        first = trim.enable_durability(str(tmp_path))
        assert trim.enable_durability(str(tmp_path)) is first
        assert trim.durability is first
        trim.close()
        assert trim.durability is None

    def test_recovered_ids_advance_the_generator(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        scrap = trim.new_resource("scrap")
        trim.create(scrap, "slim:scrapName", "first")
        trim.commit()
        trim.close()
        again = TrimManager(durable=directory)
        fresh = again.new_resource("scrap")
        assert fresh != scrap
        assert fresh.uri > scrap.uri
        again.close()

    def test_namespaces_survive_compaction_round_trip(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.namespaces.register("pad", "http://example.org/pad#")
        trim.create("a", "pad:title", "T")
        trim.commit()
        trim.durability.compact()
        trim.close()
        again = TrimManager(durable=directory)
        assert again.namespaces.expand("pad:title") == \
            "http://example.org/pad#title"
        again.close()

    def test_save_still_works_alongside_durability(self, tmp_path):
        directory = str(tmp_path / "durable")
        trim = TrimManager(durable=directory)
        trim.create("a", "p", 1)
        trim.commit()
        xml_path = str(tmp_path / "export.xml")
        trim.save(xml_path)
        trim.close()
        plain = TrimManager()
        plain.load(xml_path)
        assert list(plain.store) == [triple("a", "p", 1)]

    def test_recovery_stats_surface(self, tmp_path):
        assert TrimManager().recovery_stats() == {}
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        for i in range(3):
            trim.create(f"r{i}", "p", i)
            trim.commit()
        trim.close()
        again = TrimManager(durable=directory)
        stats = again.recovery_stats()
        assert stats["groups_replayed"] == 3
        assert stats["changes_replayed"] == 3
        assert stats["snapshot_group"] == 0
        assert set(stats["stage_seconds"]) == {"snapshot_s", "wal_s"}
        again.durability.compact()
        again.close()
        compacted = TrimManager(durable=directory)
        assert compacted.recovery_stats()["groups_replayed"] == 0
        assert compacted.recovery_stats()["snapshot_group"] == 3
        compacted.close()

    def test_batch_rollback_is_logged_coherently(self, tmp_path):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.create("keep", "p", 1)
        with pytest.raises(RuntimeError):
            with trim.batch():
                trim.create("doomed", "p", 2)
                raise RuntimeError("boom")
        trim.commit()
        trim.close()
        assert list(recover(directory).store) == [triple("keep", "p", 1)]


class TestCloseIdempotence:
    def test_plain_durability_double_close(self, tmp_path):
        store = TripleStore()
        durability = Durability(store, str(tmp_path / "d"))
        store.add(triple("a", "p", 1))
        durability.commit()
        durability.close()
        durability.close()  # second close is a no-op, not an error

    def test_durability_del_after_close(self, tmp_path):
        durability = Durability(TripleStore(), str(tmp_path / "d"))
        durability.close()
        durability.__del__()  # finalizer after explicit close: silent

    def test_trim_manager_double_close_and_del(self, tmp_path):
        trim = TrimManager(durable=str(tmp_path / "d"))
        trim.create("slim:e1", "slim:name", "x")
        trim.commit()
        trim.close()
        trim.close()
        trim.__del__()

    def test_closed_handle_rejects_commit(self, tmp_path):
        durability = Durability(TripleStore(), str(tmp_path / "d"))
        durability.close()
        with pytest.raises(PersistenceError):
            durability.commit()


def _listing(root):
    """Every path under *root* with its size, for before/after checks."""
    found = {}
    for base, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(base, name)
            found[os.path.relpath(path, root)] = \
                None if name in dirs else os.path.getsize(path)
    return found


class TestRetiredShardLayoutRefused:
    """A directory in the retired sharded layout (a ``meta.wal``
    coordinator log beside ``shard-NNN/`` subdirectories) must be refused,
    not opened as an empty plain store that writes beside the shards."""

    @pytest.fixture
    def sharded_root(self, tmp_path):
        root = tmp_path / "pad"
        root.mkdir()
        (root / "meta.wal").write_bytes(b"")
        (root / "shard-000").mkdir()
        return str(root)

    def test_trim_manager_and_cli_refuse(self, sharded_root, capsys):
        before = _listing(sharded_root)
        with pytest.raises(PersistenceError, match="shards split"):
            TrimManager(durable=sharded_root)
        assert main(["recover", sharded_root]) == 1
        assert "shard-000" in capsys.readouterr().err
        assert _listing(sharded_root) == before

    @pytest.mark.parametrize("leftover", ["meta.wal", "shard-003"])
    def test_either_marker_alone_is_refused(self, tmp_path, leftover):
        root = tmp_path / "pad"
        root.mkdir()
        if leftover == "meta.wal":
            (root / leftover).write_bytes(b"")
        else:
            (root / leftover).mkdir()
        before = _listing(str(root))
        with pytest.raises(PersistenceError, match="sharded"):
            Durability(TripleStore(), str(root))
        with pytest.raises(PersistenceError, match="sharded"):
            recover(str(root))
        assert _listing(str(root)) == before


def _build_pad(durable=None):
    library = DocumentLibrary()
    meds = library.add(Workbook("meds.xls"))
    sheet = meds.add_sheet("Current")
    sheet.set_row(1, ["Drug", "Dose"])
    sheet.set_row(2, ["Lasix", "40mg"])
    pad = SlimPadApplication(standard_mark_manager(library))
    if durable:
        pad.enable_durability(durable)
    return pad, library


class TestDurableSlimPad:
    def test_pad_survives_restart(self, tmp_path):
        directory = str(tmp_path)
        pad, library = _build_pad(durable=directory)
        pad.new_pad("Rounds")
        pad.create_bundle("Electrolytes", Coordinate(5, 5))
        pad.create_note_scrap("check K+", Coordinate(10, 10))
        pad.commit()
        del pad
        reopened, _ = _build_pad()
        reopened.enable_durability(directory)
        # enable_durability + recovery happened; wire up the pad view.
        reopened.open_durable(directory)   # idempotent durability attach
        assert reopened.pad.padName == "Rounds"
        assert reopened.find_bundle("Electrolytes") is not None
        assert reopened.find_scrap("check K+") is not None

    def test_open_durable_on_empty_directory_raises(self, tmp_path):
        pad, _ = _build_pad()
        with pytest.raises(SlimPadError):
            pad.open_durable(str(tmp_path))

    def test_uncommitted_edits_roll_back_to_last_commit(self, tmp_path):
        directory = str(tmp_path)
        pad, _ = _build_pad(durable=directory)
        pad.new_pad("Rounds")
        pad.commit()
        pad.create_note_scrap("never committed", Coordinate(0, 0))
        del pad   # crash: no commit, no close
        survivor, _ = _build_pad()
        survivor.open_durable(directory)
        assert survivor.find_scrap("never committed") is None
        assert survivor.pad.padName == "Rounds"


class TestCli:
    def test_demo_durable_then_recover(self, tmp_path, capsys):
        directory = str(tmp_path / "state")
        assert main(["demo", "--durable", directory]) == 0
        out = capsys.readouterr().out
        assert "durable state in" in out
        assert os.path.exists(os.path.join(directory, WAL_FILE))
        exported = str(tmp_path / "recovered.xml")
        assert main(["recover", directory, "--out", exported]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out and "WAL tail" in out
        assert os.path.exists(exported)
        trim = TrimManager()
        trim.load(exported)
        assert trim.store.count(
            property=Resource("slim:BundleScrap.SlimPad.padName")) == 1

    def test_recover_out_preserves_namespaces(self, tmp_path, capsys):
        directory = str(tmp_path / "state")
        trim = TrimManager(durable=directory)
        trim.namespaces.register("pad", "http://example.org/pad#")
        trim.create("a", "pad:title", "T")
        trim.commit()
        trim.durability.compact()   # declarations live in the snapshot
        trim.close()
        exported = str(tmp_path / "out.xml")
        assert main(["recover", directory, "--out", exported]) == 0
        capsys.readouterr()
        fresh = NamespaceRegistry()
        persistence.load(exported, fresh)
        assert fresh.expand("pad:x") == "http://example.org/pad#x"

    def test_recover_after_compaction_reports_snapshot(self, tmp_path, capsys):
        directory = str(tmp_path)
        trim = TrimManager(durable=directory)
        trim.create("a", "p", 1)
        trim.commit()
        trim.durability.compact()
        trim.close()
        assert os.path.exists(os.path.join(directory, SNAPSHOT_FILE))
        assert main(["recover", directory]) == 0
        out = capsys.readouterr().out
        assert "snapshot: 1 triple(s)" in out

    def test_plain_demo_unaffected(self, capsys):
        assert main(["demo"]) == 0
        assert "durable" not in capsys.readouterr().out
