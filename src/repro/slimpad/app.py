"""The SLIMPad application controller (Section 3, Fig. 4).

SLIMPad lets a user build structured digital bundles: select an element
in a base application, create a mark, drop it on the pad as a scrap, name
and arrange the scraps freely, nest bundles, and double-click a scrap to
de-reference its mark — *"the original information source … is displayed
with the appropriate medication highlighted"*.

The controller composes the generic components exactly as Fig. 5 draws
them: SLIMPad → (SLIM Store via the DMI) + (Mark Manager → base apps).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SlimPadError
from repro.dmi.runtime import EntityObject
from repro.marks.behaviors import display_in_place, preview
from repro.marks.manager import MarkManager
from repro.marks.mark import Mark
from repro.marks.modules import Resolution
from repro.slimpad.dmi import SlimPadDMI
from repro.util.coordinates import Coordinate
from repro.util.events import EventBus


class SlimPadApplication:
    """One running SLIMPad: a window onto one current pad."""

    def __init__(self, mark_manager: MarkManager,
                 dmi: Optional[SlimPadDMI] = None,
                 bus: Optional[EventBus] = None) -> None:
        self.marks = mark_manager
        self.dmi = dmi or SlimPadDMI()
        self.bus = bus
        self._pad: Optional[EntityObject] = None
        self.visible = True
        self.in_front = True

    # -- pad lifecycle ----------------------------------------------------------

    def new_pad(self, name: str) -> EntityObject:
        """Create a pad with an unnamed root bundle and make it current."""
        root = self.dmi.Create_Bundle(bundleName="", bundlePos=Coordinate(0, 0),
                                      bundleWidth=800.0, bundleHeight=600.0)
        pad = self.dmi.Create_SlimPad(padName=name, rootBundle=root)
        self._pad = pad
        self._emit("slimpad.pad", pad=name)
        return pad

    @property
    def pad(self) -> EntityObject:
        """The current pad; raises before :meth:`new_pad`/:meth:`open_pad`."""
        if self._pad is None:
            raise SlimPadError("no pad open; call new_pad or open_pad")
        return self._pad

    @property
    def root_bundle(self) -> EntityObject:
        """The current pad's root bundle."""
        root = self.pad.rootBundle
        if root is None:
            raise SlimPadError("current pad has no root bundle")
        return root

    def save_pad(self, file_name: str) -> None:
        """Persist the pad structure (marks are saved by the Mark Manager).

        The write is atomic (temp + fsync + rename), so a crash mid-save
        never destroys an existing pad file.
        """
        self.dmi.save(file_name)

    def open_pad(self, file_name: str) -> EntityObject:
        """Load a pad file and make its first pad current."""
        self._pad = self.dmi.load(file_name)
        return self._pad

    def enable_durability(self, directory: str, compact_every: int = 64):
        """Crash-safe persistence for this pad's triples (WAL + snapshots).

        Call before building the pad (the store must be empty when
        *directory* holds previous state); prior state is recovered and
        every subsequent pad edit is logged.  Returns the
        :class:`~repro.triples.wal.Durability` handle.  Pair with
        :meth:`commit` at user-operation boundaries.
        """
        return self.dmi.runtime.trim.enable_durability(
            directory, compact_every=compact_every)

    def commit(self) -> bool:
        """Close a durable group boundary; no-op when durability is off."""
        return self.dmi.runtime.trim.commit()

    def cache_stats(self) -> dict:
        """Read-path cache metrics for this pad's triple store — the
        hit/miss/eviction counters SLIMPad workloads report (see
        :meth:`repro.triples.trim.TrimManager.cache_stats`)."""
        return self.dmi.runtime.trim.cache_stats()

    def open_durable(self, directory: str,
                     compact_every: int = 64) -> EntityObject:
        """Recover a durably-persisted pad and make it current.

        The durable directory's snapshot + WAL tail are replayed into the
        store (see :func:`repro.triples.wal.recover`); the first recovered
        pad becomes current, and further edits keep being logged.
        """
        self.enable_durability(directory, compact_every=compact_every)
        pads = self.dmi.All_SlimPad()
        if not pads:
            raise SlimPadError(f"{directory!r} holds no durable SlimPad")
        self._pad = pads[0]
        return self._pad

    # -- building bundles ---------------------------------------------------------

    def create_bundle(self, name: str, pos: Coordinate,
                      width: float = 200.0, height: float = 120.0,
                      parent: Optional[EntityObject] = None) -> EntityObject:
        """Create a bundle nested in *parent* (default: the root bundle)."""
        bundle = self.dmi.Create_Bundle(bundleName=name, bundlePos=pos,
                                        bundleWidth=width, bundleHeight=height)
        self.dmi.Add_nestedBundle(parent if parent is not None
                                  else self.root_bundle, bundle)
        self._emit("slimpad.bundle", bundle=name)
        return bundle

    def create_scrap_from_selection(self, base_app, label: Optional[str] = None,
                                    pos: Optional[Coordinate] = None,
                                    bundle: Optional[EntityObject] = None
                                    ) -> EntityObject:
        """The paper's creation flow: mark the base selection, drop a scrap.

        When *label* is omitted, a content preview from the mark becomes
        the scrap's name (the user can rename it later — a scrap's label
        and its mark's content may differ).
        """
        mark = self.marks.create_mark(base_app)
        return self.create_scrap_from_mark(mark, label=label, pos=pos,
                                           bundle=bundle)

    def create_scrap_from_mark(self, mark: Mark, label: Optional[str] = None,
                               pos: Optional[Coordinate] = None,
                               bundle: Optional[EntityObject] = None
                               ) -> EntityObject:
        """Place an existing mark onto the pad as a scrap."""
        if label is None:
            label = preview(self.marks, mark.mark_id) or mark.mark_id
        scrap = self.dmi.Create_Scrap(
            scrapName=label, scrapPos=pos if pos is not None else Coordinate(0, 0))
        handle = self.dmi.Create_MarkHandle(markId=mark.mark_id)
        self.dmi.Add_scrapMark(scrap, handle)
        self.dmi.Add_bundleContent(bundle if bundle is not None
                                   else self.root_bundle, scrap)
        self._emit("slimpad.scrap", scrap=label, mark=mark.mark_id)
        return scrap

    def create_note_scrap(self, text: str, pos: Coordinate,
                          bundle: Optional[EntityObject] = None
                          ) -> EntityObject:
        """A plain scrap with no mark — information that exists only on
        the pad (to-do items on the resident's worksheet)."""
        scrap = self.dmi.Create_Scrap(scrapName=text, scrapPos=pos)
        self.dmi.Add_bundleContent(bundle if bundle is not None
                                   else self.root_bundle, scrap)
        return scrap

    # -- interacting with scraps -----------------------------------------------------

    def double_click(self, scrap: EntityObject) -> Resolution:
        """De-reference the scrap's (first) mark in context.

        The base application opens the original document and highlights
        the marked element; SLIMPad stays on screen (simultaneous
        viewing).  Raises for mark-less note scraps.
        """
        handles = scrap.scrapMark
        if not handles:
            raise SlimPadError(
                f"scrap {scrap.scrapName!r} has no mark to de-reference")
        resolution = self.marks.resolve(handles[0].markId)
        self._emit("slimpad.dereference", scrap=scrap.scrapName,
                   mark=handles[0].markId)
        return resolution

    def resolutions(self, scrap: EntityObject) -> List[Resolution]:
        """Resolve every mark of a multi-mark scrap."""
        return [self.marks.resolve(h.markId) for h in scrap.scrapMark]

    def show_in_place(self, scrap: EntityObject, width: int = 60) -> str:
        """Independent viewing: render the marked content on the pad
        itself, without surfacing any base window."""
        handles = scrap.scrapMark
        if not handles:
            return scrap.scrapName or ""
        return display_in_place(self.marks, handles[0].markId, width=width)

    def move_scrap(self, scrap: EntityObject, pos: Coordinate) -> None:
        """Drag a scrap to a new position."""
        self.dmi.Update_scrapPos(scrap, pos)

    def rename_scrap(self, scrap: EntityObject, name: str) -> None:
        """Rename a scrap (label and mark content may differ)."""
        self.dmi.Update_scrapName(scrap, name)

    def move_bundle(self, bundle: EntityObject, pos: Coordinate) -> None:
        """Drag a bundle to a new position."""
        self.dmi.Update_bundlePos(bundle, pos)

    def delete_scrap(self, scrap: EntityObject,
                     drop_marks: bool = True) -> None:
        """Remove a scrap from the pad (optionally forgetting its marks)."""
        mark_ids = [h.markId for h in scrap.scrapMark]
        for bundle in self.dmi.runtime.referrers(scrap, "Bundle",
                                                 "bundleContent"):
            self.dmi.Remove_bundleContent(bundle, scrap)
        self.dmi.Delete_Scrap(scrap)
        if drop_marks:
            for mark_id in mark_ids:
                if mark_id in self.marks:
                    self.marks.remove(mark_id)

    # -- queries -------------------------------------------------------------------------

    def scraps_in(self, bundle: EntityObject,
                  recursive: bool = False) -> List[EntityObject]:
        """The scraps of a bundle (optionally of all nested bundles too)."""
        scraps = list(bundle.bundleContent)
        if recursive:
            for nested in bundle.nestedBundle:
                scraps.extend(self.scraps_in(nested, recursive=True))
        return scraps

    def bundles_in(self, bundle: EntityObject,
                   recursive: bool = False) -> List[EntityObject]:
        """The bundles nested in a bundle."""
        nested = list(bundle.nestedBundle)
        if recursive:
            for child in list(nested):
                nested.extend(self.bundles_in(child, recursive=True))
        return nested

    def find_scrap(self, name: str) -> Optional[EntityObject]:
        """The first scrap (anywhere under the root) with this label."""
        for scrap in self.scraps_in(self.root_bundle, recursive=True):
            if scrap.scrapName == name:
                return scrap
        return None

    def find_bundle(self, name: str) -> Optional[EntityObject]:
        """The first bundle (anywhere under the root) with this name."""
        for bundle in self.bundles_in(self.root_bundle, recursive=True):
            if bundle.bundleName == name:
                return bundle
        return None

    def superimposed_bytes(self) -> int:
        """Size of the pad's superimposed information (claim C-3's
        numerator): the triple store footprint."""
        return self.dmi.runtime.trim.store.estimated_bytes()

    # -- internals ---------------------------------------------------------------------------

    def _emit(self, topic: str, **payload) -> None:
        if self.bus is not None:
            self.bus.publish(topic, **payload)
