"""The hand-written SLIMPad DMI (Fig. 10).

*"For SLIMPad, we generated the application data structures and DMI
manually, based on the application model."*  This class is that manual
DMI: its method surface follows Fig. 10 (``Create_SlimPad``,
``Update_padName``, ``Update_rootBundle``, …, ``save``, ``load``) and is
implemented over the same :class:`~repro.dmi.runtime.DmiRuntime` the
generated DMIs use — tests assert the two produce identical triples.

Extension operations for the Section 6 features (annotations, links,
graphics) live at the bottom, clearly separated.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional

from repro.errors import DmiError, SlimPadError, StaleObjectError
from repro.dmi.runtime import DmiRuntime, EntityObject
from repro.slimpad.model import EXTENDED_BUNDLE_SCRAP_SPEC
from repro.triples.trim import TrimManager
from repro.util.coordinates import Coordinate


def _as_float(name: str, value) -> float:
    """Coerce numeric extents (int or float) to float; typed error otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DmiError(f"{name} must be a number, got {type(value).__name__}")
    return float(value)


class SlimPadDMI:
    """Typed operations on SLIMPad's application data (Fig. 10)."""

    def __init__(self, trim: Optional[TrimManager] = None) -> None:
        self._runtime = DmiRuntime(EXTENDED_BUNDLE_SCRAP_SPEC, trim)

    @property
    def runtime(self) -> DmiRuntime:
        """The underlying runtime (for layout queries and benches)."""
        return self._runtime

    # -- Create_* -----------------------------------------------------------------

    def Create_SlimPad(self, padName: str,
                       rootBundle: Optional[EntityObject] = None) -> EntityObject:
        """Create a SlimPad, optionally designating its root bundle."""
        pad = self._runtime.create("SlimPad", padName=padName)
        if rootBundle is not None:
            self._runtime.set_ref(pad, "rootBundle", rootBundle)
        return pad

    def Create_Bundle(self, bundleName: str = "",
                      bundlePos: Optional[Coordinate] = None,
                      bundleWidth: float = 200.0,
                      bundleHeight: float = 120.0) -> EntityObject:
        """Create a Bundle with a name, position and extent."""
        return self._runtime.create(
            "Bundle", bundleName=bundleName,
            bundlePos=bundlePos if bundlePos is not None else Coordinate(0, 0),
            bundleWidth=_as_float("bundleWidth", bundleWidth),
            bundleHeight=_as_float("bundleHeight", bundleHeight))

    def Create_Scrap(self, scrapName: str = "",
                     scrapPos: Optional[Coordinate] = None) -> EntityObject:
        """Create a Scrap with a label and position (marks added after)."""
        return self._runtime.create(
            "Scrap", scrapName=scrapName,
            scrapPos=scrapPos if scrapPos is not None else Coordinate(0, 0))

    def Create_MarkHandle(self, markId: str) -> EntityObject:
        """Create a MarkHandle referencing a Mark Manager mark by id."""
        return self._runtime.create("MarkHandle", markId=markId)

    def Create_Scraps(self, bundle: EntityObject,
                      scraps: Iterable[Mapping[str, object]]
                      ) -> List[EntityObject]:
        """Create many Scraps and place them all into *bundle* at once.

        The batched counterpart of ``Create_Scrap`` + ``Add_bundleContent``
        per scrap: every scrap's triples and its containment link are
        written in one batch session through the store's bulk path and,
        under durable mode, committed as a single WAL group.  Each spec
        mapping may carry ``scrapName`` and ``scrapPos`` (both optional).
        An error anywhere creates nothing.
        """
        if bundle.entity_name != "Bundle":
            raise DmiError(
                f"Create_Scraps targets a Bundle, got {bundle.entity_name}")
        if not self._runtime.exists(bundle):
            raise StaleObjectError(f"Bundle {bundle.id} was deleted")
        specs = [dict(spec) for spec in scraps]
        for spec in specs:
            spec.setdefault("scrapName", "")
            spec.setdefault("scrapPos", Coordinate(0, 0))
        runtime = self._runtime
        content = runtime.property_resource("Bundle", "bundleContent")
        created: List[EntityObject] = []
        with runtime.trim.batch():
            # Each scrap was created in this very batch, so the per-link
            # liveness probes of add_ref (which would flush the bulk
            # path once per scrap) are provably redundant — link the
            # containment triples directly, in the same triple order the
            # per-op Create_Scrap + Add_bundleContent sequence produces.
            for spec in specs:
                scrap = runtime.create("Scrap", **spec)
                runtime.trim.create(bundle._resource, content,
                                    scrap._resource)
                created.append(scrap)
        runtime.trim.commit()
        return created

    # -- Update_* -----------------------------------------------------------------

    def Update_padName(self, pad: EntityObject, newPadName: str) -> None:
        """Rename a SlimPad."""
        self._runtime.update(pad, "padName", newPadName)

    def Update_rootBundle(self, pad: EntityObject,
                          newRootBundle: Optional[EntityObject]) -> None:
        """Re-point (or clear) a SlimPad's root bundle."""
        self._runtime.set_ref(pad, "rootBundle", newRootBundle)

    def Update_bundleName(self, bundle: EntityObject, newName: str) -> None:
        """Rename a Bundle."""
        self._runtime.update(bundle, "bundleName", newName)

    def Update_bundlePos(self, bundle: EntityObject,
                         newPos: Coordinate) -> None:
        """Move a Bundle."""
        self._runtime.update(bundle, "bundlePos", newPos)

    def Update_bundleWidth(self, bundle: EntityObject, width: float) -> None:
        """Resize a Bundle horizontally."""
        self._runtime.update(bundle, "bundleWidth", _as_float("bundleWidth", width))

    def Update_bundleHeight(self, bundle: EntityObject, height: float) -> None:
        """Resize a Bundle vertically."""
        self._runtime.update(bundle, "bundleHeight", _as_float("bundleHeight", height))

    def Update_scrapName(self, scrap: EntityObject, newName: str) -> None:
        """Rename a Scrap (its label may differ from the mark's content)."""
        self._runtime.update(scrap, "scrapName", newName)

    def Update_scrapPos(self, scrap: EntityObject, newPos: Coordinate) -> None:
        """Move a Scrap."""
        self._runtime.update(scrap, "scrapPos", newPos)

    # -- containment --------------------------------------------------------------

    def Add_bundleContent(self, bundle: EntityObject,
                          scrap: EntityObject) -> None:
        """Place a Scrap into a Bundle."""
        self._runtime.add_ref(bundle, "bundleContent", scrap)

    def Remove_bundleContent(self, bundle: EntityObject,
                             scrap: EntityObject) -> bool:
        """Take a Scrap out of a Bundle (without deleting it)."""
        return self._runtime.remove_ref(bundle, "bundleContent", scrap)

    def Add_nestedBundle(self, parent: EntityObject,
                         child: EntityObject) -> None:
        """Nest a Bundle inside another (bundles group into bundles)."""
        if parent == child:
            raise SlimPadError("a bundle cannot nest inside itself")
        if self._would_cycle(parent, child):
            raise SlimPadError("bundle nesting would create a cycle")
        self._runtime.add_ref(parent, "nestedBundle", child)

    def Remove_nestedBundle(self, parent: EntityObject,
                            child: EntityObject) -> bool:
        """Un-nest a Bundle (without deleting it)."""
        return self._runtime.remove_ref(parent, "nestedBundle", child)

    def Add_scrapMark(self, scrap: EntityObject,
                      handle: EntityObject) -> None:
        """Attach a MarkHandle to a Scrap (multiple marks supported)."""
        self._runtime.add_ref(scrap, "scrapMark", handle)

    # -- Delete_* ------------------------------------------------------------------

    def Delete_SlimPad(self, pad: EntityObject) -> int:
        """Delete a pad and everything it contains."""
        return self._runtime.delete(pad)

    def Delete_Bundle(self, bundle: EntityObject) -> int:
        """Delete a bundle, its scraps, and its nested bundles."""
        return self._runtime.delete(bundle)

    def Delete_Scrap(self, scrap: EntityObject) -> int:
        """Delete a scrap and its mark handles/annotations."""
        return self._runtime.delete(scrap)

    def Delete_MarkHandle(self, handle: EntityObject) -> int:
        """Delete one mark handle."""
        return self._runtime.delete(handle)

    # -- retrieval --------------------------------------------------------------------

    def All_SlimPad(self) -> List[EntityObject]:
        """Every stored pad."""
        return self._runtime.all("SlimPad")

    def Get_SlimPad(self, instance_id: str) -> EntityObject:
        """One pad by id."""
        return self._runtime.get("SlimPad", instance_id)

    # -- persistence ---------------------------------------------------------------------

    def save(self, fileName: str) -> None:
        """Persist all pads (triples through TRIM, per Fig. 9)."""
        self._runtime.save(fileName)

    def load(self, fileName: str) -> EntityObject:
        """Load pads from a file; returns the first pad."""
        self._runtime.load(fileName)
        pads = self.All_SlimPad()
        if not pads:
            raise SlimPadError(f"{fileName!r} holds no SlimPad")
        return pads[0]

    # -- Section 6 extensions ---------------------------------------------------------------

    def Annotate_Scrap(self, scrap: EntityObject, text: str,
                       author: str = "") -> EntityObject:
        """Attach an annotation to a scrap (clinician-requested feature)."""
        annotation = self._runtime.create("Annotation", annotationText=text,
                                          annotationAuthor=author)
        self._runtime.add_ref(scrap, "scrapAnnotation", annotation)
        return annotation

    def Remove_Annotation(self, scrap: EntityObject,
                          annotation: EntityObject) -> None:
        """Detach and delete an annotation."""
        self._runtime.remove_ref(scrap, "scrapAnnotation", annotation)
        self._runtime.delete(annotation)

    def Link_Scraps(self, source: EntityObject, target: EntityObject) -> None:
        """Create an explicit link between two scraps."""
        self._runtime.add_ref(source, "linkedTo", target)

    def Unlink_Scraps(self, source: EntityObject,
                      target: EntityObject) -> bool:
        """Remove an explicit scrap link."""
        return self._runtime.remove_ref(source, "linkedTo", target)

    def Create_Graphic(self, bundle: EntityObject, kind: str,
                       pos: Coordinate, width: float,
                       height: float) -> EntityObject:
        """Place a graphic element (e.g. a gridlet) inside a bundle."""
        graphic = self._runtime.create(
            "Graphic", graphicKind=kind, graphicPos=pos,
            graphicWidth=_as_float("graphicWidth", width),
            graphicHeight=_as_float("graphicHeight", height))
        self._runtime.add_ref(bundle, "bundleGraphic", graphic)
        return graphic

    # -- internals -----------------------------------------------------------------------------

    def _would_cycle(self, parent: EntityObject, child: EntityObject) -> bool:
        """True when *parent* is (transitively) nested inside *child*."""
        frontier = [child]
        seen = set()
        while frontier:
            bundle = frontier.pop()
            if bundle == parent:
                return True
            if bundle.id in seen:
                continue
            seen.add(bundle.id)
            frontier.extend(bundle.nestedBundle)
        return False
