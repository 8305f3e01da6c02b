"""A schema-first, fixed-model native store — the ablation counterpart.

Section 6: *"For the SLIM Store, our design decision was towards maximum
flexibility, with data model as well as schema being selectable and
explicitly represented. The trade-off for this flexibility was space
efficiency of the data and the cost of interpreting manipulations on SLIM
Store data."*

To *measure* that trade-off (claims C-1 and C-2) we need the road not
taken: a store whose schema is fixed up front, compiled to plain Python
objects — no triples, no interpretation.  :class:`SchemaFirstStore`
implements the Bundle-Scrap shape natively:

- the schema is declared at construction and cannot change ("schema-first");
- unknown attributes are rejected at write time (no "information-first"
  entry);
- storage is direct attribute slots — the space baseline;
- operations are direct method calls — the interpretation-cost baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import DmiError
from repro.util.coordinates import Coordinate


@dataclass
class NativeMarkHandle:
    """Fixed-shape mark handle record."""

    handle_id: str
    mark_id: str


@dataclass
class NativeScrap:
    """Fixed-shape scrap record."""

    scrap_id: str
    name: str = ""
    pos: Coordinate = field(default_factory=lambda: Coordinate(0, 0))
    marks: List[NativeMarkHandle] = field(default_factory=list)


@dataclass
class NativeBundle:
    """Fixed-shape bundle record."""

    bundle_id: str
    name: str = ""
    pos: Coordinate = field(default_factory=lambda: Coordinate(0, 0))
    width: float = 200.0
    height: float = 120.0
    scraps: List[NativeScrap] = field(default_factory=list)
    nested: List["NativeBundle"] = field(default_factory=list)


@dataclass
class NativePad:
    """Fixed-shape pad record."""

    pad_id: str
    name: str = ""
    root: Optional[NativeBundle] = None


_ALLOWED_ATTRS = {
    NativePad: {"name", "root"},
    NativeBundle: {"name", "pos", "width", "height"},
    NativeScrap: {"name", "pos"},
    NativeMarkHandle: {"mark_id"},
}


class SchemaFirstStore:
    """Create/update/delete over the fixed Bundle-Scrap shape."""

    def __init__(self) -> None:
        self._counter = 0
        self._pads: Dict[str, NativePad] = {}
        self._bundles: Dict[str, NativeBundle] = {}
        self._scraps: Dict[str, NativeScrap] = {}
        self._handles: Dict[str, NativeMarkHandle] = {}

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}-{self._counter:06d}"

    # -- creation -----------------------------------------------------------------

    def create_pad(self, name: str) -> NativePad:
        """Create a pad record."""
        pad = NativePad(self._next_id("pad"), name)
        self._pads[pad.pad_id] = pad
        return pad

    def create_bundle(self, name: str = "",
                      pos: Optional[Coordinate] = None,
                      width: float = 200.0,
                      height: float = 120.0) -> NativeBundle:
        """Create a bundle record."""
        bundle = NativeBundle(self._next_id("bundle"), name,
                              pos or Coordinate(0, 0), width, height)
        self._bundles[bundle.bundle_id] = bundle
        return bundle

    def create_scrap(self, name: str = "",
                     pos: Optional[Coordinate] = None) -> NativeScrap:
        """Create a scrap record."""
        scrap = NativeScrap(self._next_id("scrap"), name,
                            pos or Coordinate(0, 0))
        self._scraps[scrap.scrap_id] = scrap
        return scrap

    def create_handle(self, mark_id: str) -> NativeMarkHandle:
        """Create a mark-handle record."""
        handle = NativeMarkHandle(self._next_id("handle"), mark_id)
        self._handles[handle.handle_id] = handle
        return handle

    # -- updates (schema-first: unknown attributes rejected) ------------------------

    def update(self, record, attr: str, value) -> None:
        """Set a declared attribute; undeclared names are schema errors."""
        allowed = _ALLOWED_ATTRS.get(type(record))
        if allowed is None or attr not in allowed:
            raise DmiError(
                f"schema-first store: {type(record).__name__} has no "
                f"attribute {attr!r} (schema is fixed)")
        setattr(record, attr, value)

    # -- structure -------------------------------------------------------------------

    def add_scrap(self, bundle: NativeBundle, scrap: NativeScrap) -> None:
        """Place a scrap into a bundle."""
        bundle.scraps.append(scrap)

    def nest_bundle(self, parent: NativeBundle, child: NativeBundle) -> None:
        """Nest one bundle inside another."""
        parent.nested.append(child)

    def add_mark(self, scrap: NativeScrap, handle: NativeMarkHandle) -> None:
        """Attach a mark handle to a scrap."""
        scrap.marks.append(handle)

    def delete_bundle(self, bundle: NativeBundle) -> int:
        """Cascade delete, mirroring the DMI's containment semantics."""
        count = 1
        for scrap in bundle.scraps:
            count += self.delete_scrap(scrap)
        for nested in bundle.nested:
            count += self.delete_bundle(nested)
        self._bundles.pop(bundle.bundle_id, None)
        return count

    def delete_scrap(self, scrap: NativeScrap) -> int:
        """Delete a scrap and its handles; returns records removed."""
        count = 1 + len(scrap.marks)
        for handle in scrap.marks:
            self._handles.pop(handle.handle_id, None)
        self._scraps.pop(scrap.scrap_id, None)
        return count

    def counts(self) -> Dict[str, int]:
        """Record counts by kind."""
        return {"pads": len(self._pads), "bundles": len(self._bundles),
                "scraps": len(self._scraps), "handles": len(self._handles)}
