"""The DMI runtime: typed operations over the triple representation.

Fig. 9: *"The superimposed application interacts with application data …
plus an application-specific Data Manipulation Interface (DMI) … By
restricting manipulation of data through the DMI, we store the triples
without intervention from the superimposed application."*

:class:`DmiRuntime` is the engine under every DMI: it turns entity-level
operations (create/update/link/delete) into triples in a TRIM store and
hands the application read-only :class:`EntityObject` proxies — the
"application data interfaces" of Fig. 10.  Proxies read from the store on
every access, so application data and triples cannot diverge.

Concurrency: a DMI running inside its own ``bulk_session`` still reads
its uncommitted creates (store reads flush pending inserts for the thread
that owns the bulk scope), while *other* threads' proxy reads and queries
see the last-flushed snapshot — the DMI's consistency guarantee holds
per-thread without readers blocking the ingest.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import DmiError, StaleObjectError, UnknownEntityError
from repro.dmi.spec import ATTR_TYPES, EntitySpec, ModelSpec, RefSpec
from repro.triples.namespaces import SLIM
from repro.triples.triple import Literal, Resource
from repro.triples.trim import TrimManager

#: rdf:type is reused for entity typing.
_TYPE = Resource("rdf:type")


class EntityObject:
    """A read-only proxy for one entity instance.

    Attribute access is live: ``scrap.scrapName`` reads the store at call
    time.  References come back as further proxies (lists for ``many``
    references).  Assignment is rejected — all writes go through the DMI,
    which is how the DMI "guarantees consistency between the triple
    representation and the application data".
    """

    __slots__ = ("_runtime", "_resource", "_entity")

    def __init__(self, runtime: "DmiRuntime", resource: Resource,
                 entity: EntitySpec) -> None:
        object.__setattr__(self, "_runtime", runtime)
        object.__setattr__(self, "_resource", resource)
        object.__setattr__(self, "_entity", entity)

    @property
    def id(self) -> str:
        """The stable identifier of this instance."""
        return self._resource.uri

    @property
    def entity_name(self) -> str:
        """Which entity this instance belongs to."""
        return self._entity.name

    def __getattr__(self, name: str):
        runtime: DmiRuntime = self._runtime
        entity: EntitySpec = self._entity
        if any(a.name == name for a in entity.attributes):
            return runtime.value(self, name)
        for ref in entity.references:
            if ref.name == name:
                targets = runtime.refs(self, name)
                return targets if ref.many else (targets[0] if targets else None)
        raise AttributeError(
            f"{entity.name} has no attribute or reference {name!r}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            "application data is read-only; mutate through the DMI")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EntityObject)
                and other._resource == self._resource)

    def __hash__(self) -> int:
        return hash(self._resource)

    def __repr__(self) -> str:
        return f"<{self._entity.name} {self._resource.uri}>"


class DmiRuntime:
    """Create/update/delete entity instances stored as triples."""

    def __init__(self, spec: ModelSpec,
                 trim: Optional[TrimManager] = None) -> None:
        self.spec = spec
        self.trim = trim or TrimManager()

    # -- naming ---------------------------------------------------------------

    def type_resource(self, entity_name: str) -> Resource:
        """The rdf:type value for instances of *entity_name*."""
        return SLIM[f"{self.spec.name}.{entity_name}"]

    def property_resource(self, entity_name: str, member: str) -> Resource:
        """The property naming attribute/reference *member* of an entity."""
        return SLIM[f"{self.spec.name}.{entity_name}.{member}"]

    # -- creation ---------------------------------------------------------------

    def create(self, entity_name: str, **attrs) -> EntityObject:
        """Create an instance, setting any named attributes.

        Required attributes must be supplied; unknown names are rejected.
        All triples for the create are written in one rollback batch
        (or under the enclosing batch/bulk session, when one is active).
        """
        entity = self.spec.entity(entity_name)
        self._check_attrs(entity_name, entity, attrs)
        with self._op_batch():
            return self._create_one(entity_name, entity, attrs)

    def batch_create(self, entity_name: str,
                     items: Iterable[Mapping[str, object]]
                     ) -> List[EntityObject]:
        """Create many instances of one entity as a single batch session.

        Every item is validated up front; the triples for all of them
        are then written through the store's bulk path inside one
        rollback batch and committed as *one* WAL group under durable
        mode — N creates cost one index-maintenance pass and one fsync
        instead of N.  An error anywhere (validation or write) creates
        nothing.  Returns the proxies in item order.
        """
        entity = self.spec.entity(entity_name)
        specs: List[Dict[str, object]] = [dict(item) for item in items]
        for attrs in specs:
            self._check_attrs(entity_name, entity, attrs)
        with self._op_batch():
            created = [self._create_one(entity_name, entity, attrs)
                       for attrs in specs]
        if not self.trim.store.in_bulk:
            self.trim.commit()
        return created

    def _check_attrs(self, entity_name: str, entity: EntitySpec,
                     attrs: Mapping[str, object]) -> None:
        known = {a.name for a in entity.attributes}
        unknown = set(attrs) - known
        if unknown:
            raise DmiError(
                f"unknown attribute(s) for {entity_name}: {sorted(unknown)}")
        missing = [a.name for a in entity.attributes
                   if a.required and a.name not in attrs]
        if missing:
            raise DmiError(
                f"missing required attribute(s) for {entity_name}: {missing}")

    def _create_one(self, entity_name: str, entity: EntitySpec,
                    attrs: Mapping[str, object]) -> EntityObject:
        resource = self.trim.new_resource(entity_name.lower())
        self.trim.create(resource, _TYPE, self.type_resource(entity_name))
        for name, value in attrs.items():
            self._write_attr(resource, entity, name, value)
        return EntityObject(self, resource, entity)

    def _op_batch(self):
        """The rollback unit for one DMI operation.

        Normally a fresh :meth:`TrimManager.batch`; when an enclosing
        bulk/batch session is already active on the store, that session
        owns rollback (batches do not nest), so this degrades to a
        no-op context.
        """
        if self.trim.store.in_bulk:
            return contextlib.nullcontext()
        return self.trim.batch()

    def cache_stats(self) -> dict:
        """Read-path cache metrics for this DMI's TRIM (hit rates for
        attribute/reference reads) — see
        :meth:`repro.triples.trim.TrimManager.cache_stats`."""
        return self.trim.cache_stats()

    # -- attributes ----------------------------------------------------------------

    def update(self, obj: EntityObject, attr_name: str, value) -> None:
        """Replace the value of one attribute."""
        self._require_live(obj)
        self._write_attr(obj._resource, obj._entity, attr_name, value,
                         replace=True)

    def value(self, obj: EntityObject, attr_name: str):
        """Read one attribute (``None`` when unset)."""
        self._require_live(obj)
        attr = obj._entity.attribute(attr_name)
        prop = self.property_resource(obj._entity.name, attr_name)
        raw = self.trim.literal_of(obj._resource, prop)
        if raw is None:
            return None
        return ATTR_TYPES[attr.type].decode(raw)

    def _write_attr(self, resource: Resource, entity: EntitySpec,
                    attr_name: str, value, replace: bool = False) -> None:
        attr = entity.attribute(attr_name)
        codec = ATTR_TYPES[attr.type]
        try:
            encoded = codec.encode(value)
        except TypeError as exc:
            raise DmiError(f"{entity.name}.{attr_name}: {exc}") from exc
        prop = self.property_resource(entity.name, attr_name)
        if replace:
            self.trim.store.remove_matching(subject=resource, property=prop)
        self.trim.create(resource, prop, Literal(encoded))

    # -- references -------------------------------------------------------------------

    def add_ref(self, obj: EntityObject, ref_name: str,
                target: EntityObject) -> None:
        """Append *target* to a reference (or set it, for single refs).

        Single-valued references reject a second target; use
        :meth:`set_ref` to replace.
        """
        self._require_live(obj)
        self._require_live(target)
        ref = obj._entity.reference(ref_name)
        self._check_target(ref, target)
        prop = self.property_resource(obj._entity.name, ref_name)
        if not ref.many and \
                self.trim.count(subject=obj._resource, prop=prop) > 0:
            raise DmiError(
                f"{obj._entity.name}.{ref_name} is single-valued; "
                f"use set_ref to replace")
        self.trim.create(obj._resource, prop, target._resource)

    def set_ref(self, obj: EntityObject, ref_name: str,
                target: Optional[EntityObject]) -> None:
        """Replace a reference's target(s) with *target* (or clear, if None)."""
        self._require_live(obj)
        ref = obj._entity.reference(ref_name)
        prop = self.property_resource(obj._entity.name, ref_name)
        self.trim.store.remove_matching(subject=obj._resource, property=prop)
        if target is not None:
            self._require_live(target)
            self._check_target(ref, target)
            self.trim.create(obj._resource, prop, target._resource)

    def remove_ref(self, obj: EntityObject, ref_name: str,
                   target: EntityObject) -> bool:
        """Remove one link; returns whether it existed."""
        self._require_live(obj)
        obj._entity.reference(ref_name)
        prop = self.property_resource(obj._entity.name, ref_name)
        return self.trim.store.remove_matching(
            subject=obj._resource, property=prop,
            value=target._resource) > 0

    def refs(self, obj: EntityObject, ref_name: str) -> List[EntityObject]:
        """The targets of a reference, in link order."""
        self._require_live(obj)
        ref = obj._entity.reference(ref_name)
        prop = self.property_resource(obj._entity.name, ref_name)
        target_entity = self.spec.entity(ref.target)
        result = []
        for node in self.trim.values_of(obj._resource, prop):
            if isinstance(node, Resource):
                result.append(EntityObject(self, node, target_entity))
        return result

    def referrers(self, obj: EntityObject, entity_name: str,
                  ref_name: str) -> List[EntityObject]:
        """Instances of *entity_name* whose *ref_name* points at *obj*."""
        self._require_live(obj)
        entity = self.spec.entity(entity_name)
        entity.reference(ref_name)
        prop = self.property_resource(entity_name, ref_name)
        return [EntityObject(self, t.subject, entity)
                for t in self.trim.select(prop=prop, value=obj._resource)]

    def _check_target(self, ref: RefSpec, target: EntityObject) -> None:
        if target._entity.name != ref.target:
            raise DmiError(
                f"reference {ref.name!r} expects {ref.target}, "
                f"got {target._entity.name}")

    # -- retrieval ------------------------------------------------------------------------

    def get(self, entity_name: str, instance_id: str) -> EntityObject:
        """Fetch one instance by id; raises when absent or wrong entity."""
        entity = self.spec.entity(entity_name)
        resource = Resource(instance_id)
        # Exact-membership probe on the (s, p, v) fast path — no triple
        # materialization just to compare the type value.
        if self.trim.count(subject=resource, prop=_TYPE,
                           value=self.type_resource(entity_name)) == 0:
            raise UnknownEntityError(
                f"no {entity_name} with id {instance_id!r}")
        return EntityObject(self, resource, entity)

    def all(self, entity_name: str) -> List[EntityObject]:
        """Every instance of an entity, in creation order."""
        entity = self.spec.entity(entity_name)
        return [EntityObject(self, t.subject, entity)
                for t in self.trim.select(prop=_TYPE,
                                          value=self.type_resource(entity_name))]

    def exists(self, obj: EntityObject) -> bool:
        """Whether the instance behind *obj* is still stored.

        A bucket-size read on the ``(subject, property)`` compound index —
        this runs inside every DMI operation (via liveness checks), so it
        must not materialize triples.
        """
        return self.trim.count(subject=obj._resource, prop=_TYPE) > 0

    # -- deletion --------------------------------------------------------------------------

    def delete(self, obj: EntityObject) -> int:
        """Delete an instance; containment references cascade.

        Incoming references from surviving instances are removed, so the
        store never holds dangling links.  Returns the number of instances
        deleted (including cascaded ones).
        """
        self._require_live(obj)
        with self._op_batch():
            return self._delete_recursive(obj, seen=set())

    def _delete_recursive(self, obj: EntityObject, seen: set) -> int:
        if obj._resource in seen:
            return 0
        seen.add(obj._resource)
        count = 1
        for ref in obj._entity.references:
            if ref.containment:
                for child in self.refs(obj, ref.name):
                    count += self._delete_recursive(child, seen)
        self.trim.remove_about(obj._resource)
        self.trim.store.remove_matching(value=obj._resource)
        return count

    # -- persistence ------------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist all application data (delegates to TRIM)."""
        self.trim.save(path)

    def load(self, path: str) -> None:
        """Replace all application data from a file (delegates to TRIM)."""
        self.trim.load(path)

    # -- internals ----------------------------------------------------------------------------

    def _require_live(self, obj: EntityObject) -> None:
        if not self.exists(obj):
            raise StaleObjectError(
                f"{obj._entity.name} {obj._resource.uri} was deleted")
