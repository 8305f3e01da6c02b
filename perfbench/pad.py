"""The paper's workload: SLIMPad pads of bundles and scraps over six base
applications, as seeded op scripts for the ``author``, ``review`` and
``reopen`` workloads, plus the client-side model that checks them.

Marks live in the client process, as in the paper's architecture: a
``MarkBench`` wraps one Mark Manager over a generated ICU document
library, creates marks round robin over the six base applications and
remembers what each mark should resolve to.  The server only sees the
scrap and mark-handle triples the DMI requests produce.

Every session is a generator for :func:`loadgen.Client.drive`.  User
ops fall in three classes, each timed from the client's first send to
the last reply it waits for: *write* (one mutation, answered by its
durable ack), *read* (``dmi.value``, ``trim.view`` or ``trim.query``)
and *resolve* (``trim.values`` for the scrap's mark handle,
``dmi.value`` for its mark id, then a local ``MarkManager.resolve``).
"""

from __future__ import annotations

import bisect
import os
import random
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from loadgen import Close, Recorder, Req

from repro.base import standard_mark_manager
from repro.base.xmldoc.xpath import path_of
from repro.marks.modules import Resolution
from repro.slimpad.dmi import SlimPadDMI
from repro.triples.triple import Resource
from repro.triples.trim import TrimManager
from repro.util.coordinates import Coordinate
from repro.workloads.icu import generate_icu

#: The six base applications, in mark-creation round-robin order.
KINDS = ("spreadsheet", "xml", "pdf", "html", "word", "slides")

#: Property URIs of the SLIMPad model (``BundleScrap`` DMI namespace).
SCRAP_MARK = "slim:BundleScrap.Scrap.scrapMark"
BUNDLE_CONTENT = "slim:BundleScrap.Bundle.bundleContent"
NESTED_BUNDLE = "slim:BundleScrap.Bundle.nestedBundle"
MARK_ID = "slim:BundleScrap.MarkHandle.markId"

#: Zipf exponent of the review workload's key popularity.
ZIPF_S = 1.1

now = time.perf_counter


def coord(x: float, y: float) -> list:
    """A coordinate as the wire's tagged ``["c", x, y]`` payload."""
    return ["c", float(x), float(y)]


def norm(value: Any) -> Any:
    """A wire or DMI attribute value in one hashable, comparable form."""
    if isinstance(value, Coordinate):
        return ("c", float(value.x), float(value.y))
    if isinstance(value, list) and value and value[0] == "c":
        return ("c", float(value[1]), float(value[2]))
    return value


class Zipf:
    """Zipfian ranks over ``n`` items, mapped through a seeded shuffle so
    the hot set differs between seeds."""

    def __init__(self, n: int, order_seed: int, rng: random.Random,
                 s: float = ZIPF_S) -> None:
        self._rng = rng
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank ** s
            self._cumulative.append(total)
        self._total = total
        self._order = list(range(n))
        random.Random(order_seed).shuffle(self._order)

    def pick(self) -> int:
        """One item index."""
        rank = bisect.bisect_left(self._cumulative,
                                  self._rng.random() * self._total)
        return self._order[min(rank, len(self._order) - 1)]


class MarkBench:
    """The client's Mark Manager over a generated ICU library."""

    def __init__(self, patients: int, seed: int, recorder: Recorder) -> None:
        self.icu = generate_icu(num_patients=patients, seed=seed)
        self.manager = standard_mark_manager(self.icu.library)
        self.rng = random.Random(seed * 7919 + 1)
        self.recorder = recorder
        #: mark id -> (application kind, expected resolved text)
        self.expected: Dict[str, Tuple[str, str]] = {}
        self._count = 0
        page = self.manager.application("html").load(self.icu.guideline_url)
        self._html_elements = [(path_of(e), e.text) for e in
                               page.root.find_all("p")
                               + page.root.find_all("li")]

    def create(self) -> Tuple[str, str]:
        """Select something in the next base application and mark it.

        Returns ``(mark_id, label)``.  Only ``MarkManager.create_mark``
        is timed (``marks.create``); the selection is the user's part.
        """
        kind = KINDS[self._count % len(KINDS)]
        self._count += 1
        rng = self.rng
        app = self.manager.application(kind)
        patient = rng.choice(self.icu.patients)
        if kind == "spreadsheet":
            app.open_workbook(patient.meds_file)
            row = rng.randint(2, 1 + len(patient.medications))
            app.select_range(f"A{row}:D{row}")
            selected: Any = app.selected_values()
        elif kind == "xml":
            document = app.open_document(patient.labs_file)
            element = rng.choice(document.root.find_all("result"))
            app.select_element(element)
            selected = element.full_text()
        elif kind == "pdf":
            document = app.open_pdf(self.icu.handbook_file)
            page = rng.choice(document.pages)
            app.goto_page(page.number)
            line = rng.randint(1, len(page.lines))
            app.select_span(line, 0, line, len(page.line(line)))
            selected = app.selected_text()
        elif kind == "html":
            app.load(self.icu.guideline_url)
            path, text = rng.choice(self._html_elements)
            app.select_text(path, rng.randint(0, len(text) // 2), len(text))
            selected = app.selected_text()
        elif kind == "word":
            document = app.open_document(patient.note_file)
            paragraph = rng.randint(1, 3)
            text = document.paragraph(paragraph)
            start = rng.randint(0, len(text) // 3)
            app.select_span(paragraph, start, len(text))
            selected = app.selected_text()
        else:
            app.open_presentation(self.icu.rounds_deck)
            app.goto_slide(1 + patient.number)
            app.select_shape(rng.choice(("Patient", "Problems")))
            selected = app.selected_shape().text
        started = now()
        mark = self.manager.create_mark(app)
        self.recorder.span("marks.create", started, now())
        text = Resolution(mark, kind, "", "", selected).content_text()
        self.expected[mark.mark_id] = (kind, text)
        return mark.mark_id, f"{kind}: {text[:40]}"

    def resolve(self, mark_id: str) -> Optional[str]:
        """Double-click: resolve locally; returns a mismatch or ``None``."""
        if mark_id not in self.expected:
            return f"server returned unknown mark id {mark_id!r}"
        kind, text = self.expected[mark_id]
        started = now()
        resolution = self.manager.resolve(mark_id)
        self.recorder.span(f"marks.resolve.{kind}", started, now())
        if resolution.application_kind != kind \
                or resolution.content_text() != text:
            return (f"mark {mark_id} resolved to "
                    f"{resolution.content_text()!r}, expected {text!r}")
        return None


class Model:
    """What the client knows the store must hold: acked attributes and
    references, plus the value of each write still awaiting its ack."""

    def __init__(self) -> None:
        self.attrs: Dict[Tuple[str, str, str], Any] = {}
        self.refs: Dict[Tuple[str, str, str], List[str]] = {}
        self.pending: Dict[Tuple[str, str, str], Any] = {}

    def candidates(self, key: Tuple[str, str, str]) -> set:
        """Values a read of *key* may return right now."""
        found = {norm(self.attrs.get(key))}
        if key in self.pending:
            found.add(norm(self.pending[key]))
        return found

    def check_durable(self, directory: str) -> Tuple[List[str], int]:
        """Reopen *directory* and check every acked write is there.

        Returns ``(mismatches, stored_triples)``.
        """
        problems: List[str] = []
        trim = TrimManager(durable=directory)
        try:
            runtime = SlimPadDMI(trim=trim).runtime
            tenant = os.path.basename(directory)
            for (entity, oid, attr), value in self.attrs.items():
                if not oid.startswith(tenant + "/"):
                    continue
                local = oid.split("/", 1)[1]
                try:
                    got = runtime.value(runtime.get(entity, local), attr)
                except Exception as exc:  # noqa: BLE001 - reported
                    problems.append(f"{tenant}: {entity} {local}: {exc}")
                    continue
                if norm(got) != norm(value):
                    problems.append(f"{tenant}: {entity} {local}.{attr} = "
                                    f"{got!r}, acked {value!r}")
            for (entity, oid, ref), targets in self.refs.items():
                if not oid.startswith(tenant + "/"):
                    continue
                local = oid.split("/", 1)[1]
                try:
                    got = [o.id for o in
                           runtime.refs(runtime.get(entity, local), ref)]
                except Exception as exc:  # noqa: BLE001 - reported
                    problems.append(f"{tenant}: {entity} {local}: {exc}")
                    continue
                if got != targets:
                    problems.append(f"{tenant}: {entity} {local}.{ref} has "
                                    f"{len(got)} target(s), acked "
                                    f"{len(targets)}")
            return problems, len(trim.store)
        finally:
            trim.close()


class Ctx:
    """Everything one measured pass shares: sizes, model, marks, ops."""

    def __init__(self, seed: int, recorder: Recorder, patients: int) -> None:
        self.seed = seed
        self.recorder = recorder
        self.model = Model()
        self.marks = MarkBench(patients, seed, recorder)
        #: tenant -> ids of its bundles / scraps (local ids).
        self.bundles: Dict[str, List[str]] = {}
        self.scraps: Dict[str, List[str]] = {}
        self.errors: List[str] = []
        #: ``trim.stats`` replies collected by the reopen cycles.
        self.cycle_stats: List[dict] = []
        self.evict_retries = 0

    # -- model bookkeeping (keys are "tenant/id") -----------------------------

    def acked_attr(self, tenant: str, entity: str, oid: str, attr: str,
                   value: Any) -> None:
        self.model.attrs[(entity, f"{tenant}/{oid}", attr)] = value

    def acked_ref(self, tenant: str, entity: str, oid: str, ref: str,
                  target: str) -> None:
        self.model.refs.setdefault((entity, f"{tenant}/{oid}", ref),
                                   []).append(target)

    # -- op helpers (generators for ``yield from``) ---------------------------

    def result(self, reply: dict, what: str) -> Optional[dict]:
        if reply.get("ok"):
            return reply.get("result") or {}
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {reply.get('error')}")
        return None

    def write(self, conn: str, tenant: str, op: str, params: dict,
              triples: int) -> Iterator[Any]:
        """One timed write that adds *triples* triples; returns its
        result, or ``None`` if it failed."""
        started = now()
        reply = yield Req(conn, op, params, tenant)
        result = self.result(reply, op)
        self.recorder.op("write", started, result is not None, triples)
        return result

    def drop_scrap(self, conn: str, tenant: str, bundle: str,
                   pos: Tuple[float, float]) -> Iterator[Any]:
        """The paper's scrap drop: mark locally, then four DMI writes."""
        mark_id, label = self.marks.create()
        made = yield from self.write(conn, tenant, "dmi.create", {
            "entity": "Scrap",
            "attrs": {"scrapName": label, "scrapPos": coord(*pos)}}, 3)
        if made is None:
            return None
        scrap = made["id"]
        self.acked_attr(tenant, "Scrap", scrap, "scrapName", label)
        self.acked_attr(tenant, "Scrap", scrap, "scrapPos", coord(*pos))
        made = yield from self.write(conn, tenant, "dmi.create", {
            "entity": "MarkHandle", "attrs": {"markId": mark_id}}, 2)
        if made is None:
            return None
        handle = made["id"]
        self.acked_attr(tenant, "MarkHandle", handle, "markId", mark_id)
        linked = yield from self.write(conn, tenant, "dmi.add_ref", {
            "entity": "Scrap", "id": scrap, "ref": "scrapMark",
            "target_entity": "MarkHandle", "target_id": handle}, 1)
        if linked is None:
            return None
        self.acked_ref(tenant, "Scrap", scrap, "scrapMark", handle)
        linked = yield from self.write(conn, tenant, "dmi.add_ref", {
            "entity": "Bundle", "id": bundle, "ref": "bundleContent",
            "target_entity": "Scrap", "target_id": scrap}, 1)
        if linked is None:
            return None
        self.acked_ref(tenant, "Bundle", bundle, "bundleContent", scrap)
        self.scraps.setdefault(tenant, []).append(scrap)
        return scrap

    def new_bundle(self, conn: str, tenant: str, parent: str, name: str,
                   pos: Tuple[float, float]) -> Iterator[Any]:
        """Create a bundle and nest it in *parent* (two writes)."""
        attrs = {"bundleName": name, "bundlePos": coord(*pos),
                 "bundleWidth": 240.0, "bundleHeight": 160.0}
        made = yield from self.write(conn, tenant, "dmi.create", {
            "entity": "Bundle", "attrs": attrs}, 1 + len(attrs))
        if made is None:
            return None
        bundle = made["id"]
        for attr, value in attrs.items():
            self.acked_attr(tenant, "Bundle", bundle, attr, value)
        linked = yield from self.write(conn, tenant, "dmi.add_ref", {
            "entity": "Bundle", "id": parent, "ref": "nestedBundle",
            "target_entity": "Bundle", "target_id": bundle}, 1)
        if linked is None:
            return None
        self.acked_ref(tenant, "Bundle", parent, "nestedBundle", bundle)
        self.bundles.setdefault(tenant, []).append(bundle)
        return bundle

    def update(self, conn: str, tenant: str, scrap: str, attr: str,
               value: Any) -> Iterator[Any]:
        """Rename or move a scrap (``dmi.update``)."""
        key = ("Scrap", f"{tenant}/{scrap}", attr)
        self.model.pending[key] = value
        done = yield from self.write(conn, tenant, "dmi.update", {
            "entity": "Scrap", "id": scrap, "attr": attr, "value": value},
            0)
        del self.model.pending[key]
        if done is not None:
            self.model.attrs[key] = value

    def read_attr(self, conn: str, tenant: str, entity: str, oid: str,
                  attr: str) -> Iterator[Any]:
        """``dmi.value``, checked against every value the model allows."""
        key = (entity, f"{tenant}/{oid}", attr)
        allowed = self.model.candidates(key)
        started = now()
        reply = yield Req(conn, "dmi.value",
                          {"entity": entity, "id": oid, "attr": attr}, tenant)
        result = self.result(reply, "dmi.value")
        ok = result is not None
        if ok:
            allowed |= self.model.candidates(key)
            if norm(result.get("value")) not in allowed:
                ok = False
                self.recorder.mismatch(
                    f"{tenant} {entity} {oid}.{attr} read "
                    f"{result.get('value')!r}, model allows {allowed!r}")
        self.recorder.op("read", started, ok)

    def resolve(self, conn: str, tenant: str, scrap: str) -> Iterator[Any]:
        """A scrap double-click: mark handle, mark id, local resolve."""
        started = now()
        ok = False
        reply = yield Req(conn, "trim.values", {"s": scrap, "p": SCRAP_MARK},
                          tenant)
        result = self.result(reply, "trim.values")
        if result is not None:
            handles = [v[1] for v in result["values"]]
            expected = self.model.refs.get(
                ("Scrap", f"{tenant}/{scrap}", "scrapMark"))
            if handles != expected:
                self.recorder.mismatch(f"{tenant} scrap {scrap} has handles "
                                       f"{handles}, model {expected}")
            else:
                reply = yield Req(conn, "dmi.value", {
                    "entity": "MarkHandle", "id": handles[0],
                    "attr": "markId"}, tenant)
                result = self.result(reply, "dmi.value")
                if result is not None:
                    mark_id = result["value"]
                    want = self.model.attrs.get(
                        ("MarkHandle", f"{tenant}/{handles[0]}", "markId"))
                    problem = (None if mark_id == want else
                               f"handle {handles[0]} holds mark {mark_id!r}, "
                               f"model {want!r}")
                    if problem is None:
                        problem = self.marks.resolve(mark_id)
                    if problem is None:
                        ok = True
                    else:
                        self.recorder.mismatch(f"{tenant}: {problem}")
        self.recorder.op("resolve", started, ok)

    def read_view(self, conn: str, tenant: str, bundle: str) -> Iterator[Any]:
        """``trim.view`` of one bundle and its scraps, checked."""
        scraps = self.model.refs.get(
            ("Bundle", f"{tenant}/{bundle}", "bundleContent"), [])
        before = {s: self.model.candidates(
            ("Scrap", f"{tenant}/{s}", "scrapName")) for s in scraps}
        started = now()
        reply = yield Req(conn, "trim.view", {
            "root": bundle, "follow": [BUNDLE_CONTENT], "max_depth": 1},
            tenant)
        result = self.result(reply, "trim.view")
        ok = result is not None
        if ok:
            contents, names = [], {}
            for t in result["triples"]:
                if t["s"] == bundle and t["p"] == BUNDLE_CONTENT:
                    contents.append(t["v"][1])
                elif t["p"].endswith(".scrapName"):
                    names[t["s"]] = t["v"][2]
            if contents != scraps or set(names) != set(scraps):
                ok = False
                self.recorder.mismatch(f"{tenant} view of {bundle}: "
                                       f"{len(contents)} scraps, model "
                                       f"{len(scraps)}")
            else:
                for scrap, name in names.items():
                    allowed = before[scrap] | self.model.candidates(
                        ("Scrap", f"{tenant}/{scrap}", "scrapName"))
                    if name not in allowed:
                        ok = False
                        self.recorder.mismatch(
                            f"{tenant} view: {scrap} named {name!r}, model "
                            f"allows {allowed!r}")
                        break
        self.recorder.op("read", started, ok)

    def read_join(self, conn: str, tenant: str, bundle: str
                  ) -> Iterator[Any]:
        """Planner ``trim.query``: bundle -> scraps -> handles -> mark ids."""
        started = now()
        reply = yield Req(conn, "trim.query", {"patterns": [
            [bundle, BUNDLE_CONTENT, "?s"],
            ["?s", SCRAP_MARK, "?h"],
            ["?h", MARK_ID, "?m"]]}, tenant)
        result = self.result(reply, "trim.query")
        ok = result is not None
        if ok:
            got = sorted((row["s"][1], row["m"][2])
                         for row in result["bindings"])
            want = sorted(
                (s, self.model.attrs[("MarkHandle", f"{tenant}/{h}",
                                      "markId")])
                for s in self.model.refs.get(
                    ("Bundle", f"{tenant}/{bundle}", "bundleContent"), [])
                for h in self.model.refs[("Scrap", f"{tenant}/{s}",
                                          "scrapMark")])
            if got != want:
                ok = False
                self.recorder.mismatch(f"{tenant} join over {bundle}: "
                                       f"{len(got)} rows, model {len(want)}")
        self.recorder.op("read", started, ok)


def shuffled_script(mix, total: int, rng: random.Random) -> List[str]:
    """*total* actions in the proportions of *mix*, in seeded order."""
    script = [kind for kind, weight in mix
              for _ in range(round(weight * total / 100))]
    rng.shuffle(script)
    return script


# -- tenant building through the library's bulk path --------------------------

def build_tenant(ctx: Ctx, root: str, tenant: str, bundles: int,
                 per_bundle: int, tail_groups: int = 0) -> None:
    """Build one tenant directory in-process, then close it.

    The pad (root bundle, *bundles* nested bundles of *per_bundle* marked
    scraps each) is written through ``TrimManager.bulk_ingest`` as one
    WAL group and compacted to a snapshot.  *tail_groups* single-rename
    commit groups follow under the production flush policy
    (``compact_every=64``), so ``tail_groups > 64`` leaves delta segments
    plus a WAL tail for the first open to recover.
    """
    directory = os.path.join(root, tenant)
    trim = TrimManager(durable=directory)
    try:
        runtime = SlimPadDMI(trim=trim).runtime
        content = Resource(BUNDLE_CONTENT)
        nested = Resource(NESTED_BUNDLE)
        scrap_mark = Resource(SCRAP_MARK)
        made_bundles: List[str] = []
        made_scraps: List[str] = []
        with trim.bulk_ingest():
            pad_root = runtime.create(
                "Bundle", bundleName="", bundlePos=Coordinate(0.0, 0.0),
                bundleWidth=800.0, bundleHeight=600.0)
            runtime.create("SlimPad", padName=tenant)
            for b in range(bundles):
                patients = ctx.marks.icu.patients
                patient = patients[b % len(patients)]
                attrs = {"bundleName": f"{patient.name} #{b}",
                         "bundlePos": Coordinate(16.0, 20.0 + 184.0 * b),
                         "bundleWidth": 1280.0, "bundleHeight": 170.0}
                bundle = runtime.create("Bundle", **attrs)
                trim.create(Resource(pad_root.id), nested,
                            Resource(bundle.id))
                made_bundles.append(bundle.id)
                for name, value in attrs.items():
                    ctx.acked_attr(tenant, "Bundle", bundle.id, name, value)
                for j in range(per_bundle):
                    mark_id, label = ctx.marks.create()
                    pos = Coordinate(float(8 + 96 * (j % 12)),
                                     float(30 + 24 * (j // 12)))
                    scrap = runtime.create("Scrap", scrapName=label,
                                           scrapPos=pos)
                    handle = runtime.create("MarkHandle", markId=mark_id)
                    trim.create(Resource(scrap.id), scrap_mark,
                                Resource(handle.id))
                    trim.create(Resource(bundle.id), content,
                                Resource(scrap.id))
                    ctx.acked_attr(tenant, "Scrap", scrap.id, "scrapName",
                                   label)
                    ctx.acked_attr(tenant, "Scrap", scrap.id, "scrapPos", pos)
                    ctx.acked_attr(tenant, "MarkHandle", handle.id, "markId",
                                   mark_id)
                    ctx.acked_ref(tenant, "Scrap", scrap.id, "scrapMark",
                                  handle.id)
                    ctx.acked_ref(tenant, "Bundle", bundle.id,
                                  "bundleContent", scrap.id)
                    made_scraps.append(scrap.id)
        trim.durability.compact()
        for group in range(tail_groups):
            scrap = made_scraps[(group * 37) % len(made_scraps)]
            name = f"renamed in setup, group {group}"
            runtime.update(runtime.get("Scrap", scrap), "scrapName", name)
            trim.commit()
            ctx.acked_attr(tenant, "Scrap", scrap, "scrapName", name)
        ctx.bundles[tenant] = made_bundles
        ctx.scraps[tenant] = made_scraps
    finally:
        trim.close()


# -- workloads ----------------------------------------------------------------

class Author:
    """One clinician builds a pad from empty over one connection."""

    name = "author"
    tenant = "author"
    #: Actions per 100 in each session's script.  A drop is four writes
    #: and a bundle two, so ops are ~85% writes, ~10% reads, ~5% resolves.
    MIX = (("drop", 33), ("bundle", 2), ("rename", 19), ("move", 16),
           ("read", 20), ("resolve", 10))
    OPS_PER_ACTION = 2.01
    #: The read-back and resolve working set: each session's newest scraps.
    RECENT = 32

    def __init__(self, ops: int, tiny: bool) -> None:
        self.actions = max(8, int(ops / self.OPS_PER_ACTION))
        self.patients = 4 if tiny else 24

    def build(self, ctx: Ctx, root: str) -> None:
        os.makedirs(os.path.join(root, self.tenant), exist_ok=True)

    def tenants(self) -> List[str]:
        return [self.tenant]

    def conn_for(self, tenant: str) -> str:
        """A connection already open on *tenant* after set-up."""
        return "s0"

    def first_open(self, ctx: Ctx, client) -> None:
        reply = client.call(Req("s0", "pad.new", {"name": "rounds"},
                                self.tenant))
        result = ctx.result(reply, "pad.new")
        if result is None:
            raise RuntimeError(f"pad.new failed: {ctx.errors}")
        ctx.bundles[self.tenant] = [result["root"]]
        ctx.scraps[self.tenant] = []

    def sessions(self, ctx: Ctx) -> List[Iterator[Any]]:
        root = ctx.bundles[self.tenant][0]
        return [self._session(ctx, root, random.Random(ctx.seed * 31))]

    def _session(self, ctx: Ctx, root: str, rng: random.Random
                 ) -> Iterator[Any]:
        conn, tenant = "s0", self.tenant
        bundles, scraps = [root], []
        target = root
        script = ["drop"] + shuffled_script(self.MIX, self.actions, rng)
        for step, action in enumerate(script):
            if action == "drop":
                scrap = yield from ctx.drop_scrap(
                    conn, tenant, target,
                    (8.0 * (step % 100), 24.0 * (step % 40)))
                if scrap is not None:
                    scraps.append(scrap)
            elif action == "bundle":
                parent = rng.choice(bundles)
                bundle = yield from ctx.new_bundle(
                    conn, tenant, parent, f"bundle {len(bundles)}",
                    (16.0 * len(bundles), 40.0))
                if bundle is not None:
                    bundles.append(bundle)
                    target = bundle
            elif action == "rename":
                yield from ctx.update(conn, tenant, rng.choice(scraps),
                                      "scrapName", f"note {step}")
            elif action == "move":
                yield from ctx.update(conn, tenant, rng.choice(scraps),
                                      "scrapPos",
                                      coord(rng.randrange(0, 1200, 4),
                                            rng.randrange(0, 900, 4)))
            elif action == "read":
                yield from ctx.read_attr(conn, tenant, "Scrap",
                                         rng.choice(scraps[-self.RECENT:]),
                                         "scrapName")
            else:
                yield from ctx.resolve(conn, tenant,
                                       rng.choice(scraps[-self.RECENT:]))


class Review:
    """Ward rounds over a preloaded pad far larger than the select cache."""

    name = "review"
    tenant = "ward"
    #: Per 100 ops: ~60% reads, ~30% resolves, ~10% writes.
    MIX = (("value", 46), ("view", 6), ("join", 8), ("resolve", 30),
           ("rename", 5), ("move", 5))

    def __init__(self, ops: int, tiny: bool) -> None:
        self.ops = max(10, ops)
        self.bundles, self.per_bundle = (12, 50) if tiny else (200, 50)
        self.patients = 4 if tiny else 24

    def build(self, ctx: Ctx, root: str) -> None:
        build_tenant(ctx, root, self.tenant, self.bundles, self.per_bundle)

    def tenants(self) -> List[str]:
        return [self.tenant]

    def conn_for(self, tenant: str) -> str:
        """A connection already open on *tenant* after set-up."""
        return "s0"

    def first_open(self, ctx: Ctx, client) -> None:
        client.call(Req("s0", "trim.stats", None, self.tenant))

    def sessions(self, ctx: Ctx) -> List[Iterator[Any]]:
        return [self._session(ctx, random.Random(ctx.seed * 31))]

    def _session(self, ctx: Ctx, rng: random.Random) -> Iterator[Any]:
        conn, tenant = "s0", self.tenant
        scraps, bundles = ctx.scraps[tenant], ctx.bundles[tenant]
        scrap_zipf = Zipf(len(scraps), ctx.seed, rng)
        bundle_zipf = Zipf(len(bundles), ctx.seed + 1, rng)
        script = shuffled_script(self.MIX, self.ops, rng)
        for step, action in enumerate(script):
            if action == "value":
                yield from ctx.read_attr(conn, tenant, "Scrap",
                                         scraps[scrap_zipf.pick()],
                                         "scrapName")
            elif action == "view":
                yield from ctx.read_view(conn, tenant,
                                         bundles[bundle_zipf.pick()])
            elif action == "join":
                yield from ctx.read_join(conn, tenant,
                                         bundles[bundle_zipf.pick()])
            elif action == "resolve":
                yield from ctx.resolve(conn, tenant,
                                       scraps[scrap_zipf.pick()])
            else:
                scrap = scraps[scrap_zipf.pick()]
                if action == "rename":
                    yield from ctx.update(conn, tenant, scrap, "scrapName",
                                          f"reviewed {step}")
                else:
                    yield from ctx.update(conn, tenant, scrap, "scrapPos",
                                          coord(rng.randrange(0, 1200, 4),
                                                rng.randrange(0, 900, 4)))


class Reopen:
    """Tenant churn: evict (compacting), cold-open, write, resolve."""

    name = "reopen"
    #: Single-rename commit groups after the snapshot: two delta
    #: segments at ``compact_every=64`` plus an 8-group WAL tail.
    TAIL_GROUPS = 2 * 64 + 8
    WRITES_PER_CYCLE = 32

    def __init__(self, cycles: int, tiny: bool) -> None:
        self.cycles = max(2, cycles)
        self.count = 2 if tiny else 8
        self.bundles, self.per_bundle = (2, 20) if tiny else (10, 50)
        self.patients = 4 if tiny else 24

    def tenants(self) -> List[str]:
        return [f"ward-{t}" for t in range(self.count)]

    def conn_for(self, tenant: str) -> str:
        """A connection already open on *tenant* after set-up."""
        return f"t{self.tenants().index(tenant)}"

    def build(self, ctx: Ctx, root: str) -> None:
        for tenant in self.tenants():
            build_tenant(ctx, root, tenant, self.bundles, self.per_bundle,
                         tail_groups=self.TAIL_GROUPS)

    def first_open(self, ctx: Ctx, client) -> None:
        for index, tenant in enumerate(self.tenants()):
            client.call(Req(f"t{index}", "trim.stats", None, tenant))
        client.call(Req("ctl", "admin.stats"))

    def sessions(self, ctx: Ctx) -> List[Iterator[Any]]:
        return [self._session(ctx, random.Random(ctx.seed * 31))]

    def _session(self, ctx: Ctx, rng: random.Random) -> Iterator[Any]:
        tenants = self.tenants()
        for cycle in range(self.cycles):
            index = cycle % len(tenants)
            tenant, conn = tenants[index], f"t{index}"
            yield Close(conn)
            for _attempt in range(1000):
                reply = yield Req("ctl", "admin.evict", {"force": True})
                result = ctx.result(reply, "admin.evict")
                if result is not None and tenant in result["evicted"]:
                    break
                # The server has not yet seen the close: ask again.
                ctx.evict_retries += 1
            else:
                ctx.recorder.mismatch(f"{tenant} was never evicted")
            scraps = ctx.scraps[tenant]
            yield from ctx.read_attr(conn, tenant, "Scrap",
                                     rng.choice(scraps), "scrapName")
            # Thirty-two writes: 24 renames and 8 moves.  The fsyncs right
            # after the eviction's compaction are slow (~1 ms against
            # ~0.3 ms) for 30-65% of the first eight writes and fade out
            # by the twelfth, depending on the host's disk.  With 8 or 16
            # writes (or with scrap drops, whose creates are slow too)
            # the median sat on the edge of the fast writes and spread
            # 16-47% between runs.
            for edit in range(self.WRITES_PER_CYCLE):
                scrap = rng.choice(scraps)
                if edit % 4 == 3:
                    yield from ctx.update(conn, tenant, scrap, "scrapPos",
                                          coord(rng.randrange(0, 1200, 4),
                                                rng.randrange(0, 900, 4)))
                else:
                    yield from ctx.update(conn, tenant, scrap, "scrapName",
                                          f"cycle {cycle} edit {edit}")
            yield from ctx.resolve(conn, tenant, rng.choice(scraps))
            reply = yield Req(conn, "trim.stats", None, tenant)
            result = ctx.result(reply, "trim.stats")
            if result is not None:
                ctx.cycle_stats.append(result)


#: Nominal script rates (ops or cycles per requested second), calibrated
#: once on a 2-vCPU VM so a full-size run's timed phase lasts about
#: ``--seconds``.  Fixed, so every run of a workload does the same work.
OPS_PER_SECOND = {"author": 1100, "review": 1100, "reopen": 10}
WORKLOADS = {"author": Author, "review": Review, "reopen": Reopen}


def make(workload: str, seconds: int, tiny: bool):
    """The workload object for one run; script lengths scale with
    *seconds* by a fixed nominal rate, never with measured speed."""
    return WORKLOADS[workload](round(OPS_PER_SECOND[workload] * seconds),
                               tiny)
