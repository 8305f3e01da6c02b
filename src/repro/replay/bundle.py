"""The replay bundle: a versioned, schema-validated failure capsule.

A *bundle* is one JSON document holding everything needed to re-execute
a TRIM session — the operation stream (adds/removes with their global
insertion sequences, commit boundaries), the injected crash point (a
WAL byte offset), the store configuration, the
workload seeds, and thread-interleaving hints — plus the digest of the
state the original run recovered to.  A failure seen once in a crash
matrix or a race sweep becomes a file that replays exactly, anywhere.

Schema discipline is the point: :func:`validate_bundle` rejects unknown
versions, unknown operation kinds, and oversized payloads *before*
anything executes, so a bundle from a newer (or corrupted) harness fails
loudly instead of replaying something subtly different.  String payloads
are bounded (:data:`MAX_TEXT`) and the free-form ``meta`` block is
recursively redacted (:func:`redact`) so bundles are safe to attach to
bug reports.

Format (version :data:`BUNDLE_VERSION`)::

    {"version": 1, "kind": "trim-replay",
     "config": {"compact_every": 64, "fsync": false},
     "seeds": {"workload": 2001},
     "interleave": ["writer-0: commit", ...],       # hints, not a schedule
     "ops": [{"op": "add", "s": ..., "p": ..., "v": ["l","integer",3],
              "seq": 0},
             {"op": "commit"},
             {"op": "kill", "offset": 142}],
     "outcome": {"digest": "<sha256>", "triples": 12},
     "meta": {...}}

Node values are tagged — ``["r", uri]`` for resources, ``["l", type,
value]`` for literals — because JSON alone cannot tell ``Literal(3)``
from ``Literal(3.0)`` from ``Literal(True)``, and node identity is part
of store equality (see :mod:`repro.triples.triple`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import BundleError
from repro.triples.triple import Literal, Node, Resource, Triple

#: Current bundle format version; bumped on any incompatible change.
BUNDLE_VERSION = 1

#: The bundle ``kind`` tag this harness produces and accepts.
BUNDLE_KIND = "trim-replay"

#: Hard caps a valid bundle must respect — bounded payloads by schema,
#: not by reviewer vigilance.
MAX_OPS = 50_000
MAX_TEXT = 4_096
MAX_INTERLEAVE = 512
MAX_SEEDS = 64

#: Operation kinds a version-1 bundle may contain.
OP_KINDS = ("add", "remove", "commit", "kill")

#: Why a bundle captured on a sharded store (``config.shards`` > 1, or a
#: ``crash`` op, which killed its two-phase commit) is refused.
_SHARDED_REFUSAL = ("sharded bundles are no longer replayable: this "
                    "harness replays single-store sessions only")

#: Bundles captured before WAL auto-grouping was removed may carry
#: ``config.commit_every: null``; a non-null value recorded group
#: boundaries this harness can no longer reproduce.
_COMMIT_EVERY_REFUSAL = ("commit_every auto-commit is no longer "
                         "supported: replaying this bundle would "
                         "silently change its WAL group boundaries")

#: ``meta`` keys whose values are always replaced by this marker.
REDACTED = "<redacted>"
_SENSITIVE = ("token", "password", "secret", "api_key", "auth")


# -- node / op encoding -------------------------------------------------------

def encode_node(node: Node) -> List[Any]:
    """One triple slot as a JSON-safe tagged array."""
    if isinstance(node, Resource):
        return ["r", node.uri]
    return ["l", node.type_name, node.value]


def decode_node(payload: Any) -> Node:
    """Inverse of :func:`encode_node`; raises :class:`BundleError`."""
    if not isinstance(payload, list) or not payload:
        raise BundleError(f"malformed node payload: {payload!r}")
    tag = payload[0]
    if tag == "r":
        if len(payload) != 2 or not isinstance(payload[1], str):
            raise BundleError(f"malformed resource node: {payload!r}")
        return Resource(payload[1])
    if tag == "l":
        if len(payload) != 3:
            raise BundleError(f"malformed literal node: {payload!r}")
        type_name, value = payload[1], payload[2]
        coerce = {"string": str, "integer": int, "float": float,
                  "boolean": bool}.get(type_name)
        if coerce is None:
            raise BundleError(f"unknown literal type {type_name!r}")
        if type_name == "string" and not isinstance(value, str):
            raise BundleError(f"literal type/value mismatch: {payload!r}")
        if type_name != "string" and isinstance(value, str):
            raise BundleError(f"literal type/value mismatch: {payload!r}")
        return Literal(coerce(value))
    raise BundleError(f"unknown node tag {tag!r}")


def encode_change(action: str, statement: Triple, sequence: int) -> Dict[str, Any]:
    """An ``add``/``remove`` op from one store change-listener event."""
    return {"op": action, "s": statement.subject.uri,
            "p": statement.property.uri,
            "v": encode_node(statement.value), "seq": sequence}


def decode_change(op: Dict[str, Any]) -> Tuple[str, Triple, int]:
    """Inverse of :func:`encode_change` -> ``(action, triple, sequence)``."""
    statement = Triple(Resource(op["s"]), Resource(op["p"]),
                       decode_node(op["v"]))
    return op["op"], statement, op["seq"]


# -- redaction ----------------------------------------------------------------

def redact(value: Any) -> Any:
    """Recursively replace secret-looking ``meta`` values.

    Any dict key containing one of the usual credential substrings
    (token/password/secret/api_key/auth) has its whole value replaced
    with :data:`REDACTED`; everything else passes through structurally
    unchanged.
    """
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            lowered = str(key).lower()
            if any(marker in lowered for marker in _SENSITIVE):
                out[key] = REDACTED
            else:
                out[key] = redact(item)
        return out
    if isinstance(value, list):
        return [redact(item) for item in value]
    return value


# -- validation ---------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleError(message)


def _check_text(value: Any, where: str) -> None:
    _require(isinstance(value, str), f"{where}: expected string, "
             f"got {type(value).__name__}")
    _require(len(value) <= MAX_TEXT,
             f"{where}: string of {len(value)} chars exceeds the "
             f"{MAX_TEXT}-char payload bound")


def _check_node(payload: Any, where: str) -> None:
    node = decode_node(payload)  # raises BundleError on malformed shapes
    if isinstance(node, Resource):
        _check_text(node.uri, where)
    elif isinstance(node.value, str):
        _check_text(node.value, where)


def _check_op(op: Any, index: int) -> None:
    where = f"ops[{index}]"
    _require(isinstance(op, dict), f"{where}: expected object")
    kind = op.get("op")
    _require(kind != "crash", f"{where}: {_SHARDED_REFUSAL}")
    _require(kind in OP_KINDS,
             f"{where}: unknown op kind {kind!r} (valid: {OP_KINDS})")
    if kind in ("add", "remove"):
        for field in ("s", "p", "v", "seq"):
            _require(field in op, f"{where}: missing field {field!r}")
        _check_text(op["s"], f"{where}.s")
        _check_text(op["p"], f"{where}.p")
        _check_node(op["v"], f"{where}.v")
        _require(isinstance(op["seq"], int) and not isinstance(op["seq"], bool)
                 and op["seq"] >= 0, f"{where}.seq: expected int >= 0")
    elif kind == "kill":
        offset = op.get("offset")
        _require(isinstance(offset, int) and not isinstance(offset, bool)
                 and offset >= 0, f"{where}.offset: expected int >= 0")


def validate_bundle(bundle: Any) -> Dict[str, Any]:
    """Validate one decoded bundle document; return it on success.

    Raises :class:`~repro.errors.BundleError` naming the first violation:
    wrong version/kind, structural mismatches, unknown op kinds, caps
    exceeded, a ``kill`` op that is not last, or a bundle captured on a
    sharded store.
    """
    _require(isinstance(bundle, dict), "bundle must be a JSON object")
    _require(bundle.get("version") == BUNDLE_VERSION,
             f"unsupported bundle version {bundle.get('version')!r} "
             f"(this harness reads version {BUNDLE_VERSION})")
    _require(bundle.get("kind") == BUNDLE_KIND,
             f"unsupported bundle kind {bundle.get('kind')!r}")

    config = bundle.get("config")
    _require(isinstance(config, dict), "config must be an object")
    _require(config.get("shards", 1) == 1, f"config: {_SHARDED_REFUSAL}")
    compact_every = config.get("compact_every", 64)
    _require(isinstance(compact_every, int) and compact_every >= 1,
             "config.compact_every must be an int >= 1")
    _require(config.get("commit_every") is None,
             f"config: {_COMMIT_EVERY_REFUSAL}")
    _require(isinstance(config.get("fsync", False), bool),
             "config.fsync must be a bool")

    seeds = bundle.get("seeds", {})
    _require(isinstance(seeds, dict) and len(seeds) <= MAX_SEEDS,
             f"seeds must be an object of at most {MAX_SEEDS} entries")
    for key, value in seeds.items():
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"seeds[{key!r}] must be an int")

    interleave = bundle.get("interleave", [])
    _require(isinstance(interleave, list)
             and len(interleave) <= MAX_INTERLEAVE,
             f"interleave must be a list of at most {MAX_INTERLEAVE} hints")
    for i, hint in enumerate(interleave):
        _check_text(hint, f"interleave[{i}]")

    ops = bundle.get("ops")
    _require(isinstance(ops, list), "ops must be a list")
    _require(len(ops) <= MAX_OPS,
             f"ops: {len(ops)} operations exceed the {MAX_OPS}-op bound")
    for index, op in enumerate(ops):
        _check_op(op, index)
        if op["op"] == "kill":
            _require(index == len(ops) - 1,
                     f"ops[{index}]: a {op['op']!r} op terminates the "
                     f"session and must be the final op")

    outcome = bundle.get("outcome")
    if outcome is not None:
        _require(isinstance(outcome, dict), "outcome must be an object")
        digest = outcome.get("digest")
        _require(isinstance(digest, str) and len(digest) == 64,
                 "outcome.digest must be a 64-char sha256 hex digest")
        triples = outcome.get("triples")
        _require(isinstance(triples, int) and triples >= 0,
                 "outcome.triples must be an int >= 0")
    return bundle


# -- (de)serialization --------------------------------------------------------

def dumps(bundle: Dict[str, Any]) -> str:
    """Validate and serialize one bundle to canonical (sorted-key) JSON."""
    validate_bundle(bundle)
    return json.dumps(bundle, indent=2, sort_keys=True) + "\n"


def loads(text: Union[str, bytes]) -> Dict[str, Any]:
    """Parse and validate one bundle document."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleError(f"bundle is not valid JSON: {exc}") from exc
    return validate_bundle(payload)


def save(bundle: Dict[str, Any], path: str) -> None:
    """Validate and write one bundle to *path*."""
    text = dumps(bundle)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load(path: str) -> Dict[str, Any]:
    """Read and validate the bundle at *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def make_bundle(config: Dict[str, Any], ops: List[Dict[str, Any]],
                seeds: Optional[Dict[str, int]] = None,
                interleave: Optional[List[str]] = None,
                outcome: Optional[Dict[str, Any]] = None,
                meta: Optional[Dict[str, Any]] = None,
                captured_at: Optional[str] = None) -> Dict[str, Any]:
    """Assemble (and validate) a bundle document from its parts.

    ``meta`` is redacted here — a bundle never stores raw credential
    values no matter what the capturing harness passed in.
    """
    bundle: Dict[str, Any] = {
        "version": BUNDLE_VERSION,
        "kind": BUNDLE_KIND,
        "config": dict(config),
        "seeds": dict(seeds or {}),
        "interleave": list(interleave or []),
        "ops": list(ops),
        "outcome": dict(outcome) if outcome is not None else None,
        "meta": redact(dict(meta or {})),
    }
    if captured_at is not None:
        bundle["captured_at"] = captured_at
    return validate_bundle(bundle)
