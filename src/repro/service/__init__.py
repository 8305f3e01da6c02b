"""TRIM-as-a-service: the asyncio multi-tenant network front end.

Everything below this package exposes the in-process stack — TRIM,
the DMI runtime, and SLIMPad's bundle/scrap model — over a wire
protocol, so many clients on many machines can share one long-lived
superimposed-information store instead of each embedding the library
(DESIGN.md §15):

- :mod:`repro.service.protocol` — the newline-delimited JSON envelope
  format: versioned request/response frames, request ids, typed error
  frames, and the tagged node codec shared with the replay bundles.
- :mod:`repro.service.registry` — :class:`~repro.service.registry.PadRegistry`,
  which multiplexes named tenants: one durable
  :class:`~repro.triples.trim.TrimManager` (snapshot + WAL directory)
  per tenant, lazily opened, reference-counted, and closed when idle;
  plus the per-tenant write coalescer that funnels concurrent mutations
  into the existing group-commit path.
- :mod:`repro.service.server` — :class:`~repro.service.server.TrimService`,
  the asyncio TCP accept loop with admission control (bounded inflight
  queues, ``RETRY_AFTER`` error frames) and graceful drain on shutdown.
- :mod:`repro.service.client` — :class:`~repro.service.client.ServiceClient`,
  a small blocking-socket client library mirroring the operation surface.
"""

from repro.service.client import ServiceClient
from repro.service.registry import PadRegistry
from repro.service.server import TrimService

__all__ = ["PadRegistry", "ServiceClient", "TrimService"]
