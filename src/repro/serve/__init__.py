"""Campaign serving layer: cache, coalesce, execute, trace.

* :mod:`repro.serve.service` — :class:`CampaignService`, the asyncio
  HTTP front with the worker-pool executor, request coalescing and the
  content-addressed result cache;
* :mod:`repro.serve.cache` — :class:`ResultCache`, the digest-addressed
  on-disk record store;
* :mod:`repro.serve.trace` — the replayable JSONL workload trace;
* :mod:`repro.serve.client` — :class:`ServeClient` and the ordered
  concurrent :func:`~repro.serve.client.replay` helper;
* :mod:`repro.serve.__main__` — the ``python -m repro.serve`` command.

Quickstart::

    from repro.serve import CampaignService, ServeClient, running_service

    with running_service("cache-dir", trace_path="trace.jsonl") \\
            as (service, host, port):
        with ServeClient(host, port) as client:
            first = client.submit({"kind": "prr", "rows": 16,
                                   "columns": 64, "algorithm": "MATS+"})
            again = client.submit({"kind": "prr", "rows": 16,
                                   "columns": 64, "algorithm": "MATS+"})
    assert again["served"]["outcome"] == "hit"
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "CACHE_FORMAT": ".cache",
    "CACHE_VERSION": ".cache",
    "CampaignService": ".service",
    "DEFAULT_PORT": ".service",
    "ResultCache": ".cache",
    "ServeClient": ".client",
    "ServeError": ".service",
    "ServiceThread": ".service",
    "TRACE_FORMAT": ".trace",
    "TRACE_VERSION": ".trace",
    "TraceError": ".trace",
    "WorkloadTrace": ".trace",
    "load_trace": ".trace",
    "replay": ".client",
    "replay_cases": ".trace",
    "running_service": ".service",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
