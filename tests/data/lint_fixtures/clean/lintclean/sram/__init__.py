"""A lazy-export package whose hooks come from the shared helper."""

from .._lazy import lazy_exports

_EXPORTS = {"ArrayGeometry": ".geometry", "SRAM": ".memory"}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
