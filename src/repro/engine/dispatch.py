"""Shared backend-selection scaffolding and fallback dispatch.

Three facades expose the same execution seam — a ``backend`` switch taking
``"reference"`` / ``"vectorized"`` / ``"auto"``, fixed when the facade is
constructed — and before this module each carried its own copy of the
scaffolding behind it: validating the switch, lazily building and caching
the vectorized engine, and implementing the fallback rule (``"auto"``
silently falls back to the reference path when the vectorized engine
rejects a run, ``"vectorized"`` surfaces the error).
:class:`BackendDispatcher` is that scaffolding, written once:

* :class:`repro.core.session.TestSession` (power measurement),
* :class:`repro.faults.FaultSimulator` (fault campaigns),
* :class:`repro.bist.BistController` (BIST power campaigns)

each own one dispatcher instance, and every facade's public backend
constant (``BACKENDS`` / ``FAULT_BACKENDS`` / ``POWER_BACKENDS``) is
:data:`BACKEND_CHOICES`.

This module is deliberately NumPy-free: :class:`EngineError` lives here
(re-exported by :mod:`repro.engine.vectorized`, which subclasses it) so the
scalar layers and the orchestrator can name the engine's failure mode
without importing any vectorized code.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple, TypeVar


class EngineError(Exception):
    """Raised on invalid engine usage (missing numpy, bad arguments).

    The base failure mode of every vectorized engine;
    :class:`repro.engine.UnsupportedConfiguration` and
    :class:`repro.engine.UnsupportedFaultCampaign` subclass it.  Defined
    here (not in :mod:`repro.engine.vectorized`) so catching it never
    requires numpy.
    """


#: The backend switch values every facade accepts.
BACKEND_CHOICES: Tuple[str, ...] = ("reference", "vectorized", "auto")


_T = TypeVar("_T")


class BackendDispatcher:
    """One facade's backend-selection state and fallback rule.

    Owns the lazily-built, cached vectorized engine (``factory`` builds it
    on first use; construction typically imports numpy, which is why it is
    deferred) and implements the shared dispatch contract of the
    ``backend`` switch:

    * ``"reference"`` — never touch the vectorized engine;
    * ``"vectorized"`` — run the vectorized call and surface its errors;
    * ``"auto"`` — run the vectorized call, and on a *fallback exception*
      (by default :class:`EngineError`) silently run the reference call
      instead.

    ``error`` is the facade's own exception class, raised by
    :meth:`validate` with the uniform unknown-backend message every facade
    used to spell by hand.
    """

    def __init__(self, factory: Callable[[], object],
                 error: type = ValueError) -> None:
        self._factory = factory
        self._error = error
        self._engine: Optional[object] = None
        # Provenance is per-thread: under a concurrent worker pool (the
        # serving layer shares one facade across executor threads), a
        # facade-global attribute would let one request's fallback
        # mis-attribute another request's backend.
        self._provenance = threading.local()

    # ------------------------------------------------------------------
    @property
    def last_backend_used(self) -> Optional[str]:
        """Backend that ran this thread's most recent call, or ``None``.

        Thread-local by design: each worker thread observes only the
        provenance of runs it executed itself.
        """
        return getattr(self._provenance, "backend_used", None)

    def note_backend_used(self, backend: Optional[str]) -> None:
        """Record which backend actually ran, for the calling thread."""
        self._provenance.backend_used = backend

    def validate(self, backend: str) -> str:
        """Return ``backend`` unchanged, or raise the facade's error."""
        if backend not in BACKEND_CHOICES:
            raise self._error(
                f"unknown backend {backend!r}; "
                f"expected one of {BACKEND_CHOICES}")
        return backend

    @property
    def engine(self) -> object:
        """The cached vectorized engine, built by the factory on first use."""
        if self._engine is None:
            self._engine = self._factory()
        return self._engine

    @property
    def engine_built(self) -> bool:
        """True when the vectorized engine has been constructed and cached."""
        return self._engine is not None

    def invalidate(self) -> None:
        """Drop the cached vectorized engine (rebuilt on next use)."""
        self._engine = None

    # ------------------------------------------------------------------
    def call(self, chosen: str, *,
             vectorized: Callable[[object], _T],
             reference: Callable[[], _T],
             fallback: Tuple[type, ...] = (EngineError,),
             invalidate_on_fallback: bool = False) -> _T:
        """Dispatch one operation through the fallback rule.

        ``vectorized`` receives the cached engine; ``reference`` takes no
        arguments.  A ``fallback`` exception from the vectorized call is
        re-raised when ``chosen == "vectorized"`` and swallowed (running
        ``reference`` instead) when ``chosen == "auto"``;
        ``invalidate_on_fallback`` additionally drops the cached engine
        before falling back, for facades whose engine must not survive a
        failed run.
        """
        chosen = self.validate(chosen)
        if chosen != "reference":
            try:
                return vectorized(self.engine)
            except fallback:
                if chosen == "vectorized":
                    raise
                if invalidate_on_fallback:
                    self.invalidate()
        return reference()
