"""The shared backend dispatch seam (repro.engine.dispatch).

Covers the shared backend choices (every facade's ``backend`` switch
accepts :data:`BACKEND_CHOICES`), the :class:`BackendDispatcher` fallback
contract the facades delegate to, and the numpy-independence of the
dispatch layer (importing it must not load the vectorized engine modules).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.bist import POWER_BACKENDS, BistController
from repro.bist.controller import BistError
from repro.core.session import BACKENDS, SessionError, TestSession
from repro.core.lowpower import FunctionalModePlanner
from repro.engine.dispatch import BACKEND_CHOICES, BackendDispatcher, EngineError
from repro.faults import FAULT_BACKENDS, FaultSimulator
from repro.faults.simulator import FaultSimulationError
from repro.sram.geometry import ArrayGeometry


# ----------------------------------------------------------------------
# Shared backend choices
# ----------------------------------------------------------------------
def test_facade_backend_constants_are_the_shared_choices():
    assert BACKENDS == FAULT_BACKENDS == POWER_BACKENDS == BACKEND_CHOICES


# ----------------------------------------------------------------------
# BackendDispatcher
# ----------------------------------------------------------------------
class _StubError(Exception):
    pass


def _dispatcher(factory, error=_StubError):
    return BackendDispatcher(factory, error=error)


def test_dispatcher_engine_is_lazy_and_cached():
    builds = []
    dispatcher = _dispatcher(lambda: builds.append(1) or "engine")
    assert not dispatcher.engine_built
    assert not builds  # nothing built before first use
    assert dispatcher.engine == "engine"
    assert dispatcher.engine == "engine"
    assert builds == [1]  # one build, then cached
    dispatcher.invalidate()
    assert dispatcher.engine == "engine"
    assert builds == [1, 1]


def test_dispatcher_validate_raises_the_facade_error():
    dispatcher = _dispatcher(lambda: "engine")
    assert dispatcher.validate("auto") == "auto"
    with pytest.raises(_StubError, match="unknown backend 'bogus'"):
        dispatcher.validate("bogus")


def test_dispatcher_reference_never_builds_the_engine():
    dispatcher = _dispatcher(lambda: pytest.fail("must not build"))
    result = dispatcher.call("reference",
                             vectorized=lambda engine: "vectorized",
                             reference=lambda: "reference")
    assert result == "reference"


def test_dispatcher_auto_falls_back_on_engine_error():
    dispatcher = _dispatcher(lambda: "engine")

    def failing(engine):
        raise EngineError("unsupported")

    assert dispatcher.call("auto", vectorized=failing,
                           reference=lambda: "fallback") == "fallback"
    with pytest.raises(EngineError):
        dispatcher.call("vectorized", vectorized=failing,
                        reference=lambda: "fallback")


def test_dispatcher_invalidate_on_fallback_drops_the_engine():
    builds = []
    dispatcher = _dispatcher(lambda: builds.append(1) or "engine")

    def failing(engine):
        raise EngineError("unsupported")

    dispatcher.call("auto", vectorized=failing, reference=lambda: None,
                    invalidate_on_fallback=True)
    assert not dispatcher.engine_built
    dispatcher.call("auto", vectorized=lambda engine: "ok",
                    reference=lambda: None)
    assert builds == [1, 1]  # rebuilt after the invalidating fallback


def test_dispatcher_other_exceptions_propagate_even_on_auto():
    dispatcher = _dispatcher(lambda: "engine")

    def broken(engine):
        raise RuntimeError("a real bug, not an engine rejection")

    with pytest.raises(RuntimeError):
        dispatcher.call("auto", vectorized=broken, reference=lambda: None)


# ----------------------------------------------------------------------
# Facade integration: each facade raises its own error type
# ----------------------------------------------------------------------
def test_facades_validate_backend_with_their_own_error():
    geometry = ArrayGeometry(4, 4)
    with pytest.raises(SessionError, match="unknown backend"):
        TestSession(geometry, backend="bogus")
    with pytest.raises(FaultSimulationError, match="unknown backend"):
        FaultSimulator(geometry, backend="bogus")
    with pytest.raises(BistError, match="unknown backend"):
        BistController(geometry, backend="bogus")


def test_session_reports_last_backend_used():
    geometry = ArrayGeometry(4, 16)
    session = TestSession(geometry, backend="auto")
    assert session.last_backend_used is None
    from repro.march import get_algorithm
    from repro.sram.memory import OperatingMode

    session.run(get_algorithm("MATS+"), OperatingMode.FUNCTIONAL)
    assert session.last_backend_used == "vectorized"
    # A custom planner forces the reference engine on an "auto" session.
    session.run(get_algorithm("MATS+"), OperatingMode.FUNCTIONAL,
                planner=FunctionalModePlanner())
    assert session.last_backend_used == "reference"


def test_last_backend_used_is_thread_local():
    # One facade shared by a worker pool: each thread's run must see its
    # own provenance, not whichever run happened to finish last globally.
    import threading

    from repro.march import get_algorithm
    from repro.sram.memory import OperatingMode

    geometry = ArrayGeometry(4, 16)
    session = TestSession(geometry, backend="auto")
    algorithm = get_algorithm("MATS+")
    session.run(algorithm, OperatingMode.FUNCTIONAL)
    assert session.last_backend_used == "vectorized"

    seen = {}

    def probe():
        seen["before"] = session.last_backend_used  # fresh thread: unset
        session.run(algorithm, OperatingMode.FUNCTIONAL,
                    planner=FunctionalModePlanner())  # runs on reference
        seen["after"] = session.last_backend_used

    worker = threading.Thread(target=probe)
    worker.start()
    worker.join()
    assert seen == {"before": None, "after": "reference"}
    # ...and the worker's run did not clobber the main thread's view.
    assert session.last_backend_used == "vectorized"


def test_facade_provenance_is_thread_local_everywhere():
    # BistController and FaultSimulator carry the same per-thread seam.
    import threading

    geometry = ArrayGeometry(4, 16)
    controller = BistController(geometry, backend="vectorized")
    simulator = FaultSimulator(geometry, backend="reference")
    assert controller.last_backend_used is None
    assert simulator.last_backend_used is None
    controller.last_backend_used = "vectorized"
    simulator.last_backend_used = "reference"

    observed = {}

    def probe():
        observed["controller"] = controller.last_backend_used
        observed["simulator"] = simulator.last_backend_used

    worker = threading.Thread(target=probe)
    worker.start()
    worker.join()
    assert observed == {"controller": None, "simulator": None}
    assert controller.last_backend_used == "vectorized"
    assert simulator.last_backend_used == "reference"


# ----------------------------------------------------------------------
# numpy independence of the dispatch layer
# ----------------------------------------------------------------------
def test_dispatch_imports_without_loading_vectorized_modules():
    """Catching EngineError / reading the choices must not need numpy."""
    code = (
        "import sys\n"
        "from repro.engine import BACKEND_CHOICES, EngineError\n"
        "from repro.engine.dispatch import BackendDispatcher\n"
        "import repro.sweep.journal\n"
        "loaded = [m for m in sys.modules\n"
        "          if m in ('numpy', 'repro.engine.vectorized',\n"
        "                   'repro.engine.fault_campaign',\n"
        "                   'repro.engine.power_campaign')]\n"
        "assert not loaded, f'eagerly loaded: {loaded}'\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
