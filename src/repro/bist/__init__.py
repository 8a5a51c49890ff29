"""Memory BIST substrate.

A small built-in self-test engine that drives the March algorithms against
the behavioural SRAM exactly the way an on-chip BIST controller would: an
address generator restricted to hardware-friendly orders, a response
comparator, and a controller FSM that owns the ``LPtest`` mode signal and
the per-cycle pre-charge planning.  The BIST layer is how a user of this
library would actually deploy the paper's low-power test mode.

Power measurement is backend-pluggable (:mod:`repro.bist.backend`): the
controller runs either on the cycle-accurate behavioural memory
(``backend="reference"``) or on the vectorized power-campaign engine of
:mod:`repro.engine.power_campaign` (``backend="vectorized"``/``"auto"``),
which makes the paper-scale measured Table 1 interactive.
"""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "AddressGenerator": ".address_generator",
    "BistOrder": ".address_generator",
    "Comparator": ".comparator",
    "ComparatorLog": ".comparator",
    "BistController": ".controller",
    "BistResult": ".controller",
    "BistError": ".controller",
    "POWER_BACKENDS": ".backend",
    "PowerBackend": ".backend",
    "ReferencePowerBackend": ".backend",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
