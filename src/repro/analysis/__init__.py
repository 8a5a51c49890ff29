"""Experiment support: circuit fixtures and table rendering."""

from .._lazy import lazy_exports

#: The submodule that defines each exported name, imported on first access.
_EXPORTS = {
    "FixtureDescription": ".fixtures",
    "bitline_discharge_fixture": ".fixtures",
    "faulty_swap_fixture": ".fixtures",
    "res_fight_fixture": ".fixtures",
    "selected_column_cycle_fixture": ".fixtures",
    "coverage_table": ".tables",
    "format_energy": ".tables",
    "format_percent": ".tables",
    "format_power": ".tables",
    "prr_table": ".tables",
    "render_table": ".tables",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
