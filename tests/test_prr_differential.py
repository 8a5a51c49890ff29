"""Measured-vs-analytical PRR differential suite (the paper's Table 1 claims).

Three layers of pinning, across the *whole* algorithm library:

* **backend equivalence** — the vectorized BIST power campaign must measure
  what the cycle-accurate behavioural memory measures: per-source energy
  totals up to floating-point summation order, identical cycle counts,
  pass/fail verdicts and comparator logs (the latter exercised through the
  backends directly with deliberately inconsistent March strings, since
  every validated algorithm passes on a fault-free memory by construction);
* **analytical agreement** — the measured PRR must track the Section 5
  closed-form model: within the reconciliation tolerance of the extended
  variant on bit-oriented arrays, and always inside the analytical bracket
  ``[extended, paper equation]`` (the extended variant keeps the secondary
  overheads and the next-column recharge term the paper's equation omits);
* **campaign records** — :func:`repro.sweep.run_prr_case` must report the
  same bracket verdicts and planner/backend attribution the controller
  produced.
"""

from __future__ import annotations

import pytest

from repro.bist import BistController, BistError, POWER_BACKENDS
from repro.bist.backend import ReferencePowerBackend
from repro.core.prr import AnalyticalPowerModel
from repro.engine import VectorizedPowerCampaign
from repro.march.library import PAPER_TABLE1_ALGORITHMS, all_algorithms
from repro.march.ordering import RowMajorOrder
from repro.march.parser import parse_march
from repro.sram import ArrayGeometry, checkerboard_background
from repro.sweep import PRR_BRACKET_SLACK, PrrCase, run_prr_case

from differential import REL_TOL, assert_bist_equivalent, measured_prr

#: Reconciliation tolerance (PRR fraction) between the measured PRR and the
#: extended analytical variant on bit-oriented arrays — the same two
#: percentage points the paper-scale bench holds Table 1 to.
ANALYTICAL_TOLERANCE = 0.02

EQUIVALENCE_GEOMETRY = ArrayGeometry(rows=8, columns=32)

DIFFERENTIAL_GEOMETRIES = (
    ArrayGeometry(rows=8, columns=64),
    ArrayGeometry(rows=16, columns=128),
    ArrayGeometry(rows=8, columns=32, bits_per_word=2),
)

LIBRARY_IDS = [algorithm.name for algorithm in all_algorithms()]


# ----------------------------------------------------------------------
# Backend equivalence on the whole library
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("algorithm", all_algorithms(), ids=LIBRARY_IDS)
    @pytest.mark.parametrize("low_power", [False, True],
                             ids=["functional", "low-power"])
    def test_energy_and_verdict_match_reference(self, algorithm, low_power):
        reference = BistController(EQUIVALENCE_GEOMETRY).run(
            algorithm, low_power=low_power)
        vectorized = BistController(EQUIVALENCE_GEOMETRY,
                                    backend="vectorized").run(
            algorithm, low_power=low_power)
        label = f"{algorithm.name}/{'lpt' if low_power else 'functional'}"
        assert_bist_equivalent(reference, vectorized, label)
        assert reference.backend == "reference"
        assert vectorized.backend == "vectorized"

    def test_measured_prr_identical_across_backends(self):
        for algorithm in PAPER_TABLE1_ALGORITHMS:
            reference = measured_prr(
                BistController(EQUIVALENCE_GEOMETRY, backend="reference"),
                algorithm)
            vectorized = measured_prr(
                BistController(EQUIVALENCE_GEOMETRY, backend="vectorized"),
                algorithm)
            assert vectorized == pytest.approx(reference, rel=REL_TOL), \
                algorithm.name

    def test_last_backend_used_reports_the_engine(self):
        controller = BistController(EQUIVALENCE_GEOMETRY, backend="auto")
        assert controller.last_backend_used is None
        result = controller.run(PAPER_TABLE1_ALGORITHMS[0])
        assert result.backend == controller.last_backend_used == "vectorized"
        # A custom memory forces the reference engine on an "auto" controller.
        result = controller.run(PAPER_TABLE1_ALGORITHMS[0],
                                memory=controller.build_memory(low_power=True))
        assert result.backend == controller.last_backend_used == "reference"

    def test_vectorized_rejects_custom_memory(self):
        controller = BistController(EQUIVALENCE_GEOMETRY, backend="vectorized")
        memory = controller.build_memory(low_power=True)
        with pytest.raises(BistError):
            controller.run(PAPER_TABLE1_ALGORITHMS[0], memory=memory)

    def test_auto_runs_custom_memory_on_reference_path(self):
        controller = BistController(EQUIVALENCE_GEOMETRY, backend="auto")
        memory = controller.build_memory(low_power=True)
        result = controller.run(PAPER_TABLE1_ALGORITHMS[0], memory=memory)
        assert result.passed
        assert result.backend == controller.last_backend_used == "reference"
        assert memory.cycle == result.cycles  # the supplied memory really ran

    def test_comparator_stays_coherent_across_backends(self):
        """The public comparator always reflects the most recent run."""
        controller = BistController(EQUIVALENCE_GEOMETRY, backend="vectorized")
        controller.comparator.check(cycle=0, row=0, word=0,
                                    expected=0, observed=1)  # stale failure
        result = controller.run(PAPER_TABLE1_ALGORITHMS[0])
        assert result.passed
        assert controller.comparator.passed
        assert controller.comparator.log == []

    def test_reconfigured_generator_is_followed(self):
        """Replacing the address generator must change what actually runs."""
        from repro.bist import AddressGenerator, BistOrder

        controller = BistController(EQUIVALENCE_GEOMETRY, backend="vectorized")
        wordline = controller.run(PAPER_TABLE1_ALGORITHMS[0], low_power=False)
        controller.address_generator = AddressGenerator(
            EQUIVALENCE_GEOMETRY, BistOrder.FAST_ROW)
        with pytest.raises(BistError):
            controller.run(PAPER_TABLE1_ALGORITHMS[0], low_power=True)
        fast_row = controller.run(PAPER_TABLE1_ALGORITHMS[0], low_power=False)
        # Fast-row functional runs recharge the word line on every access,
        # so the measured energy must rise if the new order really ran.
        assert fast_row.total_energy > wordline.total_energy

    def test_unknown_backend_rejected(self):
        with pytest.raises(BistError):
            BistController(EQUIVALENCE_GEOMETRY, backend="warp-drive")

    def test_auto_falls_back_when_numpy_unavailable(self, monkeypatch):
        import repro.engine.vectorized as vectorized

        monkeypatch.setattr(vectorized, "np", None)
        controller = BistController(EQUIVALENCE_GEOMETRY, backend="auto")
        result = controller.run(PAPER_TABLE1_ALGORITHMS[0])
        assert result.passed
        assert result.backend == "reference"
        with pytest.raises(Exception):
            BistController(EQUIVALENCE_GEOMETRY, backend="vectorized").run(
                PAPER_TABLE1_ALGORITHMS[0])


# ----------------------------------------------------------------------
# Comparator outcomes (pass/fail + bounded log), exercised through the
# backends directly: validated algorithms always pass on a fault-free
# memory, so the mismatch machinery needs deliberately inconsistent runs.
# ----------------------------------------------------------------------
class TestComparatorDifferential:
    INCONSISTENT = (
        "{⇑(r0); ⇕(w0)}",              # reads the initial background
        "{⇑(w0); ⇑(r1,w1); ⇓(r0)}",    # uniform wrong expectations
        "{⇕(w1); ⇓(r1,r0,w0,r1)}",     # mixed hits and misses per element
    )

    @pytest.mark.parametrize("notation", INCONSISTENT)
    @pytest.mark.parametrize("background", [None, checkerboard_background()],
                             ids=["solid0", "checkerboard"])
    def test_failure_counts_and_logs_match_reference(self, notation, background):
        geometry = ArrayGeometry(rows=8, columns=16)
        order = RowMajorOrder(geometry)
        algorithm = parse_march(notation, name=notation)
        reference = ReferencePowerBackend(geometry).measure(
            algorithm, order, low_power=True, background=background)
        campaign = VectorizedPowerCampaign(geometry)
        failures, log = campaign.comparator_outcomes(
            campaign.trace_for(algorithm, order), background)
        assert failures == reference.failures
        assert (failures == 0) == reference.passed
        assert len(log) == len(reference.failure_log)
        for expected, observed in zip(reference.failure_log, log):
            assert (observed.cycle, observed.row, observed.word,
                    observed.expected, observed.observed) == \
                (expected.cycle, expected.row, expected.word,
                 expected.expected, expected.observed)

    def test_log_stays_bounded(self):
        geometry = ArrayGeometry(rows=8, columns=16)
        order = RowMajorOrder(geometry)
        algorithm = parse_march("{⇑(w0); ⇑(r1)}", name="all-fail")
        campaign = VectorizedPowerCampaign(geometry)
        failures, log = campaign.comparator_outcomes(
            campaign.trace_for(algorithm, order), None, log_limit=7)
        assert failures == geometry.word_count
        assert len(log) == 7


# ----------------------------------------------------------------------
# Measured vs. analytical: tolerance and bracketing across the library
# ----------------------------------------------------------------------
class TestMeasuredVsAnalytical:
    @pytest.mark.parametrize("geometry", DIFFERENTIAL_GEOMETRIES,
                             ids=lambda g: g.describe())
    def test_library_prr_tracks_the_analytical_band(self, geometry):
        controller = BistController(geometry, backend="vectorized")
        model = AnalyticalPowerModel(geometry)
        for algorithm in all_algorithms():
            measured = measured_prr(controller, algorithm)
            plain = model.prr(algorithm)
            bracket = model.prr(algorithm, include_secondary=True,
                                include_next_column_recharge=True)
            label = f"{algorithm.name} @ {geometry.describe()}"
            # The extended variant brackets the measurement from below, the
            # paper's equation from above.
            assert bracket - PRR_BRACKET_SLACK <= measured, label
            assert measured <= plain + PRR_BRACKET_SLACK, label
            # On bit-oriented arrays the measurement reconciles with the
            # extended model within the paper's Table 1 tolerance.
            if geometry.bits_per_word == 1:
                assert measured == pytest.approx(
                    bracket, abs=ANALYTICAL_TOLERANCE), label

    def test_both_backends_inside_the_bracket(self):
        geometry = ArrayGeometry(rows=8, columns=64)
        model = AnalyticalPowerModel(geometry)
        for algorithm in PAPER_TABLE1_ALGORITHMS:
            plain = model.prr(algorithm)
            bracket = model.prr(algorithm, include_secondary=True,
                                include_next_column_recharge=True)
            for backend in ("reference", "vectorized"):
                measured = measured_prr(
                    BistController(geometry, backend=backend), algorithm)
                assert bracket - PRR_BRACKET_SLACK <= measured \
                    <= plain + PRR_BRACKET_SLACK, (algorithm.name, backend)


# ----------------------------------------------------------------------
# Campaign records carry the verdicts and the attribution
# ----------------------------------------------------------------------
class TestPrrCaseRecords:
    def test_record_reports_bracket_planners_and_backend(self):
        case = PrrCase(rows=8, columns=64, algorithm="March C-",
                       backend="vectorized", seed=7)
        record = run_prr_case(case)
        assert record.passed
        assert record.within_bracket
        assert record.backend_used == "vectorized"
        assert record.seed == 7
        assert record.functional_planner == "FunctionalModePlanner"
        assert record.low_power_planner == "LowPowerTestPlanner"
        assert record.analytical_prr_bracket < record.measured_prr \
            < record.analytical_prr
        assert record.cycles_per_mode == \
            10 * 8 * 64  # March C-: 10 operations per address
        assert record.functional_energy_j > record.low_power_energy_j > 0

    def test_backends_produce_matching_records(self):
        records = {}
        for backend in ("reference", "vectorized"):
            records[backend] = run_prr_case(
                PrrCase(rows=8, columns=32, algorithm="MATS+", backend=backend))
        reference, vectorized = records["reference"], records["vectorized"]
        assert vectorized.measured_prr == pytest.approx(
            reference.measured_prr, rel=REL_TOL)
        assert vectorized.functional_energy_j == pytest.approx(
            reference.functional_energy_j, rel=REL_TOL)
        assert vectorized.low_power_energy_j == pytest.approx(
            reference.low_power_energy_j, rel=REL_TOL)
        assert reference.backend_used == "reference"
        assert vectorized.backend_used == "vectorized"

    def test_case_validates_backend_and_algorithm(self):
        from repro.sweep import SweepError

        with pytest.raises(SweepError):
            PrrCase(rows=8, columns=32, algorithm="March C-",
                    backend="warp-drive")
        with pytest.raises(KeyError):
            PrrCase(rows=8, columns=32, algorithm="March Nope")
        assert "auto" in POWER_BACKENDS
