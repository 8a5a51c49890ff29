"""SweepRunner: grid construction, execution, export round-trips, CLI."""

from __future__ import annotations

import json

import pytest

from repro.sweep import (
    CoverageCase,
    CoverageRecord,
    INVARIANCE_ORDERS,
    PrrCase,
    PrrRecord,
    SweepCase,
    SweepError,
    SweepResult,
    SweepRunner,
    coverage_grid,
    execute_case,
    paper_coverage_cases,
    paper_prr_cases,
    paper_table1_cases,
    parse_geometry,
    prr_grid,
    run_case,
    run_coverage_case,
    run_prr_case,
    sweep_grid,
)
from repro.sweep.__main__ import main as sweep_main


# ----------------------------------------------------------------------
# Grid construction / validation
# ----------------------------------------------------------------------
def test_parse_geometry_forms():
    assert parse_geometry("16x8").rows == 16
    assert parse_geometry("16x8").columns == 8
    assert parse_geometry("16x8x4").bits_per_word == 4
    assert parse_geometry((4, 4)).cell_count == 16
    geometry = parse_geometry(parse_geometry("8x8"))
    assert geometry.rows == 8
    with pytest.raises(SweepError):
        parse_geometry("16")
    with pytest.raises(SweepError):
        parse_geometry("axb")


def test_sweep_grid_cross_product():
    cases = sweep_grid(["8x8", "16x16"], ["March C-", "MATS+"],
                       orders=("row-major", "column-major"))
    assert len(cases) == 2 * 2 * 2
    labels = {case.label() for case in cases}
    assert len(labels) == len(cases)  # every scenario is distinct


def test_case_validation_fails_fast():
    with pytest.raises(SweepError):
        SweepCase(rows=8, columns=8, algorithm="March C-", order="no-such-order")
    with pytest.raises(SweepError, match="unknown March algorithm"):
        SweepCase(rows=8, columns=8, algorithm="No Such March")


def test_paper_preset_covers_table1():
    cases = paper_table1_cases()
    assert len(cases) == 5
    assert all(case.rows == 512 and case.columns == 512 for case in cases)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def test_run_case_produces_consistent_record():
    # A wide array, where suppressing the unselected pre-charges wins (on
    # tiny square arrays the restore overhead can make the PRR negative).
    case = SweepCase(rows=8, columns=64, algorithm="MATS+", backend="vectorized")
    record = run_case(case)
    assert record.backend_used == "vectorized"
    assert record.algorithm == "MATS+"
    assert record.cycles_per_mode == 5 * 8 * 64
    assert record.passed
    assert 0.0 < record.measured_prr < 1.0
    assert record.functional_power_w > record.low_power_power_w


def test_runner_serial_and_parallel_agree():
    # Two geometries are two stack groups, so processes=2 runs a pool.
    cases = sweep_grid(["8x8", "8x16"], ["MATS+"], backends=("vectorized",))
    serial = SweepRunner(cases, processes=1).run()
    parallel = SweepRunner(cases, processes=2).run()
    assert len(serial) == len(parallel) == 2
    for lhs, rhs in zip(serial, parallel):
        assert lhs.algorithm == rhs.algorithm
        assert lhs.measured_prr == pytest.approx(rhs.measured_prr, rel=1e-12)


def test_runner_rejects_empty_and_bad_process_counts():
    with pytest.raises(SweepError):
        SweepRunner([])
    case = SweepCase(rows=4, columns=4, algorithm="MATS+")
    for processes in (0, True, 2.0):
        with pytest.raises(SweepError, match="processes must be >= 1"):
            SweepRunner([case], processes=processes)


# ----------------------------------------------------------------------
# Export / import round-trips
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_result():
    cases = sweep_grid(["8x8"], ["MATS+"], backends=("vectorized",))
    return SweepRunner(cases).run()


def test_json_round_trip(small_result, tmp_path):
    path = small_result.to_json(tmp_path / "sweep.json")
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro-sweep"
    loaded = SweepResult.from_json(path)
    assert [r.as_dict() for r in loaded] == [r.as_dict() for r in small_result]


def test_csv_round_trip(small_result, tmp_path):
    path = small_result.to_csv(tmp_path / "sweep.csv")
    loaded = SweepResult.from_csv(path)
    assert len(loaded) == len(small_result)
    original = small_result.records[0]
    restored = loaded.records[0]
    assert restored.algorithm == original.algorithm
    assert restored.rows == original.rows
    assert restored.passed == original.passed
    assert restored.measured_prr == pytest.approx(original.measured_prr, rel=1e-12)


def test_from_json_rejects_foreign_documents(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "something-else", "records": []}))
    with pytest.raises(SweepError):
        SweepResult.from_json(path)


def test_render_produces_table(small_result):
    text = small_result.render(title="Unit sweep")
    assert "Unit sweep" in text
    assert "MATS+" in text
    assert "PRR measured" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_runs_grid_and_exports(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    exit_code = sweep_main([
        "--geometry", "8x8", "--algorithm", "MATS+",
        "--backend", "vectorized",
        "--json", str(json_path), "--csv", str(csv_path),
    ])
    assert exit_code == 0
    captured = capsys.readouterr().out
    assert "MATS+" in captured
    assert json_path.exists() and csv_path.exists()
    assert len(SweepResult.from_json(json_path)) == 1
    assert len(SweepResult.from_csv(csv_path)) == 1


def test_cli_quiet_mode_is_quiet(capsys):
    exit_code = sweep_main(["--geometry", "8x8", "--algorithm", "MATS+",
                            "--quiet"])
    assert exit_code == 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# Coverage campaigns (the DOF-1 sweeps)
# ----------------------------------------------------------------------
def test_coverage_case_validation_fails_fast():
    with pytest.raises(SweepError):
        CoverageCase(rows=8, columns=8, algorithm="March C-", orders=())
    with pytest.raises(SweepError):
        CoverageCase(rows=8, columns=8, algorithm="March C-",
                     orders=("no-such-order",))
    with pytest.raises(SweepError):
        CoverageCase(rows=8, columns=8, algorithm="March C-",
                     backend="no-such-backend")
    with pytest.raises(SweepError):
        CoverageCase(rows=8, columns=8, algorithm="March C-",
                     include_single=False, include_coupling=False)
    with pytest.raises(SweepError, match="unknown March algorithm"):
        CoverageCase(rows=8, columns=8, algorithm="No Such March")


#: Mistyped fields of a served case, each with the refusal it must meet.
#: Before the per-field checks the first two failed inside the engine (a
#: counted 500 from serve) and the rest constructed and ran; before the
#: field table, the entries after ``["up"]`` built a one-row case, ran
#: under another digest, iterated a string by character, raised a
#: ValueError or TypeError, or recorded a string seed.
MISTYPED_FIELDS = [
    ("coverage", {"sample": "x"}, "sample must be an integer"),
    ("coverage", {"sample": True}, "sample must be an integer"),
    ("coverage", {"sample": 2.0}, "sample must be an integer"),
    ("coverage", {"sample": -1}, "sample must be at least 0"),
    ("coverage", {"seed": 1.5}, "seed must be an integer"),
    ("coverage", {"seed": False}, "seed must be an integer"),
    ("coverage", {"seed": "7"}, "seed must be an integer"),
    ("coverage", {"include_single": "no"}, "include_single must be true"),
    ("coverage", {"include_single": 1}, "include_single must be true"),
    ("coverage", {"include_coupling": None}, "include_coupling must be true"),
    ("coverage", {"any_direction": "sideways"}, "any_direction must be one"),
    ("coverage", {"any_direction": "any"}, "any_direction must be one"),
    ("power", {"any_direction": "sideways"}, "any_direction must be one"),
    ("power", {"any_direction": ["up"]}, "any_direction must be one"),
    ("power", {"rows": True}, "rows must be an integer"),
    ("prr", {"rows": True}, "rows must be an integer"),
    ("coverage", {"rows": True}, "rows must be an integer"),
    ("power", {"banks": True}, "banks must be an integer"),
    ("prr", {"banks": True}, "banks must be an integer"),
    ("coverage", {"orders": "row-major"}, "orders must be a list of names"),
    ("coverage", {"orders": ["row-major", 1]},
     "orders must be a list of names"),
    ("power", {"rows": 8.5}, "rows must be an integer"),
    ("prr", {"bits_per_word": 1.0}, "bits_per_word must be an integer"),
    ("prr", {"seed": "x"}, "seed must be an integer"),
    ("power", {"order": ["row-major"]}, "order must be a name"),
    ("prr", {"backend": None}, "backend must be one of"),
    ("power", {"bank_interleave": "striped"}, "bank_interleave must be one"),
]


@pytest.mark.parametrize("kind,fields,error", MISTYPED_FIELDS,
                         ids=[f"{kind}-{next(iter(fields))}={value!r}"
                              for kind, fields, _ in MISTYPED_FIELDS
                              for value in fields.values()])
def test_mistyped_case_field_is_refused_at_construction(kind, fields, error):
    from repro.sweep import case_from_dict

    payload = {"kind": kind, "rows": 8, "columns": 8,
               "algorithm": "March C-", **fields}
    with pytest.raises(SweepError, match=error):
        case_from_dict(payload)


def test_well_typed_coverage_fields_still_construct():
    case = CoverageCase(rows=8, columns=8, algorithm="March C-", sample=0,
                        seed=0, include_single=False, any_direction="down")
    assert (case.sample, case.seed, case.any_direction) == (0, 0, "down")
    assert SweepCase(rows=8, columns=8, algorithm="MATS+",
                     any_direction="down").any_direction == "down"


def test_coverage_grid_and_paper_preset():
    cases = coverage_grid(["8x8", "16x16"], ["March C-", "MATS+"], seed=3)
    assert len(cases) == 4
    assert all(case.orders == INVARIANCE_ORDERS for case in cases)
    assert all(case.seed == 3 for case in cases)
    with pytest.raises(SweepError):
        coverage_grid(["8x8x4"], ["March C-"])  # word-oriented: no campaigns

    paper = paper_coverage_cases(seed=11)
    assert len(paper) == 2
    assert all(case.rows == 512 and case.columns == 512 for case in paper)
    assert all(case.seed == 11 for case in paper)
    # MATS+ only targets single-cell faults; its invariance check must not
    # include the coupling battery (fortuitous detections are order-dependent).
    by_name = {case.algorithm: case for case in paper}
    assert by_name["March C-"].include_coupling
    assert not by_name["MATS+"].include_coupling


def test_run_coverage_case_produces_consistent_record():
    case = CoverageCase(rows=16, columns=16, algorithm="March C-",
                        backend="vectorized", seed=7, sample=4)
    record = run_coverage_case(case)
    assert record.backend_used == "vectorized"
    assert record.seed == 7 and record.sample == 4
    assert record.locations == 4 + 5  # corners + centre + sampled
    assert record.total_faults == record.locations * 21  # 9 single + 12 coupling
    assert record.invariant and record.disagreements == 0
    assert 0.85 < record.coverage <= 1.0
    assert record.detected_faults == round(record.coverage * record.total_faults)


def test_execute_case_dispatches_on_case_kind():
    power = execute_case(SweepCase(rows=8, columns=8, algorithm="MATS+",
                                   backend="vectorized"))
    campaign = execute_case(CoverageCase(rows=8, columns=8, algorithm="MATS+",
                                         include_coupling=False))
    assert hasattr(power, "measured_prr")
    assert isinstance(campaign, CoverageRecord)
    with pytest.raises(SweepError):
        execute_case("not a case")


def test_runner_handles_mixed_case_kinds():
    cases = [SweepCase(rows=8, columns=8, algorithm="MATS+",
                       backend="vectorized"),
             CoverageCase(rows=8, columns=8, algorithm="March C-")]
    result = SweepRunner(cases).run()
    assert len(result) == 2
    assert "Coverage" in result.render()


@pytest.fixture(scope="module")
def coverage_result():
    cases = coverage_grid(["8x8"], ["March C-"], seed=5)
    return SweepRunner(cases).run()


def test_coverage_json_round_trip_records_seed(coverage_result, tmp_path):
    path = coverage_result.to_json(tmp_path / "campaign.json")
    payload = json.loads(path.read_text())
    assert payload["records"][0]["kind"] == "coverage"
    assert payload["records"][0]["seed"] == 5
    loaded = SweepResult.from_json(path)
    assert isinstance(loaded.records[0], CoverageRecord)
    assert [r.as_dict() for r in loaded] == [r.as_dict() for r in coverage_result]


def test_coverage_csv_round_trip_records_seed(coverage_result, tmp_path):
    path = coverage_result.to_csv(tmp_path / "campaign.csv")
    header = path.read_text().splitlines()[0]
    assert "seed" in header.split(",")
    loaded = SweepResult.from_csv(path)
    restored = loaded.records[0]
    assert isinstance(restored, CoverageRecord)
    assert restored.seed == 5
    assert restored.invariant == coverage_result.records[0].invariant
    assert restored.coverage == pytest.approx(
        coverage_result.records[0].coverage, rel=1e-12)


def test_mixed_sweep_round_trips_json_but_not_csv(small_result,
                                                  coverage_result, tmp_path):
    mixed = SweepResult(small_result.records + coverage_result.records)
    loaded = SweepResult.from_json(mixed.to_json(tmp_path / "mixed.json"))
    assert {type(record).__name__ for record in loaded.records} == \
        {"SweepRecord", "CoverageRecord"}
    with pytest.raises(SweepError):
        mixed.to_csv(tmp_path / "mixed.csv")


def test_cli_coverage_runs_and_exports(tmp_path, capsys):
    json_path = tmp_path / "campaign.json"
    csv_path = tmp_path / "campaign.csv"
    exit_code = sweep_main([
        "--coverage", "--geometry", "8x8", "--algorithm", "March C-",
        "--seed", "9", "--sample", "3",
        "--json", str(json_path), "--csv", str(csv_path),
    ])
    assert exit_code == 0
    captured = capsys.readouterr().out
    assert "DOF-1" in captured
    payload = json.loads(json_path.read_text())
    assert payload["records"][0]["seed"] == 9
    assert payload["records"][0]["invariant"] is True
    assert len(SweepResult.from_csv(csv_path)) == 1


def test_cli_rejects_paper_and_coverage_combination(capsys):
    exit_code = sweep_main(["--paper", "--coverage"])
    assert exit_code == 2
    assert "paper-coverage" in capsys.readouterr().err


# ----------------------------------------------------------------------
# BIST PRR-campaign cases (measured vs. analytical Table 1)
# ----------------------------------------------------------------------
def test_prr_grid_and_paper_preset():
    cases = prr_grid(["8x64", "8x32x2"], ["March C-", "MATS+"],
                     backend="vectorized", seed=3)
    assert len(cases) == 4
    assert {case.label() for case in cases} == {
        "March C- PRR @ 8x64 [vectorized]",
        "MATS+ PRR @ 8x64 [vectorized]",
        "March C- PRR @ 8x32x2 [vectorized]",
        "MATS+ PRR @ 8x32x2 [vectorized]",
    }
    assert all(case.seed == 3 for case in cases)
    paper = paper_prr_cases()
    assert len(paper) == 5
    assert all(case.rows == 512 and case.columns == 512
               and case.backend == "vectorized" for case in paper)


def test_prr_case_validation_fails_fast():
    with pytest.raises(SweepError):
        PrrCase(rows=8, columns=8, algorithm="March C-", backend="no-such")
    with pytest.raises(SweepError, match="unknown March algorithm"):
        PrrCase(rows=8, columns=8, algorithm="No Such March")


def test_execute_case_dispatches_prr_cases():
    record = execute_case(PrrCase(rows=8, columns=64, algorithm="MATS+",
                                  backend="vectorized"))
    assert isinstance(record, PrrRecord)
    assert record.cycles_per_mode == 5 * 8 * 64
    assert record.passed and record.within_bracket
    assert "PRR measured" in record.table_row()
    assert "in bracket" in record.progress_line()


@pytest.fixture(scope="module")
def prr_result():
    cases = prr_grid(["8x64"], ["MATS+"], backend="vectorized", seed=11)
    return SweepRunner(cases).run()


def test_prr_json_round_trip_records_backend_and_seed(prr_result, tmp_path):
    path = prr_result.to_json(tmp_path / "prr.json")
    payload = json.loads(path.read_text())
    assert payload["records"][0]["kind"] == "prr"
    assert payload["records"][0]["seed"] == 11
    assert payload["records"][0]["backend_used"] == "vectorized"
    loaded = SweepResult.from_json(path)
    assert isinstance(loaded.records[0], PrrRecord)
    assert [r.as_dict() for r in loaded] == [r.as_dict() for r in prr_result]


def test_prr_csv_round_trip_records_backend_and_seed(prr_result, tmp_path):
    path = prr_result.to_csv(tmp_path / "prr.csv")
    header = path.read_text().splitlines()[0].split(",")
    assert "seed" in header and "backend_used" in header
    loaded = SweepResult.from_csv(path)
    restored = loaded.records[0]
    assert isinstance(restored, PrrRecord)
    assert restored.seed == 11
    assert restored.within_bracket == prr_result.records[0].within_bracket
    assert restored.measured_prr == pytest.approx(
        prr_result.records[0].measured_prr, rel=1e-12)


def test_cli_prr_grid_runs_and_exports(tmp_path, capsys):
    json_path = tmp_path / "prr.json"
    exit_code = sweep_main([
        "--prr-grid", "--geometry", "8x64", "--algorithm", "MATS+",
        "--backend", "vectorized", "--json", str(json_path),
    ])
    assert exit_code == 0
    captured = capsys.readouterr().out
    assert "PRR measured" in captured
    payload = json.loads(json_path.read_text())
    assert payload["records"][0]["kind"] == "prr"
    assert payload["records"][0]["within_bracket"] is True


def test_cli_records_name_the_one_kernel_and_refuse_a_choice(tmp_path,
                                                             capsys):
    json_path = tmp_path / "prr.json"
    assert sweep_main(["--prr-grid", "--geometry", "16x64",
                       "--algorithm", "MATS+", "--quiet",
                       "--json", str(json_path)]) == 0
    record = json.loads(json_path.read_text())["records"][0]
    assert record["kernel"] == "default"
    assert record["kernel_used"] == "flat"
    with pytest.raises(SystemExit) as exited:
        sweep_main(["--prr-grid", "--geometry", "16x64",
                    "--algorithm", "MATS+", "--kernel", "flat"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --kernel flat" in capsys.readouterr().err


def test_cli_rejects_prr_and_coverage_combination(capsys):
    assert sweep_main(["--prr-grid", "--coverage"]) == 2
    assert sweep_main(["--paper-table1", "--paper"]) == 2
    capsys.readouterr()
