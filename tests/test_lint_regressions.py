"""Regression pins for the real findings the lint pass surfaced.

Every fix the RPR rules forced on ``src/repro`` is pinned here by
behaviour, not just by the lint gate staying clean:

* RPR003 — sweep JSON/CSV exports and the serve cache publish
  atomically: a failing ``os.replace`` leaves the previous artifact
  intact and no temp litter behind;
* RPR006 — ``TechnologyParameters.as_dict`` exports every declared
  field (the drifted width/temperature fields included).
"""

from __future__ import annotations

import json
import os
from dataclasses import fields

import pytest

from repro import durable
from repro.circuit.technology import TechnologyParameters
from repro.serve.cache import ResultCache
from repro.sweep.runner import SweepResult


class TestAtomicExports:
    def test_atomic_write_replaces_and_cleans_up(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text("old")
        durable.atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_replace_preserves_previous_content(self, tmp_path,
                                                       monkeypatch):
        target = tmp_path / "artifact.json"
        target.write_text("previous")

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(durable.os, "replace", boom)
        with pytest.raises(OSError, match="disk gone"):
            durable.atomic_write_text(target, "next")
        assert target.read_text() == "previous"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_to_json_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.json"
        SweepResult([]).to_json(path)
        assert json.loads(path.read_text())["format"] == "repro-sweep"

        def boom(src, dst):
            raise OSError("torn")

        monkeypatch.setattr(durable.os, "replace", boom)
        with pytest.raises(OSError, match="torn"):
            SweepResult([]).to_json(path)
        assert json.loads(path.read_text())["format"] == "repro-sweep"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_to_csv_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.csv"
        SweepResult([]).to_csv(path)
        header = path.read_text().splitlines()[0]
        assert "rows" in header

        monkeypatch.setattr(durable.os, "replace",
                            lambda src, dst: (_ for _ in ()).throw(
                                OSError("torn")))
        with pytest.raises(OSError, match="torn"):
            SweepResult([]).to_csv(path)
        assert path.read_text().splitlines()[0] == header

    def test_cache_store_survives_failed_publish(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        digest = "ab" * 32
        cache.store(digest, {"case_id": "x"}, "power", {"case_id": "x"})
        assert cache.get(digest) is not None

        monkeypatch.setattr(durable.os, "replace",
                            lambda src, dst: (_ for _ in ()).throw(
                                OSError("full")))
        with pytest.raises(OSError, match="full"):
            cache.store(digest, {"case_id": "y"}, "power", {"case_id": "y"})
        entry = cache.get(digest)
        assert entry is not None
        assert entry["record"] == {"case_id": "x"}


class TestTechnologyExportDrift:
    def test_as_dict_exports_every_field(self):
        technology = TechnologyParameters(name="t")
        payload = technology.as_dict()
        assert set(payload) == {spec.name
                                for spec in fields(TechnologyParameters)}
        assert payload["temperature_c"] == technology.temperature_c
        assert payload["write_driver_width_um"] == \
            technology.write_driver_width_um
