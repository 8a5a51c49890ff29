"""RPR006 done right: schemas agree, imports tolerate old payloads."""

import json
from dataclasses import dataclass, fields


def _record_from_dict(cls, data):
    names = {spec.name for spec in fields(cls)}
    return cls(**{key: value for key, value in data.items()
                  if key in names})


@dataclass
class SteadyRecord:
    case_id: str
    energy: float

    def as_dict(self):
        # Renamed keys are presentation; every field's value is exported.
        return {"case": self.case_id, "E": self.energy}

    @classmethod
    def from_dict(cls, data):
        return _record_from_dict(cls, data)

    def to_line(self):
        return json.dumps({"case_id": self.case_id, "energy": self.energy})

    @classmethod
    def from_line(cls, line):
        data = json.loads(line)
        return cls(case_id=data["case_id"], energy=data.get("energy", 0.0))
