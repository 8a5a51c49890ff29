"""RPR006 violations: export-schema drift in a record module."""

from dataclasses import dataclass


@dataclass
class DriftRecord:
    case_id: str
    energy: float
    kernel_used: str

    def as_dict(self):  # line 12: drops 'kernel_used'
        return {"case_id": self.case_id, "energy": self.energy}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)  # line 17: raw splat, crashes on old journals
