"""Report containers, JSON/CSV emission, and cross-run comparison."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SchemaMismatch


def jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


@dataclass
class Report:
    experiment: str
    config: dict
    records: list = field(default_factory=list)

    def add(self, name: str, value, method: str, tolerance=None):
        rec = {"name": name, "value": jsonable(value), "method": method}
        if tolerance is not None:
            rec["tolerance"] = tolerance
        self.records.append(rec)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": jsonable(self.config),
            "records": self.records,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value", "method", "tolerance"])
        for rec in self.records:
            value = rec.get("value")
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True)
            writer.writerow([rec.get("name"), value, rec.get("method"), rec.get("tolerance", "")])
        return buf.getvalue()

    @staticmethod
    def from_json(text: str) -> "Report":
        doc = json.loads(text)
        return Report(doc["experiment"], doc.get("config", {}), doc.get("records", []))


def _numeric(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            return None
    return None


def compare_reports(a: Report, b: Report) -> dict:
    """Fieldwise relative differences between two runs of one experiment."""
    if a.experiment != b.experiment:
        raise SchemaMismatch(f"{a.experiment!r} vs {b.experiment!r}")
    by_name_a = {rec["name"]: rec for rec in a.records}
    by_name_b = {rec["name"]: rec for rec in b.records}
    diff: dict = {}
    for name in sorted(set(by_name_a) | set(by_name_b)):
        if name not in by_name_a or name not in by_name_b:
            diff[name] = {"missing_in": "b" if name not in by_name_b else "a"}
            continue
        va = _numeric(by_name_a[name].get("value"))
        vb = _numeric(by_name_b[name].get("value"))
        if va is None or vb is None:
            if by_name_a[name].get("value") != by_name_b[name].get("value"):
                diff[name] = {"a": by_name_a[name].get("value"), "b": by_name_b[name].get("value")}
            continue
        scale = max(abs(va), abs(vb), 1e-300)
        rel = abs(va - vb) / scale
        if rel > 0:
            diff[name] = {"a": va, "b": vb, "rel": rel}
    return diff
