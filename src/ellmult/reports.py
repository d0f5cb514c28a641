"""Named inequality reports shared by the bound evaluators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

Number = Union[int, float]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one named inequality: what went in, the cutoff, and the verdict.

    holds is None when the inequality does not constrain the given inputs
    (e.g. a height window queried at torsion); applicable says whether it does.
    The citation is the inequality itself, spelled out.  A threshold or float
    input that is not finite (an overflow, or a NaN) raises ValueError.
    """

    name: str
    inputs: Dict[str, Number]
    threshold: Optional[float]
    holds: Optional[bool]
    citation: str

    def __post_init__(self) -> None:
        for key, value in (("threshold", self.threshold), *self.inputs.items()):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"bound {self.name}: {key} is {value}, not a finite number")

    @property
    def applicable(self) -> bool:
        return self.holds is not None

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "inputs": dict(self.inputs),
            "threshold": self.threshold,
            "holds": self.holds,
            "citation": self.citation,
            "applicable": self.applicable,
        }


def value_report(name: str, inputs: Dict[str, Number], value: Optional[Number], citation: str) -> BoundReport:
    """Report of a computed cap or floor: threshold is the value and holds is true, both None for no value."""
    threshold, holds = (None, None) if value is None else (float(value), True)
    return BoundReport(name=name, inputs=inputs, threshold=threshold, holds=holds, citation=citation)
