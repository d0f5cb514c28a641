"""Named inequality reports shared by the bound evaluators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

Number = Union[int, float]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one named inequality: what went in, the cutoff, and the verdict.

    holds is None when the inequality does not constrain the given inputs
    (e.g. a height window queried at torsion); applicable says whether it does.
    The citation is the inequality itself, spelled out.
    """

    name: str
    inputs: Dict[str, Number]
    threshold: Optional[float]
    holds: Optional[bool]
    citation: str

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
