"""What ``BENCHMARK.json`` declares: workloads, metric names, units, bounds.

The declaration lives in one file at the repository root so that the
driver, ``run.py``, ``compare.py`` and the tests all read the same names;
nothing here depends on the program under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
RESULTS_DIR = HERE / "results"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may worsen; ``None`` for
    #: per-layer metrics, which explain a change but never gate it.
    bound: float | None = None

    def worsening(self, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base``, as a share of ``base``.

        Positive means worse in the metric's own direction; a zero base
        (an inapplicable per-layer metric) can only stay zero or move.
        """
        if base == 0:
            return 0.0 if new == 0 else float("inf")
        change = (new - base) / abs(base)
        return change if self.better == "lower" else -change


@dataclass(frozen=True)
class Contract:
    workloads: dict[str, str]
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]


def load_contract(path: Path = BENCHMARK_JSON) -> Contract:
    declared = json.loads(path.read_text())
    return Contract(
        workloads={w["name"]: w["why"] for w in declared["workloads"]},
        end_to_end={m["name"]: Metric(**m) for m in declared["end_to_end"]},
        per_layer={m["name"]: Metric(**m) for m in declared["per_layer"]})
