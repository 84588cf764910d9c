"""Shared fixtures for the benchmark suite.

Datasets are deliberately much smaller than the paper's (which used a
62M-triple Yago dump and 1M-10M-edge Uniprot graphs on a 4-machine
cluster): the goal is to reproduce the *shape* of every figure — who wins,
by roughly what factor, where failures appear — not the absolute numbers.

Each benchmark module collects its :class:`MeasuredRun` records through the
``figure_report`` fixture; at teardown the corresponding figure table is
written to ``benchmarks/results/<module>.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import MeasuredRun, comparison_table, speedup_summary
from repro.datasets import (erdos_renyi_graph, social_graph_suite,
                            uniprot_graph, yago_like_graph)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def yago_graph():
    """Yago stand-in used by Figs. 9, 10 and 15 (scale greatly reduced)."""
    return yago_like_graph(scale=120, seed=7)


@pytest.fixture(scope="session")
def uniprot_small():
    """Uniprot stand-in for Fig. 13 (the paper's uniprot_1M, scaled down)."""
    return uniprot_graph(num_edges=2_000, seed=11)


@pytest.fixture(scope="session")
def uniprot_sizes():
    """Three Uniprot sizes for the Fig. 14 scalability sweep (1M/5M/10M scaled)."""
    return {
        "uniprot_1": uniprot_graph(num_edges=1_000, seed=11),
        "uniprot_3": uniprot_graph(num_edges=3_000, seed=11),
        "uniprot_6": uniprot_graph(num_edges=6_000, seed=11),
    }


@pytest.fixture(scope="session")
def labeled_random_graph():
    """10-label random graph for the concatenated closures of Fig. 12.

    Denser than the other fixtures so the per-label closures (and therefore
    the intermediate results a Datalog engine must materialise) are sizeable.
    """
    return erdos_renyi_graph(350, num_edges=3_500, seed=3,
                             labels=tuple(f"a{i}" for i in range(1, 11)),
                             name="rnd_labeled")


@pytest.fixture(scope="session")
def transitive_closure_graph():
    """Erdos-Renyi graph for the partitioning ablation's transitive closure."""
    return erdos_renyi_graph(1_500, num_edges=6_000, seed=5, name="rnd_tc")


@pytest.fixture(scope="session")
def social_suite():
    """Scaled-down versions of the Fig. 11 graph suite."""
    return social_graph_suite(scale=0.3, seed=13)


class FigureReport:
    """Collects measured runs for one benchmark module and writes its table."""

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title
        self.runs: list[MeasuredRun] = []
        self.extra_sections: list[str] = []

    def add(self, run: MeasuredRun) -> MeasuredRun:
        self.runs.append(run)
        return run

    def add_section(self, text: str) -> None:
        self.extra_sections.append(text)

    def write(self) -> None:
        if not self.runs and not self.extra_sections:
            return
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        sections = []
        if self.runs:
            sections.append(comparison_table(self.runs, self.title))
            systems = []
            for run in self.runs:
                if run.system not in systems:
                    systems.append(run.system)
            if len(systems) >= 2:
                for other in systems[1:]:
                    sections.append(speedup_summary(self.runs, other, systems[0]))
        sections.extend(self.extra_sections)
        path = RESULTS_DIR / f"{self.name}.txt"
        path.write_text("\n\n".join(sections) + "\n")


@pytest.fixture(scope="module")
def figure_report(request):
    """Per-module run collector; writes benchmarks/results/<module>.txt."""
    module_name = request.module.__name__.split(".")[-1]
    title = getattr(request.module, "FIGURE_TITLE", module_name)
    report = FigureReport(module_name, title)
    yield report
    report.write()
