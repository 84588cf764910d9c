"""Diff two ``BENCH_e2e.json`` files: a baseline and a candidate.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

prints, per workload and metric, both values, the ratio NEW/BASE, the
bound ``BENCHMARK.json`` declares and a verdict:

* ``worse`` / ``better`` — NEW is beyond the bound in that direction;
* ``same`` — within the bound;
* ``unresolved`` — the pair cannot be judged: a run was marked unstable,
  or a workload or metric is missing on one side.

Per-layer metrics have no declared bound; they are judged against
``LAYER_TOLERANCE`` (the counts in ``EXACT`` against zero: they repeat
exactly) and never change the exit code, which is 1 when any end-to-end
metric is ``worse`` or ``unresolved``.  Two single runs say
nothing about run-to-run spread: before claiming a gain, follow the
ten-pair procedure in ``README.md``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2e.contract import Metric, load_contract  # noqa: E402

#: Tolerance applied to per-layer metrics, which declare no bound.
LAYER_TOLERANCE = 0.10
#: Counts of the program that repeat exactly between runs of one commit.
EXACT = ("comm_rows_per_op", "failed_ops_share")
BETTER, SAME, WORSE, UNRESOLVED = "better", "same", "worse", "unresolved"


def verdict(metric: Metric, base: float | None, new: float | None,
            unstable: bool = False) -> str:
    if base is None or new is None or unstable:
        return UNRESOLVED
    if metric.bound is not None:
        bound = metric.bound
    else:
        bound = 0.0 if metric.name in EXACT else LAYER_TOLERANCE
    worsening = metric.worsening(base, new)
    if worsening > bound:
        return WORSE
    if worsening < -bound:
        return BETTER
    return SAME


def compare(base: dict, new: dict, contract) -> list[tuple]:
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)``."""
    rows = []
    for name in contract.workloads:
        a = base["workloads"].get(name)
        b = new["workloads"].get(name)
        if a is None and b is None:
            continue
        unstable = bool((a or {}).get("unstable") or (b or {}).get("unstable"))
        for metric in (*contract.end_to_end.values(),
                       *contract.per_layer.values()):
            x = (a or {"metrics": {}})["metrics"].get(metric.name)
            y = (b or {"metrics": {}})["metrics"].get(metric.name)
            if x is None and y is None:
                continue        # a per-layer metric of an untraced run
            ratio = y / x if x and y is not None else None
            rows.append((name, metric.name, x, y, ratio, metric.bound,
                         verdict(metric, x, y, unstable)))
    return rows


def _cell(value: float | None, width: int, spec: str) -> str:
    text = format(value, spec) if value is not None else "-"
    return text.rjust(width)


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in paths)
    contract = load_contract()
    print(f"base {paths[0]} @ {base.get('git_sha', '?')[:12]}   "
          f"new {paths[1]} @ {new.get('git_sha', '?')[:12]}")
    print(f"{'workload':16s} {'metric':30s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    failed = False
    for name, metric, x, y, ratio, bound, outcome in compare(base, new,
                                                             contract):
        if bound is not None and outcome in (WORSE, UNRESOLVED):
            failed = True
        print(f"{name:16s} {metric:30s} {_cell(x, 12, '.6g')} "
              f"{_cell(y, 12, '.6g')} {_cell(ratio, 9, '.3f')} "
              f"{_cell(bound, 6, '.0%')}  {outcome}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
