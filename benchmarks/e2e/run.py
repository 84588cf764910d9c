"""The one benchmark command.

    python3 benchmarks/e2e/run.py --seed 7

runs the five workloads one after another, each in a fresh subprocess
(``PYTHONHASHSEED=0``, so that set iteration — and with it partitioning
and the communication counts — repeats), prints one line per metric
(``workload metric value unit``), checks every result against the oracle
and writes ``results/BENCH_e2e.json`` plus, beside it, one
``trace_<workload>.jsonl`` per traced workload.  The last line printed
per workload is the JSON object the benchmark driver reads.  See
``README.md`` for the options.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark is the package ``e2e``; the program lives under ``src/``.
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from e2e.contract import RESULTS_DIR, REPO_ROOT, Contract, load_contract  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int,
                        help="measured rounds (default 16 without --seconds)")
    parser.add_argument("--seconds", type=float,
                        help="measure whole rounds for this long instead")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end metrics only; 1: also the traced "
                             "pass, and the result line carries the "
                             "per-layer metrics (default: both)")
    parser.add_argument("--out", type=Path,
                        default=RESULTS_DIR / "BENCH_e2e.json")
    parser.add_argument("--agreement", action="store_true",
                        help="run twice and check the two sets agree "
                             "within the declared bounds")
    parser.add_argument("--child", metavar="NAME", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    """Measure one workload in this process; print its record as JSON."""
    from e2e.harness import run_workload
    record = run_workload(args.child, args.seed, rounds=args.rounds,
                          seconds=args.seconds, trace=args.trace != "0",
                          trace_dir=args.out.parent)
    print(json.dumps(record))
    return 0


def measure(name: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in a fresh subprocess; ``None`` when it crashed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", name,
               "--seed", str(args.seed), "--out", str(args.out)]
    for flag in ("rounds", "seconds", "trace"):
        value = getattr(args, flag)
        if value is not None:
            command += [f"--{flag}", str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        print(f"{name}: the workload process exited with code "
              f"{done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def report(record: dict, contract: Contract, trace: str | None) -> bool:
    """Print one workload's metrics and its result line; True if correct."""
    name = record["workload"]
    values = record["metrics"]
    print(f"# {name}: {record['rounds']} rounds x {record['ops_per_round']} "
          f"ops = {record['samples']} samples, {record['failed']} of "
          f"{record['attempted']} checked responses failed"
          + (f", UNSTABLE ({'; '.join(record['unstable_reasons'])})"
             if record["unstable"] else ""))
    for failure in record["failures"]:
        print(f"# {name}: FAILED {failure}")
    end_to_end = list(contract.end_to_end.values())
    layers = list(contract.per_layer.values()) if trace != "0" else []
    for metric in end_to_end + layers:
        print(f"{name} {metric.name} {values[metric.name]:.6g} {metric.unit}")
    # The driver wants one family per run; without --trace, both.
    carried = layers if trace == "1" else end_to_end + layers
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric.name: {"value": values[metric.name],
                                  "unit": metric.unit}
                    for metric in carried},
    }))
    return correct


def agreement(first: dict, second: dict, contract: Contract) -> bool:
    """Print both sets side by side; True when every pair is in bound."""
    agreed = True
    print(f"# agreement: {'workload':16s} {'metric':18s} {'first':>12s} "
          f"{'second':>12s} {'diff':>8s} {'bound':>6s}")
    for name, record in first.items():
        for metric in contract.end_to_end.values():
            a = record["metrics"][metric.name]
            b = second[name]["metrics"][metric.name]
            difference = abs(b - a) / abs(a) if a else float(b != a)
            within = difference <= metric.bound
            agreed = agreed and within
            print(f"# agreement: {name:16s} {metric.name:18s} {a:12.6g} "
                  f"{b:12.6g} {difference:8.2%} {metric.bound:6.0%}"
                  + ("" if within else "  OUTSIDE"))
    return agreed


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    contract = load_contract()
    names = args.workload or list(contract.workloads)
    unknown = [name for name in names if name not in contract.workloads]
    if unknown:
        print(f"unknown workload(s) {unknown}; declared: "
              f"{list(contract.workloads)}", file=sys.stderr)
        return 2
    sets: list[dict] = []
    correct = True
    for _ in range(2 if args.agreement else 1):
        records = {}
        for name in names:
            record = measure(name, args)
            if record is None:
                return 2
            correct = report(record, contract, args.trace) and correct
            records[name] = record
        sets.append(records)
    output = {"benchmark": "e2e", "git_sha": git_sha(), "seed": args.seed,
              "workloads": sets[0]}
    if args.agreement:
        output["second_set"] = sets[1]
        output["agreed"] = agreement(sets[0], sets[1], contract)
        correct = correct and output["agreed"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(output, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
