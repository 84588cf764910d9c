"""One workload, measured: set-up, identical rounds, the traced pass.

Runs inside the fresh subprocess ``run.py`` starts per workload.  The
method — and why each part is there — is in ``README.md``; in short:

1. set-up (generate data, construct the program objects, one warm
   operation per distinct operation) runs ``SETUP_REPEATS`` times on
   fresh objects through the calibrated clock; ``setup_s`` is the median;
2. the measured rounds each run all the workload's operations once, with
   the program's tracer off; every metric is computed per round and the
   median over rounds is reported;
3. the traced rounds replay the operations through the span recorder and
   yield the per-layer metrics.

Every response — warm, measured or traced — is checked against the
oracle outside the timed region.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .calclock import CalibratedClock, Sample
from .contract import RESULTS_DIR
from .oracle import Verdict, build_oracle, verify
from .results import OpRecord, fold_rounds, fold_spans
from .spans import SpanRecorder
from .workloads import (WORKLOADS, Op, State, arrange, build_dataset,
                        build_twins, construct, distinct, execute, replay,
                        warm)

#: Rounds of a run that is not bounded by ``--seconds``.
ROUNDS = 16
#: Fewest rounds a time-bounded run makes, however slow the machine.
MIN_ROUNDS = 3
SETUP_REPEATS = 3
TRACE_ROUNDS = 2
#: Slowest over fastest calibration beyond which a run is marked unstable.
MAX_SPEED_SPREAD = 2.5


def attempt(function, *args):
    """Call ``function``; an exception becomes the result, to be counted."""
    try:
        return function(*args)
    except Exception as error:      # counted as a failed operation
        return error


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def judge(self, op: Op, raw, oracle) -> Verdict:
        verdict = verify(op, raw, oracle)
        self.attempted += 1
        if not verdict.ok:
            self.failures.append(f"{op.kind} {op.text!r}: {verdict.detail}")
        return verdict


def _set_up(workload, seed: int, clock: CalibratedClock, tally: Tally):
    """Set up ``SETUP_REPEATS`` times; keep the last repetition's objects."""
    seconds = []
    ops = oracle = state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        state = None
        gc.collect()
        data, generated = clock.time_call(build_dataset)
        if ops is None:
            ops = workload.operations(data, seed)
            oracle = build_oracle(data, ops)
        state, constructed = clock.time_call(construct, workload, data, ops)
        try:
            warmed, warming = clock.time_call(warm, state, ops)
        except BaseException:
            state.close()
            raise
        clock.close()
        seconds.append(sum(clock.calibrated(step)[0]
                           for step in (generated, constructed, warming)))
    for op, raw in zip(distinct(ops), warmed):
        tally.judge(op, raw, oracle)
    return data, ops, oracle, state, seconds


def _record(clock: CalibratedClock, op: Op, sample: Sample,
            verdict: Verdict) -> OpRecord:
    wall, cpu = clock.calibrated(sample)
    first_batch = None
    if verdict.first_at is not None:
        first_batch = ((verdict.first_at - sample.started)
                       * clock.factors(sample)[0])
    return OpRecord(kind=op.kind, wall=wall, cpu=cpu,
                    comm_rows=verdict.comm_rows, first_batch=first_batch)


def _measure(state: State, ops, seed: int, oracle, clock, tally: Tally,
             rounds: int | None, seconds: float | None):
    """The untraced rounds: ``rounds`` of them, or as many as fit."""
    measured: list[list[OpRecord]] = []
    raw_seconds: list[float] = []
    deadline = time.perf_counter() + (seconds or 0.0)

    def more() -> bool:
        if rounds is not None:
            return len(measured) < rounds
        return len(measured) < MIN_ROUNDS or time.perf_counter() < deadline

    while more():
        gc.collect()
        timed = []
        for op in arrange(ops, seed, len(measured)):
            raw, sample = clock.time_call(attempt, execute, state, op)
            timed.append((op, sample, tally.judge(op, raw, oracle)))
        clock.close()
        measured.append([_record(clock, *entry) for entry in timed])
        raw_seconds.append(sum(sample.wall for _, sample, _ in timed))
    return measured, raw_seconds


def _trace(state: State, data, ops, seed: int, first_round: int, oracle,
           clock, tally: Tally, recorder: SpanRecorder) -> None:
    build_twins(state, data, ops)
    for round_index in range(first_round, first_round + TRACE_ROUNDS):
        gc.collect()
        replayed = []
        for op in arrange(ops, seed, round_index):
            recorder.next_op()
            first = len(recorder.spans)
            raw, sample = clock.time_call(attempt, replay, state, op,
                                          recorder)
            replayed.append((first, len(recorder.spans), sample))
            tally.judge(op, raw, oracle)
        clock.close()
        for first, last, sample in replayed:
            factor = clock.factors(sample)[0]
            for span in recorder.spans[first:last]:
                span.factor = factor


def run_workload(name: str, seed: int, *, rounds: int | None = None,
                 seconds: float | None = None, trace: bool = True,
                 trace_dir: Path = RESULTS_DIR) -> dict:
    """Measure one workload; returns its record (see ``README.md``)."""
    if rounds is None and seconds is None:
        rounds = ROUNDS
    workload = WORKLOADS[name]
    clock = CalibratedClock()
    tally = Tally()
    data, ops, oracle, state, setup_seconds = _set_up(
        workload, seed, clock, tally)
    try:
        measured, raw_seconds = _measure(state, ops, seed, oracle, clock,
                                         tally, rounds, seconds)
        metrics = fold_rounds(measured)
        metrics["setup_s"] = statistics.median(setup_seconds)
        # Linux reports the peak resident set in KiB.
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        round_seconds = [sum(op.wall for op in ops) for ops in measured]
        if trace:
            recorder = SpanRecorder()
            _trace(state, data, ops, seed, len(measured), oracle, clock,
                   tally, recorder)
            metrics.update(fold_spans(
                recorder.spans, ops=TRACE_ROUNDS * len(ops),
                measured_seconds=(TRACE_ROUNDS
                                  * statistics.median(round_seconds))))
            recorder.write_jsonl(trace_dir / f"trace_{name}.jsonl")
    finally:
        state.close()
    walls = [c.wall for c in clock.calibrations]
    metrics["bench.machine_speed_ms"] = 1000.0 * statistics.median(walls)
    speed_spread = clock.speed_spread()
    metrics["bench.machine_speed_spread"] = speed_spread
    metrics["bench.raw_round_s"] = statistics.median(raw_seconds)
    metrics["failed_ops_share"] = len(tally.failures) / tally.attempted
    reasons = []
    if speed_spread > MAX_SPEED_SPREAD:
        reasons.append(f"calibrations vary {speed_spread:.2f}x")
    if rounds is None and len(measured) <= MIN_ROUNDS:
        reasons.append(f"only {len(measured)} rounds fit in {seconds:g} s")
    return {
        "workload": name,
        "seed": seed,
        "rounds": len(measured),
        "ops_per_round": len(ops),
        "samples": len(measured) * len(ops),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures[:20],
        "unstable": bool(reasons),
        "unstable_reasons": reasons,
        "metrics": metrics,
        "setup_runs_s": setup_seconds,
        "round_raw_s": raw_seconds,
        "round_calibrated_s": round_seconds,
        "calibrations_ms": [1000.0 * wall for wall in walls],
        "oracle": {repr(key): {"rows": expected.count,
                               "digest": expected.digest}
                   for key, expected in oracle.items()},
    }
