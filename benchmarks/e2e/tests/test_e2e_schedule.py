"""Operations, their order and the oracle are functions of the seed alone."""

import pytest

from e2e.oracle import Expected, Verdict, build_oracle, verify
from e2e.workloads import (ADD, ADDED, BASE, HTTP, REMOVE, WORKLOADS,
                           ZIPF_EXPONENT, Op, _writable_pairs, arrange,
                           build_dataset, zipf_counts)


@pytest.fixture(scope="module")
def data():
    return build_dataset()


def schedule(name, data, seed, round_index=0):
    return arrange(WORKLOADS[name].operations(data, seed), seed, round_index)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_seed_determines_the_schedule(data, name):
    assert schedule(name, data, 7) == schedule(name, data, 7)
    assert schedule(name, data, 7) != schedule(name, data, 11)
    assert schedule(name, data, 7, 3) == schedule(name, data, 7, 3)
    # Rounds differ in order only.
    assert schedule(name, data, 7, 3) != schedule(name, data, 7)
    assert (sorted(schedule(name, data, 7, 3), key=repr)
            == sorted(schedule(name, data, 7), key=repr))
    # What is asked of the system does not depend on the seed: the same
    # number of operations of each kind, the same queries equally often.
    for seed in (11, 12):
        assert (sorted((op.kind, op.text) for op in schedule(name, data, seed))
                == sorted((op.kind, op.text)
                          for op in schedule(name, data, 7)))


def test_oracle_digests_repeat_per_seed_and_differ_between_seeds(data):
    operations = WORKLOADS["bind-selective"].operations

    def digests(seed):
        oracle = build_oracle(data, operations(data, seed))
        return {key: (e.count, e.digest) for key, e in oracle.items()}

    assert digests(7) == digests(7)
    assert digests(7) != digests(11)


def test_a_round_of_writes_restores_the_database(data):
    ops = schedule("http-rw", data, 7, round_index=5)
    writes = [op for op in ops if op.kind in (ADD, REMOVE)]
    assert [op.kind for op in writes] == [ADD, REMOVE]
    assert writes[0].args == writes[1].args
    existing = data.database[writes[0].text].rows
    assert not set(writes[0].args) & existing
    between = ops[ops.index(writes[0]) + 1:ops.index(writes[1])]
    assert {op.state for op in between} == {ADDED}
    assert {op.state for op in ops[ops.index(writes[1]) + 1:]} == {BASE}


def test_written_edges_are_new_and_leave_a_leaf_of_the_hierarchy(data):
    located = data.database["isLocatedIn"].rows
    pairs = _writable_pairs(data)
    assert len(pairs) > 1000
    assert not set(pairs) & located
    assert not {src for src, _ in pairs} & {trg for _, trg in located}
    ops = WORKLOADS["http-rw"].operations(data, 11)
    assert set(ops[0].args) <= set(pairs)


def test_zipf_counts_keep_the_skew_without_the_sampling_noise():
    counts = zipf_counts(16, 300, ZIPF_EXPONENT)
    assert sum(counts) == 300
    assert counts == sorted(counts, reverse=True)
    assert min(counts) >= 1
    assert counts[0] > 10 * counts[-1]


def expected(rows) -> Expected:
    ordered = sorted(rows, key=repr)
    return Expected(columns=("src", "trg"), rows=frozenset(rows),
                    ordered=[list(row) for row in ordered],
                    count=len(ordered), digest="-")


def test_verify_accepts_any_row_order_and_rejects_everything_else():
    op = Op(HTTP, "q")
    oracle = {op.oracle_key: expected({("a", "b"), ("c", 1)})}

    def judge(raw) -> Verdict:
        return verify(op, raw, oracle)

    good = {"status": "ok", "columns": ["src", "trg"],
            "rows": [["a", "b"], ["c", 1]]}
    assert judge(good).ok
    assert judge({**good, "rows": [["c", 1], ["a", "b"]]}).ok
    assert not judge({**good, "rows": [["a", "b"]]}).ok
    assert not judge({**good, "rows": [["a", "b"], ["c", 2]]}).ok
    assert not judge({**good, "columns": ["trg", "src"]}).ok
    assert not judge({"status": "failed", "detail": "timed out"}).ok
    assert not judge(RuntimeError("connection reset")).ok
    commit = Op(ADD, "isLocatedIn", args=(("a", "b"),), state=ADDED)
    assert verify(commit, {"committed": True, "touched": ["isLocatedIn"]},
                  oracle).ok
    assert not verify(commit, {"committed": False, "touched": []}, oracle).ok
