"""Facts kept on term nodes: the structural hash and what the analyses
derive from a node's children, each computed once per node object."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import Session
from repro.algebra import (Filter, Fixpoint, Join, RelVar, closure, compose,
                           decompose, free_variables)
from repro.algebra.conditions import fcond_holds_throughout
from repro.algebra.terms import NODE_TYPES
from repro.algebra.visitors import walk
from repro.data import Eq
from repro.rewriter.normalize import cache_key, canonicalize
from repro.service.plan_cache import plan_facts

SRC = Path(__file__).resolve().parents[2] / "src"
QUERY = "?x,?y <- ?x knows/(isLocatedIn+) ?y"


def a_term():
    """A fresh term with a filter, a join, renames and two fixpoints."""
    inner = closure(RelVar("isLocatedIn"))
    return Filter(Eq("src", "alice"),
                  compose(RelVar("knows"), compose(inner, closure(
                      RelVar("livesIn")))))


def test_the_structural_hash_runs_once_per_node(monkeypatch):
    computed = []
    for node_type in NODE_TYPES:
        compared = node_type._compared
        monkeypatch.setattr(
            node_type, "_compared",
            staticmethod(lambda node, compared=compared:
                         computed.append(node) or compared(node)))
    term = a_term()
    nodes = {id(node): node for node in walk(term)}     # shared ones once
    for _ in range(3):
        hash(term)
        for node in nodes.values():
            hash(node)
    assert sorted(map(id, computed)) == sorted(nodes)


def test_the_hash_is_the_dataclass_hash_of_the_compared_fields():
    term = a_term()
    fixpoint = next(node for node in walk(term) if isinstance(node, Fixpoint))
    assert hash(fixpoint) == hash((fixpoint.var, fixpoint.body))
    assert hash(RelVar("knows")) == hash(("knows",))
    flipped = dataclasses.replace(fixpoint, direction="right-to-left")
    assert flipped == fixpoint and hash(flipped) == hash(fixpoint)


def test_equality_returns_on_identity_or_on_unequal_hashes(monkeypatch):
    compared = []
    for node_type in NODE_TYPES:
        original = node_type._compared
        monkeypatch.setattr(
            node_type, "_compared",
            staticmethod(lambda node, original=original:
                         compared.append(node) or original(node)))
    term = a_term()
    one, other = Join(RelVar("a"), RelVar("b")), Join(RelVar("a"), RelVar("c"))
    twin = Join(RelVar("a"), RelVar("b"))
    for node in (term, one, other, twin):
        hash(node)
    compared.clear()
    assert term == term and one != other and not one == other
    assert compared == []                   # no field was read
    assert one == twin and compared         # equal hashes: fields compared


def test_facts_are_not_fields(small_labeled_graph):
    term = Session(small_labeled_graph).translate(QUERY)
    fixpoint = next(node for node in walk(term) if isinstance(node, Fixpoint))
    hash(term), free_variables(term), decompose(fixpoint)
    fcond_holds_throughout(term), plan_facts(term), canonicalize(term)
    field_names = {field.name for field in dataclasses.fields(fixpoint)}
    assert set(vars(fixpoint)) > field_names      # facts are kept ...
    assert "_decompose" in vars(fixpoint) and "_hash" in vars(term)
    # ... and read by nothing that reads fields: pickling drops them,
    twin = pickle.loads(pickle.dumps(term))
    assert set(vars(twin)) == {field.name for field
                               in dataclasses.fields(twin)}
    # equality and printing ignore them,
    assert twin == term and repr(twin) == repr(term)
    assert "_hash" not in repr(term) and "_decompose" not in repr(fixpoint)
    # and ``dataclasses.replace`` does not carry them over.
    copy = dataclasses.replace(fixpoint)
    assert set(vars(copy)) == field_names and copy == fixpoint


def test_a_fact_is_computed_once_per_node():
    term = a_term()
    fixpoint = next(node for node in walk(term) if isinstance(node, Fixpoint))
    assert free_variables(term) is free_variables(term)
    assert decompose(fixpoint) is decompose(fixpoint)
    assert plan_facts(term) is plan_facts(term)
    assert plan_facts(term) == (cache_key(term), free_variables(term))


_PICKLE = """
import pickle, sys
sys.path.insert(0, {src!r})
from repro.algebra import Filter, RelVar, closure, compose
from repro.data import Eq
term = Filter(Eq("src", "alice"), compose(RelVar("knows"),
                                          closure(RelVar("isLocatedIn"))))
hash(term)
sys.stdout.buffer.write(pickle.dumps(term))
"""

_UNPICKLE = """
import pickle, sys
sys.path.insert(0, {src!r})
from repro.algebra import Filter, RelVar, closure, compose
from repro.data import Eq
term = pickle.loads(sys.stdin.buffer.read())
fresh = Filter(Eq("src", "alice"), compose(RelVar("knows"),
                                           closure(RelVar("isLocatedIn"))))
assert "_hash" not in vars(term)
assert hash(term) == hash(fresh), (hash(term), hash(fresh))
assert term == fresh and {{fresh: 1}}[term] == 1
print("ok")
"""


def _python(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    return subprocess.run([sys.executable, "-c", code.format(src=str(SRC))],
                          input=stdin, env=env, capture_output=True,
                          check=True, timeout=60).stdout


def test_a_pickled_term_rehashes_under_another_hash_seed():
    """The kept hash is dropped on pickle: unpickled under another
    ``PYTHONHASHSEED``, the term hashes as a fresh equal term does."""
    pickled = _python(_PICKLE, seed="1")
    assert _python(_UNPICKLE, seed="2", stdin=pickled).strip() == b"ok"


def test_concurrent_first_readers_get_equal_facts(small_labeled_graph):
    """Eight threads read the facts of one fresh term at once; each
    computes or reads them, and all get equal values."""
    session = Session(small_labeled_graph)
    term = session.translate(QUERY)
    barrier = threading.Barrier(8)
    results = [None] * 8

    def read(index):
        barrier.wait()
        fixpoint = next(node for node in walk(term)
                        if isinstance(node, Fixpoint))
        results[index] = (hash(term), free_variables(term),
                          decompose(fixpoint), fcond_holds_throughout(term),
                          plan_facts(term), canonicalize(term))

    threads = [threading.Thread(target=read, args=(index,))
               for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == results[0] for result in results)
    assert results[0][4] == (cache_key(term), free_variables(term))


@pytest.mark.parametrize("make", [a_term, lambda: canonicalize(a_term())])
def test_canonicalize_returns_a_canonical_term_as_it_is(make):
    term = canonicalize(make())
    assert canonicalize(term) is term
