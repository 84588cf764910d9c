"""Property-based tests (hypothesis) of the core invariants.

These cover the algebraic laws the whole system relies on:

* Proposition 1/2 — semi-naive and naive fixpoint evaluation agree,
* Proposition 3 — fixpoint splitting: any split of the constant part gives
  the same result,
* stable-column partitioning produces pairwise disjoint local fixpoints,
* closure direction (left-to-right vs right-to-left) does not change the
  result,
* every plan produced by the rewriter is equivalent to the original,
* the distributed plans agree with the centralized evaluator,
* the relational operators satisfy their set-algebra laws.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import (Literal, RelVar, Union, closure, closure_from_seed,
                           evaluate, naive_fixpoint, schemas_of_database,
                           stable_columns)
from repro.data import Relation
from repro.distributed import (PGLD, PPLW_SPARK, ParallelLocalLoops,
                               PartitioningDecision, SparkCluster, make_plan)

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def edge_relations(draw, max_nodes: int = 8, max_edges: int = 16) -> Relation:
    """Small random binary relations over a bounded node domain."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)),
        min_size=1, max_size=max_edges))
    return Relation.from_pairs(pairs, columns=("src", "trg"))


@st.composite
def edge_and_seed(draw):
    edges = draw(edge_relations())
    pairs = sorted(edges.to_pairs("src", "trg"))
    seed_size = draw(st.integers(min_value=1, max_value=len(pairs)))
    seed = Relation.from_pairs(pairs[:seed_size], columns=("src", "trg"))
    return edges, seed


class TestFixpointLaws:
    @SETTINGS
    @given(edges=edge_relations())
    def test_semi_naive_equals_naive(self, edges):
        term = closure(RelVar("E"))
        database = {"E": edges}
        assert evaluate(term, database) == naive_fixpoint(term, database)

    @SETTINGS
    @given(edges=edge_relations())
    def test_closure_directions_agree(self, edges):
        database = {"E": edges}
        left = closure(RelVar("E"), direction="left-to-right")
        right = closure(RelVar("E"), direction="right-to-left")
        assert evaluate(left, database) == evaluate(right, database)

    @SETTINGS
    @given(data=edge_and_seed(), parts=st.integers(min_value=2, max_value=5))
    def test_fixpoint_splitting(self, data, parts):
        """Proposition 3: mu(R1 U R2 U phi) = mu(R1 U phi) U mu(R2 U phi)."""
        edges, seed = data
        database = {"E": edges}
        whole = evaluate(closure_from_seed(Literal(seed, "S"), RelVar("E")),
                         database)
        combined = Relation.empty(("src", "trg"))
        for chunk in seed.split_round_robin(parts):
            if not chunk:
                continue
            partial = evaluate(
                closure_from_seed(Literal(chunk, "Si"), RelVar("E")), database)
            combined = combined.union(partial)
        assert combined == whole

    @SETTINGS
    @given(data=edge_and_seed(), parts=st.integers(min_value=2, max_value=4))
    def test_stable_column_partitions_are_disjoint(self, data, parts):
        edges, seed = data
        database = {"E": edges}
        term = closure_from_seed(Literal(seed, "S"), RelVar("E"))
        stable = stable_columns(term, schemas_of_database(database))
        assert "src" in stable
        locals_ = []
        for chunk in seed.split_by_columns(("src",), parts):
            if not chunk:
                continue
            locals_.append(evaluate(
                closure_from_seed(Literal(chunk, "Si"), RelVar("E")), database))
        for i, first in enumerate(locals_):
            for second in locals_[i + 1:]:
                assert not (first.rows & second.rows)

    @SETTINGS
    @given(edges=edge_relations(), workers=st.integers(min_value=1, max_value=6))
    def test_distributed_plans_agree_with_centralized(self, edges, workers):
        database = {"E": edges}
        term = closure(RelVar("E"))
        reference = evaluate(term, database)
        for strategy in (PGLD, PPLW_SPARK):
            cluster = SparkCluster(num_workers=workers)
            assert make_plan(strategy, cluster, database).execute(term) == reference
        # Split round robin, the local fixpoints overlap: the final union
        # deduplicates.
        round_robin = ParallelLocalLoops(
            SparkCluster(num_workers=workers), database,
            partitioning_override=PartitioningDecision.round_robin())
        assert round_robin.execute(term) == reference


class TestRelationAlgebraLaws:
    @SETTINGS
    @given(left=edge_relations(), right=edge_relations())
    def test_union_is_commutative_and_idempotent(self, left, right):
        assert left.union(right) == right.union(left)
        assert left.union(left) == left

    @SETTINGS
    @given(left=edge_relations(), right=edge_relations())
    def test_difference_and_antijoin_contain_no_right_rows(self, left, right):
        difference = left.difference(right)
        assert not (difference.rows & right.rows)
        assert difference.rows <= left.rows

    @SETTINGS
    @given(left=edge_relations(), right=edge_relations())
    def test_join_with_itself_is_identity(self, left, right):
        assert left.natural_join(left) == left

    @SETTINGS
    @given(edges=edge_relations())
    def test_rename_roundtrip(self, edges):
        assert edges.rename("trg", "m").rename("m", "trg") == edges

    @SETTINGS
    @given(edges=edge_relations(), parts=st.integers(min_value=1, max_value=7))
    def test_partitioning_preserves_rows(self, edges, parts):
        for split in (edges.split_round_robin(parts),
                      edges.split_by_columns(("src",), parts)):
            rebuilt = set()
            for chunk in split:
                rebuilt |= chunk.rows
            assert rebuilt == edges.rows


def _warm(relation: Relation, *key_columns: str) -> Relation:
    """Prebuild the hash index(es) the operators would probe."""
    for column in key_columns:
        relation.index_on((column,))
    return relation


class TestRelationAlgebraLawsIndexed:
    """The storage fast paths (memoized indexes, trusted constructors) must
    not drift from set semantics: every law holds with indexes cold and
    with indexes warmed beforehand."""

    @SETTINGS
    @given(left=edge_relations(), right=edge_relations())
    def test_union_laws_cold_and_warm(self, left, right):
        cold = left.union(right)
        warm = _warm(left, "src", "trg").union(_warm(right, "src", "trg"))
        assert cold == warm == right.union(left)
        assert left.union(left) == left

    @SETTINGS
    @given(a=edge_relations(), b=edge_relations(), c=edge_relations())
    def test_join_is_associative_and_commutative(self, a, b, c):
        b = b.rename_many({"src": "trg", "trg": "mid"})
        c = c.rename_many({"src": "mid", "trg": "fin"})
        cold = a.natural_join(b).natural_join(c)
        assert cold == a.natural_join(b.natural_join(c))
        assert cold == c.natural_join(b).natural_join(a)
        # Same associativity with every index warmed up front.
        for relation in (a, b, c):
            for column in relation.columns:
                relation.index_on((column,))
        warm = a.natural_join(b).natural_join(c)
        assert warm == cold

    @SETTINGS
    @given(left=edge_relations(), right=edge_relations())
    def test_same_schema_antijoin_is_difference(self, left, right):
        """With all columns in common, the antijoin IS the set difference."""
        cold = left.antijoin(right)
        assert cold == left.difference(right)
        _warm(right, "src", "trg")
        right.index_on(("src", "trg"))
        assert left.antijoin(right) == cold

    @SETTINGS
    @given(left=edge_relations(), right=edge_relations())
    def test_antijoin_join_partition(self, left, right):
        """Antijoin and semijoin partition the left side."""
        matched = left.difference(left.antijoin(right))
        joined = left.natural_join(right).project(left.columns) \
            .intersection(left)
        assert matched.rows <= left.rows
        assert matched == joined

    @SETTINGS
    @given(edges=edge_relations())
    def test_warmed_join_with_itself_is_identity(self, edges):
        _warm(edges, "src", "trg")
        edges.index_on(("src", "trg"))
        assert edges.natural_join(edges) == edges

    @SETTINGS
    @given(left=edge_relations(), right=edge_relations())
    def test_distributivity_of_join_over_union(self, left, right):
        other = _warm(left.rename_many({"src": "trg", "trg": "out"}), "trg")
        cold = left.union(right).natural_join(other)
        assert cold == left.natural_join(other).union(right.natural_join(other))


class TestRewriterEquivalence:
    @SETTINGS
    @given(data=edge_and_seed())
    def test_every_explored_plan_is_equivalent(self, data):
        from repro.rewriter import explore_plans
        edges, seed = data
        database = {"E": edges, "S": seed}
        term = Union(RelVar("S"),
                     closure_from_seed(RelVar("S"), RelVar("E")))
        reference = evaluate(term, database)
        for plan in explore_plans(term, schemas_of_database(database),
                                  max_plans=12):
            assert evaluate(plan, database) == reference
