"""Unit tests of the columnar layer: value dictionaries, encoded
relations, the delta accumulators and the engine switch."""

from __future__ import annotations

import threading
from array import array

import pytest

from repro.data.columnar import (SNAPSHOT_DICTIONARY_KEY, CodeGroups, CodeRows,
                                 ColumnarDeltaAccumulator, ColumnarRelation,
                                 GroupedDeltaAccumulator, ValueDictionary,
                                 columnar_enabled, decode_rows, row_mode,
                                 snapshot_dictionary)
from repro.data.relation import Relation
from repro.data.snapshot import DatabaseSnapshot


def edges(pairs):
    return Relation.from_pairs(pairs, columns=("src", "trg"))


class TestValueDictionary:
    def test_interns_each_value_once(self):
        dictionary = ValueDictionary()
        a = dictionary.encode("a")
        b = dictionary.encode("b")
        assert a != b
        assert dictionary.encode("a") == a
        assert len(dictionary) == 2
        assert dictionary.decode(a) == "a"
        assert dictionary.lookup("b") == b
        assert dictionary.lookup("missing") is None

    def test_encode_column_matches_encode(self):
        dictionary = ValueDictionary()
        codes = dictionary.encode_column(["x", "y", "x", "z"])
        assert isinstance(codes, array)
        assert list(codes) == [dictionary.encode(v)
                               for v in ("x", "y", "x", "z")]

    def test_concurrent_interning_assigns_unique_codes(self):
        dictionary = ValueDictionary()
        results = {}

        def intern(worker):
            results[worker] = [dictionary.encode(i % 50) for i in range(500)]

        threads = [threading.Thread(target=intern, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(dictionary) == 50
        first = results[0]
        assert all(results[w] == first for w in results)


class TestSnapshotDictionary:
    def test_snapshot_memoizes_one_dictionary(self):
        snapshot = DatabaseSnapshot({"E": edges([(1, 2)])})
        first = snapshot_dictionary(snapshot)
        assert snapshot_dictionary(snapshot) is first
        assert snapshot.derived(SNAPSHOT_DICTIONARY_KEY,
                                lambda _: None) is first


class TestColumnarRelation:
    def test_round_trip_is_identity(self):
        relation = edges([(1, 2), (2, 3), (3, 1)])
        encoded = relation.columnar(ValueDictionary())
        assert len(encoded) == 3
        assert encoded.to_relation() == relation

    def test_empty_relation_round_trips(self):
        relation = Relation.empty(("src", "trg"))
        encoded = ColumnarRelation.from_relation(relation, ValueDictionary())
        assert len(encoded) == 0
        assert encoded.to_relation() == relation

    def test_wide_relation_round_trips(self):
        relation = Relation.from_dicts(
            [{"a": 1, "b": 2, "c": 3}, {"a": 4, "b": 5, "c": 6}])
        encoded = relation.columnar(ValueDictionary())
        assert encoded.to_relation() == relation

    def test_encoding_is_memoized_per_dictionary(self):
        relation = edges([(1, 2)])
        dictionary = ValueDictionary()
        assert relation.columnar(dictionary) is relation.columnar(dictionary)
        other = ValueDictionary()
        assert relation.columnar(other) is not relation.columnar(dictionary)

    def test_index_on_is_memoized_and_maps_codes_to_rows(self):
        dictionary = ValueDictionary()
        encoded = edges([(1, 2), (1, 3), (2, 3)]).columnar(dictionary)
        assert not encoded.has_index((0,))
        index = encoded.index_on((0,))
        assert encoded.has_index((0,))
        assert encoded.index_on((0,)) is index
        rows_of_one = index[dictionary.encode(1)]
        assert len(rows_of_one) == 2

    def test_payload_index_maps_key_codes_to_payload_codes(self):
        """What a fused join probes: bare ints for one-column keys and
        payloads, tuples for wider ones, memoized per layout beside the
        row-position index."""
        dictionary = ValueDictionary()
        encoded = edges([(1, 2), (1, 3), (2, 3)]).columnar(dictionary)
        code = dictionary.encode
        assert not encoded.has_index((0,), (1,))
        index = encoded.index_on((0,), (1,))
        assert encoded.has_index((0,), (1,)) and not encoded.has_index((0,))
        assert encoded.index_on((0,), (1,)) is index
        assert {key: sorted(bucket) for key, bucket in index.items()} == {
            code(1): sorted([code(2), code(3)]), code(2): [code(3)]}
        assert all(isinstance(bucket, tuple) for bucket in index.values())
        wide = Relation.from_dicts(
            [{"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 2, "c": 4},
             {"a": 1, "b": 5, "c": 3}]).columnar(dictionary)
        assert {key: sorted(bucket) for key, bucket
                in wide.index_on((0, 1), (2,)).items()} == {
            (code(1), code(2)): sorted([code(3), code(4)]),
            (code(1), code(5)): [code(3)]}
        assert wide.index_on((2,), (1, 0))[code(4)] == ((code(2), code(1)),)
        # A column that is neither key nor payload must not multiply the
        # matches: a=1 carries b in {2, 5}, once each.
        assert sorted(wide.index_on((0,), (1,))[code(1)]) \
            == sorted([code(2), code(5)])


class TestColumnarDeltaAccumulator:
    """The accumulator works on the kernels' own representation: sets of
    code tuples in, the genuinely new ones out, nothing transposed."""

    COLUMNS = ("src", "trg")

    def test_absorb_returns_only_new_rows(self):
        accumulator = ColumnarDeltaAccumulator(self.COLUMNS,
                                               {(0, 1), (1, 2)})
        delta = accumulator.absorb({(1, 2), (2, 3)})
        assert delta == {(2, 3)}
        assert len(accumulator) == 3

    def test_absorb_of_known_rows_returns_empty_batch(self):
        accumulator = ColumnarDeltaAccumulator(self.COLUMNS, {(0, 1)})
        delta = accumulator.absorb({(0, 1)})
        assert len(delta) == 0
        assert len(accumulator) == 1

    def test_the_seed_and_the_produced_sets_are_left_alone(self):
        """The seed set is also the first frontier, and a step may return
        a set it holds on to (a constant under a union)."""
        seed = {(0, 1)}
        produced = frozenset({(0, 1), (1, 2)})
        accumulator = ColumnarDeltaAccumulator(self.COLUMNS, seed)
        fresh = accumulator.absorb(produced)
        assert seed == {(0, 1)} and len(produced) == 2
        accumulator.absorb({(5, 6)})
        assert fresh == {(1, 2)}

    def test_relation_decodes_accumulated_rows_once(self):
        dictionary = ValueDictionary()
        seed = edges([(0, 1), (1, 2)]).columnar(dictionary)
        accumulator = ColumnarDeltaAccumulator(seed.columns, seed.code_rows())
        accumulator.absorb({(dictionary.encode(0), dictionary.encode(2))})
        assert accumulator.relation(dictionary) == edges(
            [(0, 1), (1, 2), (0, 2)])

    def test_wide_rows_decode_through_the_generic_path(self):
        dictionary = ValueDictionary()
        relation = Relation.from_dicts([{"a": 1, "b": 2, "c": 3}])
        encoded = relation.columnar(dictionary)
        accumulator = ColumnarDeltaAccumulator(encoded.columns,
                                               encoded.code_rows())
        assert accumulator.relation(dictionary) == relation

    @pytest.mark.parametrize("columns", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_an_empty_result_decodes_to_the_empty_relation(self, columns):
        accumulator = ColumnarDeltaAccumulator(columns, set())
        assert accumulator.relation(ValueDictionary()) \
            == Relation.empty(columns)

    def test_one_column_rows_decode(self):
        dictionary = ValueDictionary()
        rows = {(dictionary.encode("x"),), (dictionary.encode("y"),)}
        assert decode_rows(("a",), rows, dictionary) \
            == Relation(("a",), [("x",), ("y",)])


class TestGroupedDeltaAccumulator:
    """The same contract over a binary relation factorized on its stable
    column: ``len()`` counts rows, dedup is per key, decode per key."""

    COLUMNS = ("src", "trg")

    def test_code_groups_factorize_on_either_column(self):
        dictionary = ValueDictionary()
        encoded = CodeRows.encode(edges([(0, 1), (0, 2), (3, 2)]), dictionary)
        code = dictionary.encode
        assert encoded.code_groups(0) == {code(0): {code(1), code(2)},
                                          code(3): {code(2)}}
        assert encoded.code_groups(1) == {code(1): {code(0)},
                                          code(2): {code(0), code(3)}}
        assert len(encoded.code_groups(1)) == 3   # rows, not keys

    def test_an_empty_seed(self):
        dictionary = ValueDictionary()
        seed = CodeRows.encode(edges([]), dictionary).code_groups(0)
        accumulator = GroupedDeltaAccumulator(self.COLUMNS, 0, seed)
        assert len(seed) == len(accumulator) == 0
        assert accumulator.relation(dictionary) == Relation.empty(self.COLUMNS)

    def test_a_key_whose_every_derivation_is_already_seen(self):
        accumulator = GroupedDeltaAccumulator(
            self.COLUMNS, 0, CodeGroups({0: {1, 2}, 5: {6}}))
        fresh = accumulator.absorb(CodeGroups({0: {1, 2}, 5: {6, 7}}))
        assert fresh == {5: {7}} and len(fresh) == 1
        assert len(accumulator) == 4
        assert accumulator.absorb(CodeGroups({0: {2}, 5: set()})) == {}

    def test_the_seed_is_left_alone(self):
        """The seed's groups are also the first frontier."""
        seed = CodeGroups({0: {1}})
        accumulator = GroupedDeltaAccumulator(self.COLUMNS, 0, seed)
        accumulator.absorb(CodeGroups({0: {2}}))
        assert seed == {0: {1}}

    @pytest.mark.parametrize("key", [0, 1])
    def test_decode_equals_decode_rows_of_the_flat_set(self, key):
        dictionary = ValueDictionary()
        relation = edges([("a", "b"), ("a", "c"), ("d", "b"), (7, "a")])
        encoded = relation.columnar(dictionary)
        accumulator = GroupedDeltaAccumulator(
            self.COLUMNS, key, CodeRows.encode(relation, dictionary)
            .code_groups(key))
        code = dictionary.encode
        produced = CodeGroups({code("a"): {code("e")}} if key == 0
                              else {code("b"): {code(7)}})
        accumulator.absorb(produced)
        flat = encoded.code_rows() | {(code("a"), code("e")) if key == 0
                                      else (code(7), code("b"))}
        assert accumulator.relation(dictionary) \
            == decode_rows(self.COLUMNS, flat, dictionary)
        assert len(accumulator) == len(flat) == 5


class TestEngineSwitch:
    def test_columnar_enabled_by_default(self):
        assert columnar_enabled()

    def test_row_mode_disables_and_restores(self):
        with row_mode():
            assert not columnar_enabled()
        assert columnar_enabled()

    def test_row_mode_nests_and_restores_on_error(self):
        with pytest.raises(RuntimeError), row_mode():
            with row_mode():
                pass
            assert not columnar_enabled()  # leaving the inner block
            raise RuntimeError("inside row_mode")
        assert columnar_enabled()
