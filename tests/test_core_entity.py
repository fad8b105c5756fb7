"""Tests for entity-batch validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.entity import (
    EntityBatch, require_number, reset_auto_id_counter, validate_batch,
    validate_queries,
)
from repro.core.schema import CollectionSchema, DataType, FieldSchema
from repro.errors import FieldNotFound, InvalidQuery, ManuError, SchemaError


@pytest.fixture
def schema():
    return CollectionSchema([
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=4),
        FieldSchema("price", DataType.FLOAT),
        FieldSchema("label", DataType.STRING),
    ])


@pytest.fixture
def explicit_schema():
    return CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=4),
    ])


def good_data(n=3):
    return {
        "vector": np.ones((n, 4), dtype=np.float32),
        "price": [1.0, 2.0, 3.0][:n],
        "label": ["a", "b", "c"][:n],
    }


class TestAutoId:
    def test_auto_ids_assigned_sequentially(self, schema):
        batch = validate_batch(schema, good_data())
        assert batch.pks == (1, 2, 3)
        again = validate_batch(schema, good_data())
        assert again.pks == (4, 5, 6)

    def test_reset_counter(self, schema):
        validate_batch(schema, good_data())
        reset_auto_id_counter()
        batch = validate_batch(schema, good_data())
        assert batch.pks == (1, 2, 3)

    def test_supplying_auto_id_rejected(self, schema):
        data = good_data()
        data["_auto_id"] = [1, 2, 3]
        with pytest.raises(SchemaError):
            validate_batch(schema, data)


class TestExplicitPk:
    def test_pks_from_data(self, explicit_schema):
        batch = validate_batch(explicit_schema, {
            "pk": [10, 20], "vector": np.zeros((2, 4), dtype=np.float32)})
        assert batch.pks == (10, 20)

    def test_missing_pk_rejected(self, explicit_schema):
        with pytest.raises(SchemaError):
            validate_batch(explicit_schema,
                           {"vector": np.zeros((2, 4), dtype=np.float32)})

    def test_duplicate_pks_rejected(self, explicit_schema):
        with pytest.raises(SchemaError):
            validate_batch(explicit_schema, {
                "pk": [1, 1],
                "vector": np.zeros((2, 4), dtype=np.float32)})

    def test_string_pks(self):
        schema = CollectionSchema([
            FieldSchema("pk", DataType.STRING, is_primary=True),
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=4),
        ])
        batch = validate_batch(schema, {
            "pk": ["x", "y"],
            "vector": np.zeros((2, 4), dtype=np.float32)})
        assert batch.pks == ("x", "y")


class TestValidation:
    def test_unknown_field_rejected(self, schema):
        data = good_data()
        data["extra"] = [1, 2, 3]
        with pytest.raises(SchemaError, match="unknown fields"):
            validate_batch(schema, data)

    def test_missing_field_rejected(self, schema):
        data = good_data()
        del data["price"]
        with pytest.raises(SchemaError, match="missing fields"):
            validate_batch(schema, data)

    def test_ragged_batch_rejected(self, schema):
        data = good_data()
        data["price"] = [1.0]
        with pytest.raises(SchemaError, match="ragged"):
            validate_batch(schema, data)

    def test_empty_batch_rejected(self, schema):
        with pytest.raises(SchemaError, match="empty"):
            validate_batch(schema, {
                "vector": np.zeros((0, 4), dtype=np.float32),
                "price": [], "label": []})

    def test_wrong_dim_rejected(self, schema):
        data = good_data()
        data["vector"] = np.ones((3, 5), dtype=np.float32)
        with pytest.raises(SchemaError, match="dim"):
            validate_batch(schema, data)

    def test_nan_vector_rejected(self, schema):
        data = good_data()
        data["vector"] = np.full((3, 4), np.nan, dtype=np.float32)
        with pytest.raises(SchemaError, match="non-finite"):
            validate_batch(schema, data)

    def test_non_string_label_rejected(self, schema):
        data = good_data()
        data["label"] = [1, 2, 3]
        with pytest.raises(SchemaError, match="strings"):
            validate_batch(schema, data)

    @pytest.mark.parametrize("field,column", [
        ("vector", "abc"),                     # a string column
        ("label", "abc"),                      # ... even of strings
        ("price", 3.5),                        # a scalar column
        ("label", None),                       # no column at all
        ("price", ["a", "b", "c"]),            # non-numeric FLOAT values
        ("vector", [[1, 2, 3, 4], [1, 2], [1, 2, 3, 4]]),  # ragged rows
    ])
    def test_malformed_column_is_a_schema_error(self, schema, field,
                                                column):
        data = good_data()
        data[field] = column
        with pytest.raises(SchemaError, match=field):
            validate_batch(schema, data)

    def test_non_mapping_data_is_a_schema_error(self, schema):
        with pytest.raises(SchemaError, match="maps field names"):
            validate_batch(schema, [1, 2, 3])

    _values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=3)
        | st.floats(allow_nan=True, allow_infinity=True),
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=12)

    @settings(max_examples=300, deadline=None)
    @given(data=_values | st.fixed_dictionaries(
        dict.fromkeys(["pk", "vector", "price", "label", "flag"], _values),
        optional={"x": _values, 7: _values}))
    def test_arbitrary_data_validates_or_is_a_manu_error(self, data):
        """Whatever a caller hands ``insert``, validation answers in the
        package's own terms: a batch, or a :class:`ManuError`."""
        keyed = CollectionSchema([
            FieldSchema("pk", DataType.INT64, is_primary=True),
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=2),
            FieldSchema("price", DataType.FLOAT),
            FieldSchema("label", DataType.STRING),
            FieldSchema("flag", DataType.BOOL),
        ])
        try:
            assert isinstance(validate_batch(keyed, data), EntityBatch)
        except ManuError:
            pass

    def test_vector_cast_to_float32(self, schema):
        data = good_data()
        data["vector"] = [[1, 2, 3, 4]] * 3
        batch = validate_batch(schema, data)
        assert batch.columns["vector"].dtype == np.float32

    def test_int_column_coercion(self):
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=2),
            FieldSchema("count", DataType.INT64),
        ])
        batch = validate_batch(schema, {
            "vector": np.zeros((2, 2), dtype=np.float32),
            "count": [1.0, 2.0]})  # integral floats accepted
        assert batch.columns["count"].dtype == np.int64
        with pytest.raises(SchemaError):
            validate_batch(schema, {
                "vector": np.zeros((2, 2), dtype=np.float32),
                "count": [1.5, 2.0]})

    def test_bool_column(self):
        schema = CollectionSchema([
            FieldSchema("vector", DataType.FLOAT_VECTOR, dim=2),
            FieldSchema("flag", DataType.BOOL),
        ])
        batch = validate_batch(schema, {
            "vector": np.zeros((2, 2), dtype=np.float32),
            "flag": np.array([True, False])})
        assert batch.columns["flag"].dtype == np.bool_


class TestQueryValidation:
    """The read-side twin: query rows per vector field, typed errors."""

    def test_blocks_are_keyed_by_field_and_float32(self, schema):
        blocks = validate_queries(schema, {
            None: [1, 2, 3, 4],                       # the default field
        })
        assert list(blocks) == ["vector"]
        assert blocks["vector"].shape == (1, 4)
        assert blocks["vector"].dtype == np.float32
        block = np.ones((3, 4), dtype=np.float32)
        assert validate_queries(schema, {"vector": block})["vector"] is block
        assert validate_queries(schema, {}) == {}

    @pytest.mark.parametrize("rows", [
        np.zeros(5), np.zeros((2, 3)), np.zeros((2, 2, 4)),
        [0.0, 1.0, np.nan, 0.0], [[np.inf] * 4], ["a", "b", "c", "d"],
        [[0.0] * 4, [0.0] * 3], None,
    ])
    def test_malformed_rows_are_invalid_queries(self, schema, rows):
        with pytest.raises(InvalidQuery, match="malformed query"):
            validate_queries(schema, {"vector": rows})

    def test_scalar_and_unknown_fields(self, schema):
        with pytest.raises(InvalidQuery, match="holds no vectors"):
            validate_queries(schema, {"price": [1.0]})
        with pytest.raises(FieldNotFound):
            validate_queries(schema, {"nope": np.zeros(4)})

    def test_require_number(self):
        require_number("k", 1, 1, integer=True)
        require_number("k", np.int64(7), 1, integer=True)
        require_number("radius", 0.0, 0)
        require_number("radius", -3.5, -np.inf)
        for value, least, integer in [
                (0, 1, True), (2.5, 1, True), (None, 1, True),
                ("3", 1, True), (-1e-9, 0, False), (np.nan, 0, False),
                (np.inf, 0, False), (np.nan, -np.inf, False),
                ("wide", 0, False), (None, 0, False)]:
            with pytest.raises(InvalidQuery, match="limit must be"):
                require_number("limit", value, least, integer=integer)
