"""Entity-batch and query validation and normalization.

The proxy validates user insert payloads against the collection schema
before anything reaches the log: vector dimensions, scalar types, column
alignment, primary-key presence (or auto-id generation), and duplicate keys
within a batch.  The result is a normalized ``EntityBatch`` whose columns
are numpy arrays / lists aligned with its primary keys.  Read requests get
the same treatment before any query node is asked (``validate_queries``,
``require_number``): a malformed one is an :class:`InvalidQuery`.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.schema import CollectionSchema, DataType
from repro.errors import InvalidQuery, SchemaError

_auto_id_counter = itertools.count(1)


def reset_auto_id_counter() -> None:
    """Reset the process-wide auto-id sequence (test isolation only)."""
    global _auto_id_counter
    _auto_id_counter = itertools.count(1)


@dataclass(frozen=True)
class EntityBatch:
    """A validated batch: primary keys plus aligned columns."""

    pks: tuple
    columns: Mapping[str, Any]

    @property
    def num_rows(self) -> int:
        return len(self.pks)


def _as_array(label: str, values: Any, ndim: int, dtype=None) -> np.ndarray:
    """``np.asarray`` for one column; what numpy refuses (ragged rows,
    non-numeric values) or shapes otherwise is a malformed request."""
    try:
        arr = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{label}: {exc}") from None
    if arr.ndim != ndim:
        raise SchemaError(
            f"{label}: expected a {ndim}-D array, got shape {arr.shape}")
    return arr


def _coerce_scalar_column(name: str, dtype: DataType,
                          values: Sequence) -> Any:
    if dtype is DataType.INT64:
        arr = _as_array(f"field {name!r}", values, 1)
        if arr.dtype.kind not in "iu":
            if arr.dtype.kind == "f" and np.allclose(arr, arr.astype(np.int64)):
                arr = arr.astype(np.int64)
            else:
                raise SchemaError(
                    f"field {name!r}: expected integers, got {arr.dtype}")
        return arr.astype(np.int64)
    if dtype is DataType.FLOAT:
        return _as_array(f"field {name!r}", values, 1, np.float64)
    if dtype is DataType.BOOL:
        arr = _as_array(f"field {name!r}", values, 1)
        if arr.dtype != np.bool_:
            raise SchemaError(
                f"field {name!r}: expected booleans, got {arr.dtype}")
        return arr
    if dtype is DataType.STRING:
        if isinstance(values, str):
            raise SchemaError(
                f"field {name!r}: expected a column of strings, got one")
        out = []
        for value in values:
            if not isinstance(value, str):
                raise SchemaError(
                    f"field {name!r}: expected strings, got "
                    f"{type(value).__name__}")
            out.append(value)
        return out
    raise SchemaError(f"field {name!r}: unsupported dtype {dtype}")


def _coerce_vector_column(name: str, dim: int, values: Any) -> np.ndarray:
    arr = _as_array(f"vector field {name!r}", values, 2, np.float32)
    if arr.shape[1] != dim:
        raise SchemaError(
            f"vector field {name!r}: expected dim {dim}, got {arr.shape[1]}")
    if not np.isfinite(arr).all():
        raise SchemaError(f"vector field {name!r}: non-finite values")
    return arr


def validate_queries(schema: CollectionSchema,
                     vectors: Mapping[Any, Any]) -> dict[str, np.ndarray]:
    """Query rows per vector field (None: the schema's default vector
    field) as finite float32 ``(nq, dim)`` blocks keyed by field name; a
    single vector is one row.  The read-side twin of the insert check."""
    blocks = {}
    for name, rows in vectors.items():
        field = schema.default_vector_field() if name is None \
            else schema.field(name)
        if not field.dtype.is_vector:
            raise InvalidQuery(f"field {field.name!r} holds no vectors")
        try:
            block = np.asarray(rows, dtype=np.float32)
            blocks[field.name] = _coerce_vector_column(
                field.name, field.dim,
                block[None, :] if block.ndim == 1 else block)
        except (SchemaError, TypeError, ValueError) as exc:
            raise InvalidQuery(f"malformed query: {exc}") from None
    return blocks


def require_number(name: str, value: Any, least: float,
                   integer: bool = False) -> None:
    """One request parameter must be a finite number (an integer when
    asked) of at least ``least``; a bool is neither, although Python
    counts it an ``int``."""
    kinds = (int, np.integer) if integer else (int, float, np.number)
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, kinds) or not least <= value < np.inf:
        raise InvalidQuery(
            f"{name} must be {'an integer' if integer else 'a number'} "
            f"of at least {least}, got {value!r}")


def validate_batch(schema: CollectionSchema,
                   data: Mapping[str, Any]) -> EntityBatch:
    """Validate a field-name -> values mapping against ``schema``.

    Auto-id schemas must not provide a primary key column (one is
    generated); explicit-key schemas must.  All columns must have equal row
    counts and no unknown fields are accepted.  Whatever is wrong with
    ``data`` is a :class:`SchemaError`.
    """
    if not isinstance(data, Mapping):
        raise SchemaError("an insert maps field names to columns, got "
                          f"{type(data).__name__}")
    data = dict(data)
    primary = schema.primary_field

    expected = {f.name for f in schema.fields}
    if schema.auto_id:
        if primary.name in data:
            raise SchemaError(
                "collection uses auto-generated ids; do not supply "
                f"{primary.name!r}")
        expected.discard(primary.name)
    unknown = set(data) - expected
    if unknown:
        raise SchemaError(
            f"unknown fields in insert: {sorted(unknown, key=str)}")
    missing = expected - set(data)
    if missing:
        raise SchemaError(f"missing fields in insert: {sorted(missing)}")

    lengths = {}
    for name, values in data.items():
        try:
            lengths[name] = len(values)
        except TypeError:
            raise SchemaError(
                f"field {name!r}: expected a column of values, got "
                f"{type(values).__name__}") from None
    counts = set(lengths.values())
    if len(counts) > 1:
        raise SchemaError(f"ragged insert batch: {lengths}")
    num_rows = counts.pop() if counts else 0
    if num_rows == 0:
        raise SchemaError("empty insert batch")

    columns: dict[str, Any] = {}
    for field in schema.fields:
        if field.name == primary.name:
            continue
        values = data[field.name]
        if field.dtype.is_vector:
            columns[field.name] = _coerce_vector_column(
                field.name, field.dim, values)
        else:
            columns[field.name] = _coerce_scalar_column(
                field.name, field.dtype, values)

    if schema.auto_id:
        pks = tuple(next(_auto_id_counter) for _ in range(num_rows))
    else:
        raw = data[primary.name]
        if primary.dtype is DataType.INT64:
            pks = tuple(_coerce_scalar_column(
                primary.name, primary.dtype, raw).tolist())
        else:
            pks = tuple(_coerce_scalar_column(primary.name, primary.dtype,
                                              raw))
        if len(set(pks)) != len(pks):
            raise SchemaError("duplicate primary keys within a batch")

    return EntityBatch(pks=pks, columns=columns)
