"""Collection schemas (Section 3.1, Figure 1).

A collection schema is a list of fields.  Supported data types follow the
paper: vector, string, boolean, integer, and floating point.  Exactly one
field is the primary key (auto-added as ``_auto_id`` when absent); any number
of vector fields are allowed (multi-vector entities, Section 3.6); the
remaining scalar fields are labels and numerical attributes used for
filtering.  A hidden logical-sequence-number field is managed by the system
and never appears in user schemas.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import FieldNotFound, SchemaError

AUTO_ID_FIELD = "_auto_id"
LSN_FIELD = "_lsn"
RESERVED_FIELDS = {AUTO_ID_FIELD, LSN_FIELD}


class DataType(enum.Enum):
    """Field data types supported by the schema."""

    INT64 = "int64"
    FLOAT = "float"
    BOOL = "bool"
    STRING = "string"
    FLOAT_VECTOR = "float_vector"

    @property
    def is_vector(self) -> bool:
        return self is DataType.FLOAT_VECTOR

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT)


class MetricType(enum.Enum):
    """Similarity functions for vector search (Section 3.6)."""

    EUCLIDEAN = "euclidean"
    INNER_PRODUCT = "inner_product"
    COSINE = "cosine"

    @property
    def higher_is_better(self) -> bool:
        """Whether larger scores mean more similar vectors."""
        return self is not MetricType.EUCLIDEAN


@dataclass(frozen=True)
class FieldSchema:
    """One field of a collection schema."""

    name: str
    dtype: DataType
    dim: int = 0
    is_primary: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid field name: {self.name!r}")
        if self.name in RESERVED_FIELDS:
            raise SchemaError(f"field name {self.name!r} is reserved")
        if self.dtype.is_vector:
            if self.dim <= 0:
                raise SchemaError(
                    f"vector field {self.name!r} needs a positive dim")
            if self.is_primary:
                raise SchemaError("a vector field cannot be the primary key")
        elif self.dim:
            raise SchemaError(
                f"scalar field {self.name!r} must not declare a dim")
        if self.is_primary and self.dtype not in (
                DataType.INT64, DataType.STRING):
            raise SchemaError(
                "primary key must be an integer or a string "
                f"(got {self.dtype.value})")


def _system_auto_id_field() -> FieldSchema:
    """Construct the implicit ``_auto_id`` primary key field.

    The name is reserved — ``FieldSchema.__post_init__`` rejects it for
    user schemas precisely so that only this factory can create it — so
    construction bypasses ``__init__`` and sets the frozen fields directly.
    """
    primary = FieldSchema.__new__(FieldSchema)
    state = {
        "name": AUTO_ID_FIELD,
        "dtype": DataType.INT64,
        "dim": 0,
        "is_primary": True,
        "description": "implicit auto-generated primary key",
    }
    for key, value in state.items():
        object.__setattr__(primary, key, value)
    return primary


class CollectionSchema:
    """A validated, immutable collection schema.

    If no field is marked primary, an implicit int64 ``_auto_id`` primary key
    is added (paper: "the system will automatically add an integer primary
    key for each entity").
    """

    def __init__(self, fields: Iterable[FieldSchema],
                 description: str = "") -> None:
        fields = list(fields)
        if not fields:
            raise SchemaError("a schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")

        primaries = [f for f in fields if f.is_primary]
        if len(primaries) > 1:
            raise SchemaError("at most one primary key field is allowed")
        self.auto_id = not primaries
        if self.auto_id:
            fields = [_system_auto_id_field()] + fields
        self.fields: tuple[FieldSchema, ...] = tuple(fields)
        self.description = description

        self._vector_fields = tuple(f for f in self.fields
                                    if f.dtype.is_vector)
        if not self._vector_fields:
            raise SchemaError("a schema needs at least one vector field")
        self._by_name = {f.name: f for f in self.fields}

    @property
    def primary_field(self) -> FieldSchema:
        """The primary key field (explicit or implicit)."""
        return next(f for f in self.fields if f.is_primary)

    @property
    def vector_fields(self) -> tuple[FieldSchema, ...]:
        """All vector fields, in declaration order."""
        return self._vector_fields

    @property
    def scalar_fields(self) -> tuple[FieldSchema, ...]:
        """All non-vector, non-primary fields (the attribute columns)."""
        return tuple(f for f in self.fields
                     if not f.dtype.is_vector and not f.is_primary)

    def field(self, name: str) -> FieldSchema:
        """Look up a field by name, raising :class:`FieldNotFound` (a name
        that is not a string names none)."""
        field = self._by_name.get(name) if isinstance(name, str) else None
        if field is None:
            raise FieldNotFound(f"field {name!r} not in schema "
                                f"(have {sorted(self._by_name)})")
        return field

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def default_vector_field(self) -> FieldSchema:
        """The first vector field; the search default when unspecified."""
        return self._vector_fields[0]

    def to_dict(self) -> dict:
        """Serializable representation (metastore persistence)."""
        return {
            "description": self.description,
            "auto_id": self.auto_id,
            "fields": [
                {
                    "name": f.name,
                    "dtype": f.dtype.value,
                    "dim": f.dim,
                    "is_primary": f.is_primary,
                    "description": f.description,
                }
                for f in self.fields if f.name != AUTO_ID_FIELD
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "CollectionSchema":
        """Inverse of :meth:`to_dict`."""
        fields = [
            FieldSchema(
                name=f["name"],
                dtype=DataType(f["dtype"]),
                dim=f.get("dim", 0),
                is_primary=f.get("is_primary", False),
                description=f.get("description", ""),
            )
            for f in data["fields"]
        ]
        return CollectionSchema(fields, description=data.get("description", ""))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CollectionSchema)
                and self.fields == other.fields)

    def __repr__(self) -> str:
        names = ", ".join(f"{f.name}:{f.dtype.value}" for f in self.fields)
        return f"CollectionSchema({names})"


def simple_schema(dim: int, metric_dim_check: Optional[int] = None,
                  with_label: bool = False,
                  with_price: bool = False) -> CollectionSchema:
    """Convenience constructor used widely by tests and examples.

    Builds the Figure-1-style schema: auto primary key, one vector field
    named ``vector`` and optional ``label`` / ``price`` attribute fields.
    """
    del metric_dim_check  # reserved for future validation hooks
    fields = [FieldSchema("vector", DataType.FLOAT_VECTOR, dim=dim)]
    if with_label:
        fields.append(FieldSchema("label", DataType.STRING))
    if with_price:
        fields.append(FieldSchema("price", DataType.FLOAT))
    return CollectionSchema(fields)
