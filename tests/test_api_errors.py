"""The public surface speaks one error (paper §3.1): any input to a verb
of ``ManuCluster`` or PyManu (names and values alike, of any type)
answers or raises a ``ManuError``, and a REST request answers with a
status other than 500.  Derandomized, so tier-1 draws the same
inputs each run; to hunt, raise ``max_examples`` in a scratch copy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.api import pymanu
from repro.api.rest import RestApi
from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.errors import ManuError

DIM = 4
NAMES = ["c", "vector", "pk", "price", "label", "IVF_FLAT", "Euclidean",
         "IP", "strong", "pk in [1, 2]", "price > 3", "nlist"]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=list(HealthCheck))

_text = st.sampled_from(NAMES) | st.text(max_size=4)
_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.integers()
    | st.floats() | _text | st.sampled_from([*MetricType, *ConsistencyLevel])
    | arrays(st.sampled_from([np.float32, np.float64, np.int64, np.bool_]),
             array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_text, inner, max_size=3), max_leaves=10)
#: A name (a collection, field, tenant, index type): any value, strings
#: among them.
_name = _values
# Half the draws name the served collection and hand a well-formed query
# block, so they reach the checks behind the lookup and the query's own.
_collection = st.just("c") | _name
_vectors = arrays(np.float32, st.sampled_from([(DIM,), (1, DIM), (3, DIM)]),
                  elements=st.floats(-5, 5, width=32)) | _values
_rows = _values | st.fixed_dictionaries(
    {"pk": _values, "vector": _values},
    optional={"price": _values, "label": _values})
_OPTION = {"field": _name, "tenant": _name,
           "vec": _vectors, "data": _vectors}


def _kw(*names):
    """Any subset of a verb's keyword options."""
    return st.fixed_dictionaries({}, optional={
        name: _OPTION.get(name, _values) for name in names})


_READ = ("consistency", "staleness_ms", "tenant")
_LEVELS = ("consistency_level", "staleness_ms")
#: surface -> verb -> (positional arguments, keyword options)
VERBS = {"cluster": {
    "search": (st.tuples(_collection, _vectors, _values),
               _kw("field", "metric", "expr", "at_ms", "explain", *_READ)),
    "range_search": (st.tuples(_collection, _vectors, _values),
                     _kw("field", "metric", "expr", "limit", *_READ)),
    "get": (st.tuples(_collection, _values), _kw(*_READ)),
    "insert": (st.tuples(_collection, _rows), _kw("tenant")),
    "upsert": (st.tuples(_collection, _rows), _kw("tenant")),
    "delete": (st.tuples(_collection, _values), _kw("tenant")),
    "create_index": (st.tuples(_collection, _name, _name, _values,
                               _values), _kw()),
    "create_collection": (st.tuples(_name, _values), _kw()),
}, "collection": {
    "search": (st.tuples(), _kw("vec", "field", "param", "limit", "expr",
                                "explain", "data", "bogus", *_LEVELS)),
    "query": (st.tuples(), _kw("vec", "param", "expr", "limit", "field")),
    "range_search": (st.tuples(_vectors, _values),
                     _kw("field", "param", "expr", "limit", *_LEVELS)),
    "get": (st.tuples(_values), _kw(*_LEVELS)),
    "search_multivector": (st.tuples(_values, _values),
                           _kw("limit", "metric_type", *_LEVELS)),
    "insert": (st.tuples(_rows), _kw()),
    "delete": (st.tuples(_values), _kw()),
    "create_index": (st.tuples(_name, _values), _kw()),
}, "pymanu": {
    "Collection": (st.tuples(_name, _values), st.just({"using": "errors"})),
}}


@pytest.fixture(scope="module")
def served():
    """Collection ``c``: sealed, indexed rows and growing ones."""
    cluster = ManuCluster(num_query_nodes=2, num_index_nodes=1)
    cluster.create_collection("c", CollectionSchema([
        FieldSchema("pk", DataType.INT64, is_primary=True),
        FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM),
        FieldSchema("price", DataType.FLOAT),
        FieldSchema("label", DataType.STRING)]))
    cluster.create_index("c", "vector", "IVF_FLAT", MetricType.EUCLIDEAN,
                         {"nlist": 2})
    rng = np.random.default_rng(7)
    for start in (0, 40):
        cluster.insert("c", {
            "pk": list(range(start, start + 40)),
            "vector": rng.standard_normal((40, DIM)).astype(np.float32),
            "price": rng.uniform(0, 10, 40), "label": ["a", "b"] * 20})
        if start == 0:
            cluster.flush("c")
    pymanu.connect("errors", cluster=cluster)
    yield cluster
    pymanu.connections.disconnect("errors")


@pytest.mark.parametrize("surface,verb", [
    (surface, verb) for surface, verbs in VERBS.items() for verb in verbs])
@SETTINGS
@given(data=st.data())
def test_a_verb_answers_or_raises_manu_error(served, surface, verb, data):
    args, options = data.draw(st.tuples(*VERBS[surface][verb]))
    target = {"cluster": served, "pymanu": pymanu,
              "collection": pymanu.Collection("c", using="errors")}[surface]
    try:
        getattr(target, verb)(*args, **options)
    except ManuError:
        pass


_PATHS = ["/collections", "/system", "/healthz"] + [
    "/collections/c" + tail for tail in (
        "", "/entities", "/search", "/range_search", "/indexes",
        "/entities/get", "/entities/delete")]
_BODY = ["name", "schema", "rows", "vector", "limit", "radius", "expr",
         "pks", "field", "metric_type", "consistency_level", "staleness_ms",
         "tenant", "index_type", "params"]


@SETTINGS
@given(method=st.sampled_from(["GET", "POST", "DELETE", "PUT"]),
       path=st.sampled_from(_PATHS) | st.text(max_size=12),
       body=st.none() | st.dictionaries(st.sampled_from(_BODY), _values,
                                        max_size=4))
def test_a_rest_request_answers_with_a_status(served, method, path, body):
    assume(method != "DELETE" or path.strip("/") != "collections/c")
    status, payload = RestApi(served).handle(method, path, body)
    assert isinstance(status, int) and isinstance(payload, dict)
    assert status != 500, payload
