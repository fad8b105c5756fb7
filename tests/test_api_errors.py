"""The public surface speaks one error (paper §3.1): any input to a verb
of ``ManuCluster`` or PyManu (names and values alike, of any type)
answers or raises a ``ManuError``, and a REST request answers with a
status other than 500.  Derandomized, so tier-1 draws the same
inputs each run; to hunt, raise ``max_examples`` in a scratch copy.
Draws can miss one bad argument of a verb with many options, so every
name-typed argument is also swept on its own, with each value of
``NOT_NAMES``, in an otherwise well-formed call.
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


#: Values that are no name.  Each, handed alone as a collection, field,
#: tenant or index type name to a call that is otherwise well-formed, is
#: refused with a ``ManuError`` (REST: a 4xx).  None is swept only where
#: a name has no default.
NOT_NAMES = [None, [], {}, 0, b"c"]
_VEC = np.ones(DIM, dtype=np.float32)
_ROWS = {"pk": [1000], "vector": _VEC[None, :], "price": [1.0],
         "label": ["a"]}
_SCHEMA = CollectionSchema([
    FieldSchema("pk", DataType.INT64, is_primary=True),
    FieldSchema("vector", DataType.FLOAT_VECTOR, dim=DIM)])
_IVF = {"index_type": "IVF_FLAT", "metric_type": "Euclidean",
        "params": {"nlist": 2}}
#: surface -> verb -> (a well-formed call's positional arguments and
#: keyword options, and its names: a position (no default), a keyword
#: left out of the call (default None), or ``(position, key)`` of an
#: entry of a mapping argument (defaulted)).
NAMED = {"cluster": {
    "search": (("c", _VEC, 3), {}, [0, "field", "tenant"]),
    "range_search": (("c", _VEC, 1.0), {}, [0, "field", "tenant"]),
    "get": (("c", [1]), {}, [0, "tenant"]),
    "insert": (("c", _ROWS), {}, [0, "tenant"]),
    "upsert": (("c", _ROWS), {}, [0, "tenant"]),
    "delete": (("c", "pk in [1000]"), {}, [0, "tenant"]),
    "create_index": (("c", "vector", "IVF_FLAT", MetricType.EUCLIDEAN,
                      {"nlist": 2}), {}, [0, 1, 2]),
    "create_collection": (("d", _SCHEMA), {}, [0]),
}, "collection": {
    "search": ((), {"vec": _VEC, "limit": 3}, ["field"]),
    "query": ((), {"vec": _VEC, "expr": "price > 3", "limit": 3},
              ["field"]),
    "range_search": ((_VEC, 1.0), {}, ["field"]),
    "create_index": (("vector", _IVF), {}, [0, (1, "index_type")]),
}, "pymanu": {
    "Collection": (("c",), {"using": "errors"}, [0, "tenant"]),
}}


def _name_sweep():
    for surface, verbs in NAMED.items():
        assert set(verbs) <= set(VERBS[surface])
        for verb, (_args, _options, names) in verbs.items():
            for slot in names:
                for value in NOT_NAMES:
                    if value is not None or isinstance(slot, int):
                        yield pytest.param(
                            surface, verb, slot, value,
                            id=f"{surface}.{verb}-{slot}-{value!r}")


@pytest.mark.parametrize("surface,verb,slot,value", _name_sweep())
def test_a_name_that_is_no_name_is_refused(served, surface, verb, slot,
                                           value):
    args, options, _names = NAMED[surface][verb]
    args, options = list(args), dict(options)
    if isinstance(slot, int):
        args[slot] = value
    elif isinstance(slot, str):
        options[slot] = value
    else:
        position, key = slot
        args[position] = {**args[position], key: value}
    target = {"cluster": served, "pymanu": pymanu,
              "collection": pymanu.Collection("c", using="errors")}[surface]
    with pytest.raises(ManuError):
        getattr(target, verb)(*args, **options)


#: REST routes: (path, a well-formed body, its names without a default,
#: its names with one).
REST_NAMED = [
    ("/collections", {"name": "d", "schema": _SCHEMA.to_dict()},
     ["name"], []),
    ("/collections/c/search", {"vector": _VEC.tolist(), "limit": 3},
     [], ["field", "tenant"]),
    ("/collections/c/range_search", {"vector": _VEC.tolist(),
                                     "radius": 1.0}, [], ["field", "tenant"]),
    ("/collections/c/entities/get", {"pks": [1]}, [], ["tenant"]),
    ("/collections/c/indexes", {"field": "vector", "params": {"nlist": 2}},
     ["field"], ["index_type"]),
]


@pytest.mark.parametrize("path,body,entry,value", [
    pytest.param(path, body, entry, value, id=f"{path}-{entry}-{value!r}")
    for path, body, required, defaulted in REST_NAMED
    for entry in required + defaulted for value in NOT_NAMES
    if value is not None or entry in required])
def test_a_rest_name_that_is_no_name_is_refused(served, path, body, entry,
                                                value):
    status, payload = RestApi(served).handle("POST", path,
                                             {**body, entry: value})
    assert 400 <= status < 500, payload
