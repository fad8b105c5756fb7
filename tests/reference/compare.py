"""Corpora and hit comparisons.  :func:`assert_hits_within_tolerance`
holds an index's ``(ids, dists)`` to its oracle's within :func:`tolerance`;
:func:`assert_results_equal_up_to_ties` holds one ``SearchResult`` to
another bit for bit.  Both compare ids as sets within runs of tied
distances."""

import numpy as np

from repro.core.schema import MetricType
from repro.index.base import create_index
from repro.index.distances import adjusted_distances

METRICS = [MetricType.EUCLIDEAN, MetricType.INNER_PRODUCT, MetricType.COSINE]
DIM = 16
EPS = float(np.finfo(np.float32).eps)


def clustered(rng, n, dim=DIM, centers=12):
    means = rng.standard_normal((centers, dim)) * 4.0
    return (means[rng.integers(0, centers, n)]
            + rng.standard_normal((n, dim))).astype(np.float32)


def make_corpus(seed):
    """600 rows and 64 queries around 12 centres."""
    rng = np.random.default_rng(seed)
    return clustered(rng, 600), clustered(rng, 64)


_BUILT = {}


def built_index(corpus, name, metric, **params):
    """One index per (corpus, type, metric, params), built once."""
    key = (id(corpus[0]), name, metric, tuple(sorted(params.items())))
    if key not in _BUILT:
        index = create_index(name, metric, corpus[0].shape[1], **params)
        index.build(corpus[0])
        _BUILT[key] = (corpus, index)  # pins the id
    return _BUILT[key][1]


def tolerance(data, queries, metric):
    """Absolute tolerance on an adjusted distance, from float32 rounding
    of the terms it is summed from (a few hundred ulps of the largest)."""
    v = float(np.linalg.norm(data, axis=1).max())
    q = float(np.linalg.norm(queries, axis=1).max())
    scale = {MetricType.EUCLIDEAN: (v + q) ** 2,
             MetricType.INNER_PRODUCT: v * q,
             MetricType.COSINE: 1.0}[metric]
    return 256 * EPS * max(scale, 1.0)


def assert_hits_within_tolerance(got, want, data, queries, metric, tol):
    """Distances equal within ``tol``; the same padding; every id paired
    with its own distance; ids equal as sets within each run of
    (near-)equal distances — only the run cut by ``k`` may pick other
    members of the tie."""
    got_ids, got_dists = got
    want_ids, want_dists = want
    assert got_ids.shape == want_ids.shape == got_dists.shape
    assert got_ids.dtype == np.int64 and got_dists.dtype == np.float32
    np.testing.assert_array_equal(got_ids < 0, want_ids < 0)
    np.testing.assert_array_equal(np.isinf(got_dists), got_ids < 0)
    np.testing.assert_allclose(got_dists, want_dists, rtol=0, atol=tol)
    for qi in range(got_ids.shape[0]):
        n = int((got_ids[qi] >= 0).sum())
        ids, dists = got_ids[qi, :n], got_dists[qi, :n]
        assert (got_ids[qi, n:] == -1).all()        # padding is the tail
        assert len(set(ids.tolist())) == n
        assert (np.diff(dists) >= 0).all()
        true = adjusted_distances(queries[qi], data[ids], metric)[0]
        np.testing.assert_allclose(dists, true, rtol=0, atol=tol)
        cuts = np.flatnonzero(np.diff(want_dists[qi, :n]) > 2 * tol) + 1
        runs = np.split(np.arange(n), cuts)
        full = n == got_ids.shape[1]    # k may have cut the last run
        for run in runs[:-1] if full else runs:
            assert set(ids[run].tolist()) == \
                set(want_ids[qi, run].tolist())


def assert_results_equal_up_to_ties(got, want, k):
    """Distances bit for bit, pks equal within each run of equal
    distances; only the run cut by ``k`` may pick other tie members."""
    got_d = np.asarray(got.hits.dists, dtype=np.float64)
    want_d = np.asarray(want.hits.dists, dtype=np.float64)
    np.testing.assert_array_equal(got_d, want_d)
    assert len(set(got.pks)) == len(got.pks)
    cuts = np.flatnonzero(np.diff(want_d) != 0) + 1
    runs = np.split(np.arange(len(want_d)), cuts)
    for run in runs[:-1] if len(want_d) == k else runs:
        assert {got.pks[i] for i in run} == {want.pks[i] for i in run}


def assert_batches_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.pks, w.pks)
        np.testing.assert_array_equal(g.dists, w.dists)
        assert g.dists.dtype == w.dists.dtype == np.float32


def assert_batches_equal_up_to_ties(got, want, k):
    """Distances bit for bit, pks equal as sets within every run of equal
    distances — only the run cut by ``k`` may pick other tie members (a
    selection by ``argpartition`` orders a tie by where it sits)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.dists, w.dists)
        assert g.dists.dtype == w.dists.dtype == np.float32
        runs = np.split(np.arange(len(w)),
                        np.flatnonzero(np.diff(w.dists) != 0) + 1)
        for run in runs[:-1] if len(w) == k else runs:
            assert set(g.pks[run].tolist()) == set(w.pks[run].tolist())
