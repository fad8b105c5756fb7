"""Every former implementation that tests and benches compare against,
defined once: ``scan`` (per-query index and segment loops), ``reduce``
(object merge, per-segment node loop), ``build`` (k-means, per-key write
path), ``tracing`` (the span collector's generator hot path), ``graph``
(the graph indexes' own walks and query loops) and ``compare`` (corpora,
hit comparisons).  No module here is
named ``test_*``, so pytest collects none of them.
"""
