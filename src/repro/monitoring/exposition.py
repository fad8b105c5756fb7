"""Prometheus-style text exposition for the metrics registry.

:func:`render_exposition` turns a :class:`~repro.monitoring.metrics
.MetricsRegistry` into the text format Prometheus scrapes (``# TYPE``
headers, ``name{label="value"} 1.0`` series, ``_bucket{le=...}`` /
``_sum`` / ``_count`` for histograms).  :func:`parse_exposition` reads
that format back into a flat series map — used by the round-trip tests
and by anything that wants to scrape the REST ``GET /metrics`` endpoint
without a real Prometheus.

Window names are dotted (``proxy.search_latency``); the renderer sanitizes
names to the exposition charset (``proxy_search_latency``) the same way
prometheus client libraries do.

Histogram bucket lines may carry an OpenMetrics-style **exemplar**
suffix — ``name_bucket{le="5.0"} 3.0 # {trace_id="t000042"} 4.2`` — the
most recent sampled request that landed in the bucket.  The parser
validates and strips them (series values stay the return contract);
:func:`parse_exemplars` recovers the linkage for the round-trip tests.
"""

from __future__ import annotations

import re

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SERIES_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$")
_LABEL_PAIR = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)='
                         r'"(?P<value>(?:[^"\\]|\\.)*)"')
_EXEMPLAR = re.compile(
    r'^\{(?P<labels>[^{}]*)\}\s+(?P<value>[^\s]+)$')

#: Percentile gauges emitted alongside each histogram family / window.
_PERCENTILES = (50, 95, 99)


def sanitize_metric_name(name: str) -> str:
    """Map an internal metric name onto the exposition charset."""
    sanitized = _NAME_SANITIZE.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
                .replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"') \
                .replace("\\\\", "\\")


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label_value(str(value))}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _header(lines: list, name: str, kind: str, help_text: str) -> None:
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def render_exposition(registry, now_ms: float) -> str:
    """Render every family and latency window as exposition text."""
    lines: list[str] = []
    for name, family in sorted(registry.families.items()):
        metric_name = sanitize_metric_name(name)
        if family.kind == "counter":
            _header(lines, metric_name, "counter", family.help)
            for labels, child in family.samples():
                lines.append(f"{metric_name}{_labels_text(labels)} "
                             f"{_format_value(child.value)}")
        elif family.kind == "gauge":
            _header(lines, metric_name, "gauge", family.help)
            for labels, child in family.samples():
                lines.append(f"{metric_name}{_labels_text(labels)} "
                             f"{_format_value(child.value)}")
        else:
            _render_histogram_family(lines, metric_name, family)
    for name, window in sorted(registry.windows.items()):
        _render_window(lines, sanitize_metric_name(name), window, now_ms)
    return "\n".join(lines) + "\n"


def _render_histogram_family(lines: list, metric_name: str,
                             family) -> None:
    _header(lines, metric_name, "histogram", family.help)
    for labels, child in family.samples():
        exemplars = child.exemplars or {}
        for i, (bound, cumulative) in enumerate(
                child.cumulative_buckets()):
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(bound)
            line = (f"{metric_name}_bucket{_labels_text(bucket_labels)}"
                    f" {_format_value(float(cumulative))}")
            exemplar = exemplars.get(i)
            if exemplar is not None:
                trace_id, value = exemplar
                line += (f' # {{trace_id="'
                         f'{_escape_label_value(trace_id)}"}} '
                         f"{_format_value(value)}")
            lines.append(line)
        lines.append(f"{metric_name}_sum{_labels_text(labels)} "
                     f"{_format_value(child.sum)}")
        lines.append(f"{metric_name}_count{_labels_text(labels)} "
                     f"{_format_value(float(child.count))}")
    # Percentile gauges: per labeled child, plus an unlabeled aggregate
    # over the merged distribution (this is where series like
    # ``search_latency_p99`` come from).
    for pct in _PERCENTILES:
        pct_name = f"{metric_name}_p{pct}"
        lines.append(f"# TYPE {pct_name} gauge")
        if family.label_names:
            for labels, child in family.samples():
                value = child.percentile(pct)
                if value is not None:
                    lines.append(f"{pct_name}{_labels_text(labels)} "
                                 f"{_format_value(value)}")
        aggregate = family.aggregate(f"p{pct}")
        if aggregate is not None:
            lines.append(f"{pct_name} {_format_value(aggregate)}")


def _render_window(lines: list, metric_name: str, window,
                   now_ms: float) -> None:
    _header(lines, f"{metric_name}_count", "gauge",
            f"samples in the trailing {window.window_ms:g} ms window")
    lines.append(f"{metric_name}_count "
                 f"{_format_value(float(window.count(now_ms)))}")
    lines.append(f"# TYPE {metric_name}_qps gauge")
    lines.append(f"{metric_name}_qps {_format_value(window.qps(now_ms))}")
    mean = window.mean(now_ms)
    if mean is not None:
        lines.append(f"# TYPE {metric_name}_mean_ms gauge")
        lines.append(f"{metric_name}_mean_ms {_format_value(mean)}")
    for pct in _PERCENTILES:
        value = window.percentile(now_ms, pct)
        if value is not None:
            lines.append(f"# TYPE {metric_name}_p{pct} gauge")
            lines.append(f"{metric_name}_p{pct} {_format_value(value)}")


def _parse_labels(lineno: int, raw: str, labels_text) -> tuple:
    labels = []
    if labels_text:
        consumed = 0
        for pair in _LABEL_PAIR.finditer(labels_text):
            labels.append((pair.group("key"),
                           _unescape_label_value(pair.group("value"))))
            consumed = pair.end()
        leftover = labels_text[consumed:].strip().strip(",")
        if leftover:
            raise ValueError(
                f"line {lineno}: malformed labels {labels_text!r} "
                f"in {raw!r}")
    return tuple(sorted(labels))


def _parse_value(value_text: str) -> float:
    if value_text == "+Inf":
        return float("inf")
    if value_text == "-Inf":
        return float("-inf")
    return float(value_text)


def _split_exemplar(line: str) -> tuple:
    """Split a series line into (series part, exemplar part or None)."""
    idx = line.find(" # {")
    if idx == -1:
        return line, None
    return line[:idx].rstrip(), line[idx + 3:].strip()


def _parse_exemplar(lineno: int, raw: str, exemplar_text: str) -> tuple:
    """Validated ((label, value) pairs, observed value) of an exemplar."""
    match = _EXEMPLAR.match(exemplar_text)
    if match is None:
        raise ValueError(f"line {lineno}: malformed exemplar {raw!r}")
    return (_parse_labels(lineno, raw, match.group("labels")),
            _parse_value(match.group("value")))


def parse_exposition(text: str) -> dict:
    """Parse exposition text into ``(name, ((label, value), ...)) -> float``.

    Inverse of :func:`render_exposition` for the series lines (``# TYPE``
    / ``# HELP`` comments are validated for shape and skipped).  Raises
    ``ValueError`` on a malformed line, so tests catch renderer drift.
    Exemplar suffixes are validated then stripped; use
    :func:`parse_exemplars` to recover them.
    """
    series: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line):
                raise ValueError(f"line {lineno}: malformed comment {raw!r}")
            continue
        line, exemplar_text = _split_exemplar(line)
        if exemplar_text is not None:
            _parse_exemplar(lineno, raw, exemplar_text)
        match = _SERIES_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed series {raw!r}")
        labels = _parse_labels(lineno, raw, match.group("labels"))
        series[(match.group("name"), labels)] = \
            _parse_value(match.group("value"))
    return series


def parse_exemplars(text: str) -> dict:
    """Exemplar linkage of exposition text.

    Returns ``(name, ((label, value), ...)) -> (exemplar labels, value)``
    for every series line carrying an exemplar suffix — the inverse of
    the renderer's ``# {trace_id="..."} value`` attachment, keyed like
    :func:`parse_exposition` so the two maps join on series identity.
    """
    exemplars: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        line, exemplar_text = _split_exemplar(line)
        if exemplar_text is None:
            continue
        parsed = _parse_exemplar(lineno, raw, exemplar_text)
        match = _SERIES_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed series {raw!r}")
        labels = _parse_labels(lineno, raw, match.group("labels"))
        exemplars[(match.group("name"), labels)] = parsed
    return exemplars
