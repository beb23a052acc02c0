"""Bounded-cardinality labeled metrics on top of the flat registry.

The metrics registry (:mod:`repro.obs.metrics`) is deliberately a flat
``name -> instrument`` map: snapshots, resets, and the
``metrics.json`` schema all key on the name string.  Rather than teach
every one of those layers a parallel label dimension, labels are
**encoded into the instrument name** in one canonical form::

    service.requests.by_route{route="/sessions/{id}/decision",status="2xx"}

Label keys are sorted, values are escaped (backslash, double quote,
newline), so each label set has exactly one name, and a
``metrics.json`` written by one process re-renders identically in
another.
:mod:`repro.obs.openmetrics` parses the encoding back out and emits
proper Prometheus series with the labels as labels.

Cardinality is **bounded per family**: a :class:`LabeledCounter` /
:class:`LabeledGauge` / :class:`LabeledHistogram` mints at most
``max_series`` distinct child instruments.  Label sets beyond the bound
collapse into one reserved overflow series whose every label value is
:data:`OVERFLOW_VALUE` — totals stay correct even under a label
explosion (a client spraying random paths can never grow the registry
without bound), which is why callers must label by *route template*,
never by raw path or session id.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Iterable, Mapping

from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "OVERFLOW_VALUE",
    "DEFAULT_MAX_SERIES",
    "encode_labels",
    "parse_labeled_name",
    "LabeledCounter",
    "LabeledGauge",
    "LabeledHistogram",
]

#: Label value every overflowed label collapses to once a family hits
#: its ``max_series`` bound.
OVERFLOW_VALUE = "__other__"

#: Default per-family bound on distinct label sets.
DEFAULT_MAX_SERIES = 64

_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_value(value: str) -> str:
    """Escape a label value for the canonical encoding (and Prometheus)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_value(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def encode_labels(name: str, labels: Mapping[str, Any]) -> str:
    """The canonical labeled instrument name (sorted keys, escaped).

    ``encode_labels("x", {})`` is just ``"x"`` — an empty label set is
    the plain instrument.
    """
    if "{" in name or "}" in name:
        raise ValueError(f"metric name {name!r} must not contain braces")
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_labeled_name(full: str) -> tuple[str, dict[str, str]]:
    """Split an encoded name into ``(base, labels)``.

    A name without the ``base{k="v",...}`` shape comes back unchanged
    with an empty label dict, so callers can feed every registry name
    through this unconditionally.
    """
    if not full.endswith("}"):
        return full, {}
    brace = full.find("{")
    if brace <= 0:
        return full, {}
    base = full[:brace]
    inner = full[brace + 1 : -1]
    labels: dict[str, str] = {}
    i = 0
    n = len(inner)
    while i < n:
        eq = inner.find('="', i)
        if eq < 0:
            return full, {}  # not our encoding; treat as a plain name
        key = inner[i:eq]
        if not _LABEL_NAME_RE.match(key):
            return full, {}
        j = eq + 2
        raw: list[str] = []
        while j < n:
            ch = inner[j]
            if ch == "\\" and j + 1 < n:
                raw.append(inner[j : j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            return full, {}  # unterminated value
        labels[key] = _unescape_value("".join(raw))
        i = j + 1
        if i < n:
            if inner[i] != ",":
                return full, {}
            i += 1
    return base, labels


class _LabeledFamily:
    """Shared get-or-create + overflow logic for one labeled family."""

    _kind = "instrument"

    def __init__(
        self,
        name: str,
        label_names: Iterable[str],
        *,
        max_series: int = DEFAULT_MAX_SERIES,
        registry: MetricsRegistry | None = None,
    ) -> None:
        names = tuple(label_names)
        if not names:
            raise ValueError("a labeled family needs at least one label")
        for label in names:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate label names")
        if max_series < 1:
            raise ValueError("max_series must be >= 1")
        if "{" in name or "}" in name:
            raise ValueError(f"metric name {name!r} must not contain braces")
        self.name = name
        self.label_names = names
        self._max_series = max_series
        self._registry = registry if registry is not None else REGISTRY
        self._children: dict[str, Any] = {}
        self._lock = threading.Lock()
        self._overflowed = 0

    def _create(self, encoded: str) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def labels(self, **values: Any) -> Any:
        """The child instrument for one label set (get-or-create).

        Past ``max_series`` distinct sets, returns the overflow series
        (every label value :data:`OVERFLOW_VALUE`) instead of minting a
        new instrument.
        """
        if set(values) != set(self.label_names):
            raise ValueError(
                f"family {self.name!r} takes labels "
                f"{sorted(self.label_names)}, got {sorted(values)}"
            )
        encoded = encode_labels(self.name, values)
        child = self._children.get(encoded)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(encoded)
            if child is not None:
                return child
            if len(self._children) >= self._max_series:
                self._overflowed += 1
                overflow = encode_labels(
                    self.name,
                    {label: OVERFLOW_VALUE for label in self.label_names},
                )
                child = self._children.get(overflow)
                if child is None:
                    # The overflow series replaces (not exceeds) the
                    # slot the rejected label set asked for.
                    child = self._create(overflow)
                    self._children[overflow] = child
                return child
            child = self._create(encoded)
            self._children[encoded] = child
            return child

    @property
    def series_count(self) -> int:
        """Distinct child instruments minted so far."""
        return len(self._children)

    @property
    def overflowed(self) -> int:
        """Label sets collapsed into the overflow series."""
        return self._overflowed


class LabeledCounter(_LabeledFamily):
    """A family of :class:`~repro.obs.metrics.Counter` split by labels."""

    _kind = "counter"

    def _create(self, encoded: str) -> Counter:
        return self._registry.counter(encoded)

    def labels(self, **values: Any) -> Counter:
        return super().labels(**values)


class LabeledGauge(_LabeledFamily):
    """A family of :class:`~repro.obs.metrics.Gauge` split by labels."""

    _kind = "gauge"

    def _create(self, encoded: str) -> Gauge:
        return self._registry.gauge(encoded)

    def labels(self, **values: Any) -> Gauge:
        return super().labels(**values)


class LabeledHistogram(_LabeledFamily):
    """A family of :class:`~repro.obs.metrics.Histogram` split by labels."""

    _kind = "histogram"

    def __init__(
        self,
        name: str,
        label_names: Iterable[str],
        *,
        buckets: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            name, label_names, max_series=max_series, registry=registry
        )
        self._buckets = tuple(float(b) for b in buckets)

    def _create(self, encoded: str) -> Histogram:
        return self._registry.histogram(encoded, self._buckets)

    def labels(self, **values: Any) -> Histogram:
        return super().labels(**values)
