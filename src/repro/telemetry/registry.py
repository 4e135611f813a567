"""The metrics registry: Counter / Gauge / Histogram keyed by name{labels}.

This module is the one home for *live* instrumentation, in the idiom of
production p2p metrics registries:

* metrics are interned by canonical key ``name{label=value,…}`` — asking
  twice returns the same object, so hot paths cache the handle once at
  construction time and pay only an attribute call per event;
* **counts live in the subsystem's ``*Stats``** (``TreeSyncStats``,
  ``RouterStats``, ``CoordinatorStats``, …): a field declared with
  :func:`counted` names its counter series next to the field, one
  :meth:`MetricsRegistry.expose` call binds the whole object, and the
  registry reads the field at :meth:`~MetricsRegistry.collect` time —
  each event is counted once, so the two can never drift;
* :class:`Histogram` keeps **fixed log-spaced buckets** (for the
  Prometheus/snapshot export, where merging across peers must stay
  additive) *and* the raw sample stream (for exact p50/p90/p99/max in
  benchmark waterfalls — bucket quantiles are estimates, exact ones are
  what the paper-facing tables print);
* the whole surface has a **zero-cost disabled mode**:
  :data:`NULL_REGISTRY` hands out shared no-op singletons whose methods
  do nothing and binds nothing, so code instruments unconditionally and
  a disabled run stays bit-identical to the seed (the E16 overhead arm
  pins this).

Telemetry is *off by default* everywhere: every constructor takes
``telemetry=None`` and falls back to the null objects.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Mapping

from repro.analysis.reporting import percentile

#: Log-spaced bucket upper bounds: 1 µs → 100 s, four buckets per decade.
#: Fixed (never resized) so bucket counts merge additively across peers
#: and across snapshots; observations above the last bound land in the
#: implicit +Inf overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(1e-6 * (10 ** (step / 4)), 12) for step in range(33)
)

#: How many exact samples a histogram retains before switching to
#: reservoir sampling.  Large enough that every benchmark waterfall stays
#: exact; small enough that a long-running fleet run is O(1) memory per
#: histogram instead of O(observations).
DEFAULT_SAMPLE_CAPACITY = 4096


def metric_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical registry key: ``name`` or ``name{k=v,…}`` with sorted keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (events, drops, bytes…)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


#: Dataclass-field metadata key :func:`counted` stores its declaration under.
_COUNTED = "repro.telemetry.counted"


def counted(
    name: str, *, label: str | None = None, default: Any = 0, **labels: str
):
    """Declare a ``*Stats`` dataclass field as the counter series ``name``.

    The field stays the only count — the subsystem bumps it, nothing
    else — and a registry that :meth:`~MetricsRegistry.expose`-s the
    object reads it at collect time.  ``labels`` are the series' constant
    labels.  With ``label`` the field is a ``dict`` of label value →
    count that fans out one series per key under that label, each
    appearing at its key's first count.
    """
    metadata = {_COUNTED: (name, label, labels)}
    if label is not None:
        return field(default_factory=dict, metadata=metadata)
    return field(default=default, metadata=metadata)


class StatsCounter:
    """A counter series whose value is read from ``*Stats`` fields.

    Several objects bound under one key (two subsystems sharing a peer
    id) sum, exactly as their increments into one pushed counter did.
    """

    __slots__ = ("name", "labels", "_reads")

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._reads: dict[tuple, Callable[[], int | float]] = {}

    @property
    def value(self) -> int | float:
        return sum(read() for read in self._reads.values())


@dataclass
class _FanOut:
    """One dict-valued ``counted(label=…)`` field bound to a registry."""

    stats: object
    attr: str
    name: str
    labels: dict[str, str]
    label: str
    seen: set[str] = field(default_factory=set)


class Gauge:
    """A point-in-time value (queue depth, mesh size, occupancy…)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Log-spaced bucket counts plus a bounded exact-sample reservoir.

    ``observe`` is the hot path: one bisect over the fixed bounds, a few
    integer/float updates, one list append — no per-sample object
    allocation, sorting deferred to the first percentile read.  The first
    ``sample_capacity`` samples are retained verbatim, so
    :meth:`percentile` is *exact* for every benchmark-sized stream;
    beyond that the retained set degrades gracefully into a uniform
    **reservoir** (Vitter's algorithm R) whose replacement choices are
    drawn from a private :class:`random.Random` seeded from the metric's
    canonical label key — deterministic per metric, never touching any
    simulation RNG, so long-running fleet runs neither grow memory
    without bound nor perturb modeled behaviour.  Bucket counts, count,
    sum, min and max stay exact regardless.  Snapshots export only the
    bucket counts and summary fields, which is what keeps snapshot
    merging additive and commutative.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "bucket_counts",
        "count",
        "total",
        "minimum",
        "maximum",
        "sample_capacity",
        "_samples",
        "_dirty",
        "_reservoir_rng",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        *,
        buckets: Iterable[float] | None = None,
        sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.bounds: tuple[float, ...] = (
            DEFAULT_BUCKETS if buckets is None else tuple(sorted(buckets))
        )
        #: Per-bucket (non-cumulative) counts; index ``len(bounds)`` is
        #: the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        if sample_capacity < 1:
            raise ValueError("sample_capacity must be >= 1")
        self.sample_capacity = sample_capacity
        self._samples: list[float] = []
        self._dirty = False
        self._reservoir_rng: random.Random | None = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._samples) < self.sample_capacity:
            self._samples.append(value)
            self._dirty = True
        else:
            # Algorithm R: sample i (1-based == self.count) replaces a
            # random slot with probability capacity/i, keeping the
            # retained set a uniform sample of everything observed.
            if self._reservoir_rng is None:
                self._reservoir_rng = random.Random(
                    zlib.crc32(metric_key(self.name, self.labels).encode("utf-8"))
                )
            slot = self._reservoir_rng.randrange(self.count)
            if slot < self.sample_capacity:
                self._samples[slot] = value
                self._dirty = True

    # -- exact readouts (benchmark waterfalls) ------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated quantile over the retained samples.

        Exact while ``count <= sample_capacity`` (every sample retained);
        beyond that, a uniform-reservoir estimate whose rank drift the
        property suite bounds.
        """
        if self._dirty:
            self._samples.sort()
            self._dirty = False
        return percentile(self._samples, q, presorted=True)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)


Metric = Counter | StatsCounter | Gauge | Histogram


class MetricsRegistry:
    """Interned metrics by canonical key; the enabled half of the seam."""

    enabled = True

    def __init__(self, *, buckets: Iterable[float] | None = None) -> None:
        self._default_buckets = (
            DEFAULT_BUCKETS if buckets is None else tuple(sorted(buckets))
        )
        self._metrics: dict[str, Metric] = {}
        self._fanouts: list[_FanOut] = []

    def _intern(self, cls, name: str, labels: Mapping[str, str], **kwargs):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, labels, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} is a {metric.kind}, requested {cls.__name__.lower()}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter | StatsCounter:
        """The counter at ``name{labels}`` — an exposed field's series when
        one is bound there, whose ``value`` is the field's live count."""
        key = metric_key(name, labels)
        if key not in self._metrics:
            self._sync_fanouts()
            for fan in self._fanouts:
                item = labels.get(fan.label)
                if (
                    fan.name == name
                    and item is not None
                    and key == metric_key(name, {**fan.labels, fan.label: item})
                ):
                    self._bind_item(fan, item)  # asked for before its first count
        metric = self._metrics.get(key)
        if isinstance(metric, StatsCounter):
            return metric
        return self._intern(Counter, name, labels)

    def expose(self, stats: object, **labels: str) -> None:
        """Bind every :func:`counted` field of the ``stats`` dataclass.

        ``labels`` (e.g. ``peer=``) join each field's constant labels.
        Binding the same object again is a no-op.
        """
        for spec in fields(stats):  # type: ignore[arg-type]
            declared = spec.metadata.get(_COUNTED)
            if declared is None:
                continue
            name, label, constant = declared
            merged = {**labels, **constant}
            if label is None:
                self._bind(name, merged, stats, spec.name)
            elif not any(
                fan.stats is stats and fan.attr == spec.name for fan in self._fanouts
            ):
                self._fanouts.append(_FanOut(stats, spec.name, name, merged, label))
        self._sync_fanouts()

    def _bind(
        self, name: str, labels: Mapping[str, str], stats: object, attr: str, item=None
    ) -> None:
        metric = self._intern(StatsCounter, name, labels)
        source = (id(stats), attr, item)
        if source not in metric._reads:
            if item is None:
                metric._reads[source] = lambda: getattr(stats, attr)
            else:
                metric._reads[source] = lambda: getattr(stats, attr).get(item, 0)

    def _bind_item(self, fan: _FanOut, item: str) -> None:
        fan.seen.add(item)
        labels = {**fan.labels, fan.label: item}
        self._bind(fan.name, labels, fan.stats, fan.attr, item)

    def _sync_fanouts(self) -> None:
        """Bind a series for every dict key counted since the last pass."""
        for fan in self._fanouts:
            counts = getattr(fan.stats, fan.attr)
            if len(counts) != len(fan.seen):
                for item in counts:
                    if item not in fan.seen:
                        self._bind_item(fan, item)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._intern(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: Iterable[float] | None = None,
        sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
        **labels: str,
    ) -> Histogram:
        return self._intern(
            Histogram,
            name,
            labels,
            buckets=buckets or self._default_buckets,
            sample_capacity=sample_capacity,
        )

    # -- reading ------------------------------------------------------------

    def metrics(self) -> dict[str, Metric]:
        """Live metric objects by canonical key (read-only by convention)."""
        self._sync_fanouts()
        return dict(self._metrics)

    def collect(self) -> "dict[str, dict]":
        """One atomic read of every metric into plain JSON-able dicts.

        This is *the* read path (the snapshot exporter, the fleet push
        and the collector all go through it).  Exposed ``*Stats`` fields
        are read here, so a collected counter is always the count its
        subsystem holds at this instant.
        """
        self._sync_fanouts()
        out: dict[str, dict] = {}
        for key, metric in self._metrics.items():
            entry: dict = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                entry.update(
                    count=metric.count,
                    sum=metric.total,
                    min=metric.minimum if metric.count else 0.0,
                    max=metric.maximum,
                    le=list(metric.bounds),
                    buckets=list(metric.bucket_counts),
                )
            else:
                entry["value"] = metric.value
            out[key] = entry
        return out


class NullCounter:
    """Shared do-nothing counter for the disabled path."""

    __slots__ = ()
    kind = "counter"
    name = ""
    labels: dict[str, str] = {}
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        return None


class NullGauge:
    __slots__ = ()
    kind = "gauge"
    name = ""
    labels: dict[str, str] = {}
    value = 0.0

    def set(self, value: float) -> None:
        return None

    def add(self, delta: float) -> None:
        return None


class NullHistogram:
    __slots__ = ()
    kind = "histogram"
    name = ""
    labels: dict[str, str] = {}
    bounds: tuple[float, ...] = ()
    count = 0
    total = 0.0
    minimum = 0.0
    maximum = 0.0
    mean = 0.0
    p50 = p90 = p99 = 0.0

    def observe(self, value: float) -> None:
        return None

    def percentile(self, q: float) -> float:
        return 0.0


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """The disabled registry: every request returns a shared no-op.

    No keys are formatted, nothing is stored or bound — a disabled run
    pays one attribute lookup and an empty method call per instrumentation
    site, which the E16 overhead arm shows is within noise of the seed.
    """

    enabled = False

    def counter(self, name: str, **labels: str) -> NullCounter:
        return NULL_COUNTER

    def expose(self, stats: object, **labels: str) -> None:
        return None

    def gauge(self, name: str, **labels: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, **labels: str) -> NullHistogram:
        return NULL_HISTOGRAM

    def metrics(self) -> dict[str, Metric]:
        return {}

    def collect(self) -> dict[str, dict]:
        return {}


NULL_REGISTRY = NullRegistry()
