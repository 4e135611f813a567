"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer *before* the
deployment is built, so every bound method the program captures at
construction (network handlers, tickers, chain subscribers) is already
the wrapped one.  Nothing under ``src/`` changes: the wrappers live here
and are installed only in a traced child process.

A span is ``(name, start, end, parent, hash_seconds)`` with ``parent``
the index of the enclosing span (-1 for a root) and ``hash_seconds`` the
Poseidon engine time spent inside it.  Spans stay in memory and are written out
once the run ends.  A span's *self* time is its duration minus the
durations of its direct children; the program is single-threaded, so
children nest strictly inside their parent and the self times of all
spans under one root, plus the hashing time carved out of them, sum
exactly to that root's duration.

Layer names are the module names of ``src/repro`` (``net``, ``gossipsub``,
``core``, ...), so the split can be checked against a cProfile run
grouped by package (:func:`profile_shares`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: Network channel -> span name for the handler registered on it.  The
#: gossipsub handler is the router's RPC entry; the ``telemetry`` handler
#: is the collector's fold; the ``witness`` handler is the provider.
HANDLER_SPANS = {
    "gossipsub": "gossipsub.rpc",
    "telemetry": "telemetry.collect",
    "telemetry-reply": "telemetry.ack",
    "witness": "witness.serve",
    "witness-reply": "witness.reply",
}

#: Span-name prefix -> src/repro package, for the cProfile comparison.
#: ``membership`` spans run GroupManager code (repro.core.membership);
#: ``harness`` is this benchmark's own driving and recording code.
SPAN_PACKAGE = {"membership": "core"}


class SpanRecorder:
    """In-memory span stack for one single-threaded process.

    ``crypto_seconds`` reads the Poseidon engine's own cumulative timer;
    each span records how much of it elapsed inside the span, so hashing
    is split out of its callers into a ``crypto`` layer of its own.
    """

    def __init__(self, crypto_seconds=lambda: 0.0) -> None:
        self.spans: list[tuple[str, float, float, int, float] | None] = []
        self._stack: list[int] = []
        self._crypto_seconds = crypto_seconds
        #: Counts kept at the same boundaries as the spans.
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Forget everything recorded so far (call between spans only)."""
        self.spans.clear()
        self.counts.clear()

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock, crypto = time.perf_counter, self._crypto_seconds

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            hashing = crypto()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, crypto() - hashing)

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (summed self seconds, span count).

        Hashing time is taken out of every span's self time and reported
        under the pseudo-span ``crypto.hash`` (count = spans that hashed).
        """
        child_time = [0.0] * len(self.spans)
        child_hash = [0.0] * len(self.spans)
        for _name, start, end, parent, hashing in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_hash[parent] += hashing
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _parent, hashing) in enumerate(self.spans):
            own_hash = hashing - child_hash[index]
            entry = out[name]
            entry[0] += end - start - child_time[index] - own_hash
            entry[1] += 1
            if own_hash > 0:
                out["crypto.hash"][0] += own_hash
                out["crypto.hash"][1] += 1
        return {name: (value[0], value[1]) for name, value in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "hash_seconds"],
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def _patch(recorder: SpanRecorder, cls, method: str, name: str) -> None:
    setattr(cls, method, recorder.wrap(getattr(cls, method), name))


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Must run before :meth:`RLNDeployment.create`.  The imports live here
    because ``run.py`` imports this module without ``src`` on its path.
    """
    from repro.chain.blockchain import Blockchain
    from repro.core.membership import GroupManager
    from repro.core.protocol import WakuRLNRelayPeer
    from repro.exec.executor import SimulatedCryptoExecutor
    from repro.gossipsub.router import GossipSubRouter
    from repro.net.simulator import Simulator
    from repro.net.transport import Network
    from repro.pipeline.pipeline import ValidationPipeline
    from repro.revocation.coordinator import SlashingCoordinator
    from repro.telemetry.collector import CollectorPeer
    from repro.telemetry.exporter import TelemetryExporter
    from repro.treesync.sync import ShardSyncManager
    from repro.waku.relay import WakuRelay
    from repro.zksnark.prover import NativeProver

    _patch(recorder, Simulator, "run", "net.run")
    _patch(recorder, GossipSubRouter, "heartbeat", "gossipsub.heartbeat")
    _patch(recorder, WakuRLNRelayPeer, "publish", "core.publish")
    _patch(recorder, GroupManager, "merkle_proof", "core.merkle_proof")
    _patch(recorder, WakuRelay, "publish", "waku.publish")
    _patch(recorder, NativeProver, "prove", "zksnark.prove")
    _patch(recorder, NativeProver, "verify", "zksnark.verify")
    _patch(recorder, NativeProver, "verify_batch", "zksnark.verify_batch")
    _patch(recorder, ValidationPipeline, "validate", "pipeline.validate")
    _patch(recorder, SimulatedCryptoExecutor, "_dispatch", "exec.dispatch")
    _patch(recorder, ShardSyncManager, "apply", "treesync.apply")
    _patch(recorder, Blockchain, "mine_block", "chain.mine")
    _patch(recorder, SlashingCoordinator, "observe", "revocation.observe")
    _patch(recorder, SlashingCoordinator, "settle", "revocation.settle")
    _patch(recorder, TelemetryExporter, "export", "telemetry.export")
    # The alert-evaluation tick is scheduled as this bound method.
    _patch(recorder, CollectorPeer, "_evaluate", "telemetry.eval")

    register = Network.register

    def traced_register(self, peer, handler, *, protocol="gossipsub"):
        name = HANDLER_SPANS.get(protocol)
        if name is not None:
            handler = recorder.wrap(handler, name)
        return register(self, peer, handler, protocol=protocol)

    Network.register = traced_register

    submit = SimulatedCryptoExecutor.submit

    def traced_submit(self, work, on_done, **kwargs):
        # A lane hands its verdict back to the pipeline on completion.
        return submit(self, work, recorder.wrap(on_done, "pipeline.resolve"), **kwargs)

    SimulatedCryptoExecutor.submit = traced_submit

    subscribe = Blockchain.subscribe

    def traced_subscribe(self, callback):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, GroupManager):
            apply = recorder.wrap(callback, "membership.apply")

            def callback(event, apply=apply):
                if event.name == "MemberRegistered":
                    recorder.counts["membership.inserts"] += 1
                return apply(event)

        elif isinstance(owner, SlashingCoordinator):
            callback = recorder.wrap(callback, "revocation.event")
        return subscribe(self, callback)

    Blockchain.subscribe = traced_subscribe


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def span_shares(self_times: dict[str, tuple[float, int]]) -> dict[str, float]:
    """Share of summed self time per src/repro package (cProfile's grouping)."""
    totals: dict[str, float] = defaultdict(float)
    for name, (seconds, _count) in self_times.items():
        layer = layer_of(name)
        totals[SPAN_PACKAGE.get(layer, layer)] += seconds
    whole = sum(totals.values()) or 1.0
    return {package: value / whole for package, value in sorted(totals.items())}


def _package(filename: str) -> str:
    path = filename.replace("\\", "/")
    if path.startswith("<poseidon-codegen"):
        return "crypto"
    if "/fleetbench/" in path:
        return "harness"
    if "/repro/" in path:
        parts = path.split("/repro/", 1)[1].split("/")
        return parts[0] if len(parts) > 1 else "repro"
    return "other"


def profile_shares(stats) -> dict[str, float]:
    """Share of cProfile self time (tottime) per src/repro package.

    ``stats`` is a :class:`pstats.Stats`.  Time in the standard library
    and builtins is charged to the package of its callers, split by the
    per-caller self time cProfile records, the way the spans charge it to
    the layer that made the call; only what stays unresolved after a few
    levels counts as ``other``.
    """
    table = stats.stats
    owners: dict = {}

    def owner(func, depth: int = 0) -> dict[str, float]:
        package = _package(func[0])
        if package != "other" or depth >= 4:
            return {package: 1.0}
        if func in owners:
            return owners[func]
        owners[func] = {"other": 1.0}  # cycle guard
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weight = sum(edge[2] for edge in callers.values())
        if weight <= 0:
            return owners[func]
        shares: dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            for name, part in owner(caller, depth + 1).items():
                shares[name] += part * edge[2] / weight
        owners[func] = dict(shares)
        return owners[func]

    totals: dict[str, float] = defaultdict(float)
    for func, row in table.items():
        for package, part in owner(func).items():
            totals[package] += row[2] * part
    whole = sum(totals.values()) or 1.0
    return {package: value / whole for package, value in sorted(totals.items())}
