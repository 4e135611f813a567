"""The server half: resourceful peers answering witness & snapshot queries.

The hybrid architecture of §IV-A gives resourceful peers the full
membership tree and lets light members fetch their Merkle authentication
paths on demand.  :class:`WitnessService` is that role as a
request/response protocol: it owns the ``witness`` channel of one peer,
extracts spliced (shard ∥ top) paths or shard-leaf snapshots from the
peer's group manager, and replies.

Extraction is hash work over the forest, and on a relay peer it competes
with §III-F validation for the same modeled CPU.  When the service is
given the pipeline's crypto executor it submits every extraction at
:attr:`~repro.exec.executor.Priority.SERVICE` — witness traffic queues
behind relay verdicts (and ahead of background precomputation), so a
witness-request flood cannot starve the mesh the way an invalid-proof
flood once could.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.crypto.field import ZERO
from repro.errors import ProtocolError
from repro.exec.executor import CryptoExecutor, Priority
from repro.net.transport import Network
from repro.telemetry import resolve as resolve_telemetry
from repro.telemetry.registry import counted
from repro.treesync.forest import ShardedMerkleForest
from repro.treesync.witness import WitnessProvider
from repro.witness.messages import (
    WITNESS_PROTOCOL,
    WITNESS_REPLY_PROTOCOL,
    SnapshotRequest,
    SnapshotResponse,
    WitnessRequest,
    WitnessResponse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.membership import GroupManager


@dataclass
class WitnessServiceStats:
    """Service-side load accounting (experiment E14's server surface)."""

    witness_requests: int = 0
    witnesses_served: int = counted("witness_served_total", kind="witness")
    witness_misses: int = counted("witness_service_misses_total", kind="witness")
    snapshot_requests: int = 0
    snapshots_served: int = counted("witness_served_total", kind="snapshot")
    snapshot_misses: int = counted("witness_service_misses_total", kind="snapshot")

    @property
    def total_served(self) -> int:
        """Witness *and* snapshot responses served — the service load
        :func:`~repro.analysis.metrics.witness_service_load` reports."""
        return self.witnesses_served + self.snapshots_served


class WitnessService:
    """One resourceful peer serving witnesses and snapshots from its tree.

    ``manager`` is the peer's :class:`~repro.core.membership.GroupManager`
    (either backend: the sharded forest splices through
    :class:`~repro.treesync.witness.WitnessProvider`; the flat tree's own
    paths are node-identical, so the answer is the same bytes either way).
    """

    def __init__(
        self,
        peer_id: str,
        manager: "GroupManager",
        network: Network,
        *,
        executor: CryptoExecutor | None = None,
        priority: Priority = Priority.SERVICE,
        telemetry=None,
    ) -> None:
        self.peer_id = peer_id
        self.manager = manager
        self.network = network
        self.executor = executor
        self.priority = priority
        self.stats = WitnessServiceStats()
        self.telemetry = resolve_telemetry(telemetry)
        #: Distributed tracing: traced witness requests get a
        #: "witness-serve" span linked into the requester's trace.
        self.tracer = self.telemetry.tracer(peer_id)
        self.telemetry.registry.expose(self.stats, peer=peer_id)
        #: Splicing provider over the forest (sharded backend only; the
        #: flat tree serves its native paths).
        self.provider: WitnessProvider | None = (
            WitnessProvider(manager.tree)
            if isinstance(manager.tree, ShardedMerkleForest)
            else None
        )
        network.register(peer_id, self._on_request, protocol=WITNESS_PROTOCOL)

    # -- request handling ----------------------------------------------------

    def _on_request(self, sender: str, request: object) -> None:
        if isinstance(request, WitnessRequest):
            self._submit(lambda: self._build_witness(request), sender, request.trace)
        elif isinstance(request, SnapshotRequest):
            self._submit(lambda: self._build_snapshot(request), sender)

    def _submit(
        self, work: Callable[[], object], sender: str, trace=None
    ) -> None:
        """Run the extraction through the executor's SERVICE lane.

        With no executor (a dedicated, non-relaying witness server) the
        work runs inline; with the pipeline's executor it queues behind
        relay verdicts, and the response is sent at (simulated) completion.
        The serve span (traced requests only) covers arrival → response
        dispatch, so executor queueing shows up as serve latency.
        """
        arrival = self.tracer.clock() if trace is not None else 0.0

        def deliver(response: object) -> None:
            if trace is not None:
                self.tracer.link(
                    trace,
                    kind="witness-serve",
                    start=arrival,
                    end=self.tracer.clock(),
                )
            self.network.send(
                self.peer_id, sender, response, protocol=WITNESS_REPLY_PROTOCOL
            )

        if self.executor is None:
            deliver(work())
        else:
            self.executor.submit(work, deliver, priority=self.priority)

    # -- extraction ------------------------------------------------------------

    def _build_witness(self, request: WitnessRequest) -> WitnessResponse:
        self.stats.witness_requests += 1
        tree = self.manager.tree
        if not 0 <= request.index < tree.leaf_count:
            self.stats.witness_misses += 1
            return WitnessResponse(request_id=request.request_id, found=False)
        if self.provider is not None:
            proof = self.provider.witness(request.index)
        else:
            proof = tree.proof(request.index)
        self.stats.witnesses_served += 1
        return WitnessResponse(
            request_id=request.request_id,
            found=True,
            seq=self.manager.event_seq,
            proof=proof,
        )

    def _build_snapshot(self, request: SnapshotRequest) -> SnapshotResponse:
        self.stats.snapshot_requests += 1
        tree = self.manager.tree
        shard_depth = self.manager.shard_depth
        if shard_depth < 1:
            raise ProtocolError(
                "snapshot service needs a shard geometry (tree_depth >= 2)"
            )
        num_shards = 1 << (tree.depth - shard_depth)
        if not 0 <= request.shard_id < num_shards:
            self.stats.snapshot_misses += 1
            return SnapshotResponse(request_id=request.request_id, found=False)
        capacity = 1 << shard_depth
        start = request.shard_id * capacity
        end = min(tree.leaf_count, start + capacity)
        leaves = tuple(
            (index - start, leaf)
            for index in range(start, end)
            if (leaf := tree.leaf(index)) != ZERO
        )
        self.stats.snapshots_served += 1
        return SnapshotResponse(
            request_id=request.request_id,
            found=True,
            shard_id=request.shard_id,
            shard_depth=shard_depth,
            seq=self.manager.event_seq,
            leaves=leaves,
        )
