"""Integration: sharded tree sync over 13/WAKU2-STORE, and sharded peers.

Covers the checkpoint+delta fallback end to end — a publisher archives
shard updates, digests, and checkpoints; a lagging shard-scoped peer
catches up through real store queries over the simulated network — and a
full WAKU-RLN-RELAY deployment running the ``"sharded"`` tree backend.
"""

import random

import pytest

from repro import testing
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.membership import GroupManager
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry import Telemetry
from repro.treesync import CHECKPOINT_TOPIC, ShardSyncManager, TreeSyncPublisher
from repro.treesync.messages import TreeCheckpoint
from repro.waku.relay import WakuRelay
from repro.waku.store import HistoryQuery, StoreClient, StoreNode

DEPTH = 8
SHARD_DEPTH = 3


@pytest.fixture()
def net():
    sim = Simulator()
    graph = full_mesh(3)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01), rng=random.Random(3)
    )
    relays = {
        peer: WakuRelay(peer, network, sim, rng=random.Random(i))
        for i, peer in enumerate(sorted(graph.nodes))
    }
    for relay in relays.values():
        relay.start()
    sim.run(3.0)
    return sim, network, relays


@pytest.fixture()
def group():
    chain = Blockchain()
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 500 * WEI)
    manager = GroupManager(
        chain,
        contract,
        tree_depth=DEPTH,
        tree_backend="sharded",
        shard_depth=SHARD_DEPTH,
    )
    return chain, contract, manager


class TestStoreFallback:
    def test_lagging_peer_catches_up(self, net, group):
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        publisher = TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)

        for i in range(37):
            testing.register_member(chain, contract, 0x2000 + i)
        assert publisher.checkpoints_published >= 4

        telemetry = Telemetry()
        lagger = ShardSyncManager(
            home_shard=0,
            depth=DEPTH,
            shard_depth=SHARD_DEPTH,
            telemetry=telemetry,
            peer_id="lagger",
        )
        client = StoreClient(names[1], network)
        roots = []
        lagger.sync_from_store(client, names[0], on_done=roots.append)
        sim.run(5.0)
        assert roots and roots[0] == manager.root
        assert lagger.seq == manager.event_seq
        assert lagger.stats.checkpoints_restored == 1
        # The home topic replay covered shard 0's 8 members.
        assert lagger.stats.home_events == 8
        # The exported byte count is the stats' count, archive replay
        # included (it once missed the pre-checkpoint home updates).
        exported = telemetry.snapshot().value(
            "treesync_bytes_consumed_total", peer="lagger"
        )
        assert exported == lagger.stats.bytes_consumed > 0

    def test_catch_up_without_checkpoint(self, net, group):
        """With no checkpoint archived yet, the digest feed alone suffices."""
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=10_000)

        for i in range(12):
            testing.register_member(chain, contract, 0x3000 + i)

        lagger = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        client = StoreClient(names[1], network)
        roots = []
        lagger.sync_from_store(client, names[0], on_done=roots.append)
        sim.run(5.0)
        assert roots and roots[0] == manager.root

    def test_live_after_catch_up(self, net, group):
        """A recovered peer re-joins the live feed seamlessly (same seq)."""
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=8)
        for i in range(20):
            testing.register_member(chain, contract, 0x4000 + i)

        lagger = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        client = StoreClient(names[1], network)
        lagger.sync_from_store(client, names[0], on_done=lambda root: None)
        sim.run(5.0)
        manager.on_shard_update(lagger.apply)
        for i in range(6):
            testing.register_member(chain, contract, 0x5000 + i)
        assert lagger.root == manager.root

    def test_descending_checkpoint_query_is_single_message(self, net, group):
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=4)
        for i in range(20):
            testing.register_member(chain, contract, 0x6000 + i)

        client = StoreClient(names[1], network)
        pages = []
        client.query(
            names[0],
            content_topics=(CHECKPOINT_TOPIC,),
            page_size=1,
            descending=True,
            limit=1,
            on_complete=pages.append,
        )
        sim.run(6.0)
        assert len(pages) == 1 and len(pages[0]) == 1
        newest = TreeCheckpoint.from_bytes(pages[0][0].payload)
        # Newest-first: the single message is the latest checkpoint.
        assert newest.seq == 20
        assert newest.global_root == manager.root


class TestShardedDeployment:
    def test_publish_and_validate_on_sharded_backend(self):
        config = RLNConfig(
            epoch_length=30.0,
            max_epoch_gap=2,
            tree_depth=DEPTH,
            tree_backend="sharded",
            shard_depth=SHARD_DEPTH,
        )
        dep = RLNDeployment.create(peer_count=6, degree=3, seed=12, config=config)
        dep.register_all()
        dep.form_meshes(5.0)
        sender = dep.peer("peer-001")
        sender.publish(b"over the forest")
        dep.run(3.0)
        receiver = dep.peer("peer-004")
        assert any(m.payload == b"over the forest" for m in receiver.received)

    def test_flat_and_sharded_managers_share_roots(self):
        """Both backends watching one contract agree on every root."""
        config = RLNConfig(epoch_length=30.0, tree_depth=DEPTH, shard_depth=SHARD_DEPTH)
        dep = RLNDeployment.create(peer_count=4, degree=3, seed=9, config=config)
        sharded = GroupManager(
            dep.chain,
            dep.contract,
            tree_depth=DEPTH,
            tree_backend="sharded",
            shard_depth=SHARD_DEPTH,
        )
        dep.register_all()
        flat_manager = dep.peer("peer-000").group
        assert flat_manager.root == sharded.root
        assert flat_manager.recent_roots()[-1] == sharded.recent_roots()[-1]
        sharded.close()


class TestBoundedCatchUp:
    def test_small_gap_does_not_drain_the_archive(self, net, group):
        """Delta queries walk newest-first and stop at the first covered
        seq: recovering from a 3-event gap must not fetch 100+ archived
        messages."""
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=5000)
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=16)

        view = ShardSyncManager(home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH)
        manager.on_shard_update(view.apply)
        for i in range(100):
            testing.register_member(chain, contract, 0x7000 + i)
        # Miss the next 3 events entirely (detach only this view — the
        # publisher keeps archiving), then recover via the store.
        manager._shard_listeners.remove(view.apply)
        missed_from = manager.event_seq
        for i in range(3):
            testing.register_member(chain, contract, 0x7F00 + i)

        client = StoreClient(names[1], network)
        received_before = network.stats[names[1]].bytes_received
        roots = []
        view.sync_from_store(client, names[0], page_size=8, on_done=roots.append)
        sim.run(10.0)
        assert roots and roots[0] == manager.root
        assert view.seq == manager.event_seq == missed_from + 3
        fetched = network.stats[names[1]].bytes_received - received_before
        archive_bytes = sum(
            m.byte_size()
            for m in store.query_local(
                HistoryQuery(request_id=0, page_size=10_000)
            ).messages
        )
        # A 3-event gap needs a few pages, not the whole archive.
        assert fetched < archive_bytes / 3, (fetched, archive_bytes)


class TestRemovalRecovery:
    """A peer that was offline across a slash must not keep accepting
    pre-removal roots after store recovery (the revocation window
    collapse survives the checkpoint+delta path)."""

    def slash(self, chain, contract, member):
        from repro.crypto.commitments import commit as make_commitment

        commitment, opening = make_commitment(member.sk.to_bytes(), b"funder")
        chain.send_transaction(
            "funder", contract.address, "slash_commit",
            {"digest": commitment.digest},
        )
        chain.mine_block()
        chain.send_transaction(
            "funder", contract.address, "slash_reveal",
            {"sk": member.sk.value, "nonce": opening.nonce},
        )
        chain.mine_block()

    @pytest.mark.parametrize("home_shard", [0, 1, None])
    def test_recovery_over_a_removal_collapses_the_window(
        self, net, group, home_shard
    ):
        sim, network, relays = net
        chain, contract, manager = group
        names = sorted(relays)
        store = StoreNode(relays[names[0]], network, capacity=1000)
        # checkpoint_interval small enough that the removal is *covered
        # by a checkpoint*, not replayed as a live delta — the regression
        # this test pins: restore() must collapse conservatively.
        TreeSyncPublisher(manager, store.archive, checkpoint_interval=4)

        view = ShardSyncManager(
            home_shard=home_shard, depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        live = []
        manager.on_shard_update(live.append)
        members = [
            testing.register_member(chain, contract, 0x4000 + i) for i in range(6)
        ]
        for event in live:
            view.apply(event if home_shard is not None else event.digest())
        stale_root = view.commit()
        assert stale_root == manager.root
        assert view.is_acceptable_root(stale_root)

        # Offline across the slash (and enough registrations that a
        # fresh checkpoint covers the removal).
        self.slash(chain, contract, members[2])
        for i in range(6):
            testing.register_member(chain, contract, 0x4100 + i)

        client = StoreClient(names[1], network)
        roots = []
        view.sync_from_store(client, names[0], on_done=roots.append)
        sim.run(sim.now + 10.0)
        assert roots and roots[0] == manager.root
        # The recovered window must NOT vouch for the pre-outage root:
        # the gap contained a removal this view never saw.
        assert not view.is_acceptable_root(stale_root)
        assert view.recent_roots() == [manager.root]
