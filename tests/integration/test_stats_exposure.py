"""Every exposed counter series equals the ``*Stats`` field it reads.

Each subsystem counts an event once, in its ``*Stats`` dataclass, and the
registry reads that field at collect time.  One short fleet run drives
every bound subsystem; each parametrized case then checks, per object,
that the collected series carry today's exported names and labels and
hold exactly the field values.
"""

import pytest

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.crypto.engine import get_engine, publish_engine_telemetry
from repro.crypto.field import FieldElement
from repro.telemetry import CollectorOptions, MetricsRegistry, metric_key
from repro.treesync import ShardSyncManager
from repro.witness import WitnessClient

DEPTH = 8
SHARD_DEPTH = 3
OBSERVERS = ("peer-001", "peer-002", "peer-003")

#: Exported series per Stats class: field -> (name, constant labels), or
#: (name, fan-out label) for a dict-valued field.
SERIES = {
    "router": {
        "pruned_peers": ("gossipsub_prunes_total", {}),
        "grafts": ("gossipsub_grafts_total", {}),
        "backoff_grafts_rejected": ("gossipsub_backoff_grafts_rejected_total", {}),
        "behaviour_penalties": ("gossipsub_penalties_total", {"kind": "behaviour"}),
        "invalid_penalties": (
            "gossipsub_penalties_total",
            {"kind": "invalid-message"},
        ),
    },
    "pipeline": {
        "admitted": ("pipeline_admitted_total", {}),
        "deferred": ("pipeline_deferred_total", {}),
        "drops": ("pipeline_drops_total", "stage"),
    },
    "exporter": {
        "batches_dropped": ("telemetry_dropped_batches_total", {}),
    },
    "collector": {
        "batches": ("collector_batches_total", {}),
        "duplicates": ("collector_duplicates_total", {}),
        "gaps": ("collector_gaps_total", {}),
        "lost_batches": ("collector_lost_batches_total", {}),
        "acks_sent": ("collector_acks_sent_total", {}),
        "malformed": ("collector_malformed_total", {}),
        "reported_drops": ("collector_reported_drops_total", "peer"),
    },
    "coordinator": {
        "cases": ("slashing_cases_total", {}),
        "races_won": ("slashing_races_total", {"outcome": "won"}),
        "races_lost": ("slashing_races_total", {"outcome": "lost"}),
        "gas_spent_wei": ("slashing_gas_spent_wei_total", {}),
        "rewards_wei": ("slashing_rewards_wei_total", {}),
    },
    "treesync": {
        "home_events": ("treesync_events_total", {"kind": "home"}),
        "foreign_events": ("treesync_events_total", {"kind": "foreign"}),
        "commits": ("treesync_commits_total", {}),
        "rollbacks": ("treesync_rollbacks_total", {}),
        "checkpoints_restored": ("treesync_checkpoints_restored_total", {}),
        "snapshots_restored": ("treesync_snapshots_restored_total", {}),
        "bytes_consumed": ("treesync_bytes_consumed_total", {}),
        "removals_applied": ("treesync_removals_total", {}),
    },
    "witness-service": {
        "witnesses_served": ("witness_served_total", {"kind": "witness"}),
        "snapshots_served": ("witness_served_total", {"kind": "snapshot"}),
        "witness_misses": ("witness_service_misses_total", {"kind": "witness"}),
        "snapshot_misses": ("witness_service_misses_total", {"kind": "snapshot"}),
    },
    "witness-client": {
        "hits": ("witness_cache_hits_total", {}),
        "misses": ("witness_cache_misses_total", {}),
        "refreshes": ("witness_refreshes_total", {}),
        "fetch_failures": ("witness_fetch_failures_total", {}),
    },
    "engine": {
        "hashes": ("crypto_hashes_total", {}),
        "permutations": ("crypto_permutations_total", {}),
        "seconds": ("crypto_hash_seconds", {}),
    },
}


@pytest.fixture(scope="module")
def bound():
    """One short fleet run; ``{kind: [(registry, stats, labels), …]}``."""
    config = RLNConfig(
        epoch_length=30.0,
        max_epoch_gap=2,
        tree_depth=DEPTH,
        tree_backend="sharded",
        shard_depth=SHARD_DEPTH,
    )
    # Alerting makes every tick send a (heartbeat) batch; on a tick faster
    # than the round trip, a one-batch queue makes the exporters shed.
    dep = RLNDeployment.create(
        peer_count=8,
        degree=4,
        seed=7,
        config=config,
        auto_slash=False,
        enable_scoring=True,
        collector=CollectorOptions(interval=0.05, queue_limit=1, alerting=True),
    )
    anchor, spammer = dep.peer("peer-000"), dep.peer("peer-007")
    hub = anchor.telemetry
    views = [
        ShardSyncManager(
            shard, depth=DEPTH, shard_depth=SHARD_DEPTH, telemetry=hub, peer_id=name
        )
        for shard, name in ((0, "view-home"), (None, "view-light"))
    ]
    anchor.group.on_shard_update(views[0].apply)
    anchor.group.on_shard_update(lambda event: views[1].apply(event.digest()))
    dep.register_all()
    dep.form_meshes(5.0)
    coordinators = [dep.peer(name).slashing_coordinator() for name in OBSERVERS]

    service = anchor.witness_service()
    client = WitnessClient(
        "peer-001",
        dep.network,
        dep.simulator,
        ("peer-000",),
        anchor.group,
        tree_depth=DEPTH,
        telemetry=dep.peer("peer-001").telemetry,
    )
    anchor.group.on_shard_update(client.on_shard_event)
    index = anchor.group.index_of(anchor.identity.pk)
    client.witness(index, lambda proof: None)
    dep.run(1.0)
    client.witness(index, lambda proof: None)  # cache hit
    client.witness(1 << DEPTH, lambda proof: None)  # out of range: fails over

    anchor.publish(b"honest")
    dep.run(2.0)
    spammer.publish(b"spam-a", force=True)
    dep.run(2.0)
    spammer.publish(b"spam-b", force=True)
    dep.run(6 * dep.chain.block_interval)
    dep.flush_telemetry()
    for view in views:
        view.commit()

    engine = get_engine("int")
    engine.hash2(FieldElement(1), FieldElement(2))
    engine_registry = MetricsRegistry()
    publish_engine_telemetry(engine_registry)

    def per_peer(attr):
        return [
            (p.telemetry.registry, attr(p), {"peer": pid})
            for pid, p in dep.peers.items()
        ]

    collector = dep.collector
    return {
        "router": per_peer(lambda p: p.relay.router.stats),
        "pipeline": per_peer(lambda p: p.pipeline.stats),
        "exporter": [
            (dep.peer(pid).telemetry.registry, exporter.stats, {"peer": pid})
            for pid, exporter in dep.exporters.items()
        ],
        "collector": [
            (collector._own, collector.stats, {"collector": collector.peer_id})
        ],
        "coordinator": [
            (c.telemetry.registry, c.stats, {"peer": c.account}) for c in coordinators
        ],
        "treesync": [
            (hub.registry, view.stats, {"peer": name})
            for view, name in zip(views, ("view-home", "view-light"))
        ],
        "witness-service": [(hub.registry, service.stats, {"peer": "peer-000"})],
        "witness-client": [
            (client.telemetry.registry, client.cache.stats, {"peer": "peer-001"})
        ],
        "engine": [(engine_registry, engine.stats, {"backend": "int"})],
    }


@pytest.mark.parametrize("kind", sorted(SERIES))
def test_exposed_series_equal_fields(bound, kind):
    nonzero = 0
    for registry, stats, labels in bound[kind]:
        collected = registry.collect()
        expected: dict[str, object] = {}
        for attr, (name, extra) in SERIES[kind].items():
            value = getattr(stats, attr)
            if isinstance(extra, str):
                for item, count in value.items():
                    expected[metric_key(name, {**labels, extra: item})] = count
            else:
                expected[metric_key(name, {**labels, **extra})] = value
        names = {name for name, _ in SERIES[kind].values()}
        owned = {
            key: entry["value"]
            for key, entry in collected.items()
            if entry["name"] in names
            and all(entry["labels"].get(k) == v for k, v in labels.items())
        }
        assert owned == expected
        # Live reads through the handle, too.
        for key, value in expected.items():
            entry = collected[key]
            assert registry.counter(entry["name"], **entry["labels"]).value == value
        nonzero += sum(1 for value in expected.values() if value)
    assert nonzero, f"the run never counted a {kind} event"
