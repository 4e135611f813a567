"""One fleet-benchmark workload in a fresh process.

Builds a 30-peer WAKU-RLN-RELAY deployment through the public
``RLNDeployment`` / ``WakuRLNRelayPeer`` API, drives one workload on an
open-loop simulated schedule, checks the outputs, and prints one JSON
record as the last line of standard output.  ``run.py`` starts this file
once per sample; run it by hand from the repository root with::

    PYTHONPATH=src python3 fleetbench/workload.py --workload relay-steady --seed 1

Every input (identities, roles, topology, link delays, schedule) derives
from ``--seed``.  ``--mode traced`` wraps the layer entry points first
(see ``layers.py``) and ``--mode profiled`` runs the measured phase under
cProfile; the simulated figures must not depend on the mode.

Process-lifetime caches (the shared prover's trusted setup, the Poseidon
code generation) are why each sample is its own process: a second set-up
in one process would under-report ``setup_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import pstats
import random
import resource
import statistics
import sys
import time
from dataclasses import replace

from repro.chain.blockchain import WEI
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.protocol import DEFAULT_CONTENT_TOPIC
from repro.core.validator import ValidationOutcome
from repro.crypto.engine import engine_stats, get_engine
from repro.crypto.field import FIELD_MODULUS
from repro.crypto.hashing import hash_message_to_field
from repro.crypto.identity import Identity
from repro.errors import ProtocolError, RegistrationError
from repro.net.latency import UniformLatency
from repro.pipeline.pipeline import PipelineConfig
from repro.revocation import RevocationTracker
from repro.telemetry import CollectorOptions
from repro.treesync import ShardSyncManager
from repro.waku.message import WakuMessage
from repro.witness import LightMember, WitnessClient

from layers import SpanRecorder, install, profile_shares

PEERS = 30
DEGREE = 6
DEPTH = 14
PUBLISHERS = 10
#: One-way link delay, uniform in this range (simulated seconds).  A
#: constant delay would make every latency a multiple of one hop.
LINK_DELAY = (0.02, 0.08)
#: One block per epoch, so membership writes land at a steady rate.
BLOCK_INTERVAL = 1.0
#: Simulated seconds run after the last scheduled publish.
SETTLE = 3.0

WORKLOADS = {
    "relay-steady": {"epochs": 40},
    "spam-flood": {
        "epochs": 16,
        "forged_per_epoch": 20,
        "signal_every": 4,
        "signalers": 4,
    },
    "member-churn": {"epochs": 14, "joins_per_epoch": 2, "light_members": 3},
}

HONEST, LIGHT, SIGNAL, FORGED = "honest", "light", "signal", "forged"

#: Calibration.  On a shared host CPU speed can swing by 2x within seconds
#: (seen on a 2-vCPU 2.1 GHz Xeon VM), so every wall interval is also
#: timed in *reference seconds*: its wall time scaled by how fast a fixed
#: kernel (big-integer modular squaring plus dict stores, the mix of the
#: program's hot paths) runs right before and right after it, relative to
#: REFERENCE_RATE.
#: REFERENCE_RATE is the kernel's rate on an uncontended 2.1 GHz Xeon
#: vCPU, so a reference second is about one such wall second.
REFERENCE_RATE = 7000.0
#: Simulated seconds between calibrations in the measured phase.
CALIBRATION_STEP = 0.25
_CALIBRATION_MODULUS = (1 << 255) - 19


def _kernel() -> int:
    table = {}
    x = 7
    for i in range(300):
        x = (x * x + i) % _CALIBRATION_MODULUS
        table[i & 63] = x
    return x


def machine_speed() -> float:
    """Kernel calls per wall second, right now (about 3 ms of work)."""
    start = time.perf_counter()
    for _ in range(20):
        _kernel()
    return 20 / (time.perf_counter() - start)


def reference_seconds(wall: float, speed_before: float, speed_after: float) -> float:
    return wall * (speed_before + speed_after) / (2.0 * REFERENCE_RATE)


def derive(seed: int, label: str) -> int:
    """A nonzero field-sized integer from the workload seed and a label."""
    digest = hashlib.sha256(f"fleetbench|{seed}|{label}".encode()).digest()
    return int.from_bytes(digest, "big") % (FIELD_MODULUS - 1) + 1


class Fleet:
    """The deployment plus the roles and recorders of one workload."""

    def __init__(self, workload: str, seed: int, recorder=None) -> None:
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.recorder = recorder
        churn = workload == "member-churn"
        flood = workload == "spam-flood"

        config = RLNConfig(
            epoch_length=1.0,
            max_epoch_gap=2,
            tree_depth=DEPTH,
            **({"tree_backend": "sharded", "shard_depth": 7} if churn else {}),
        )
        extra = {}
        if flood:
            extra = {
                "collector": CollectorOptions(trace_sample=1.0, alerting=True),
                "pipeline_config": PipelineConfig(batch_size=8, workers=2),
            }

        machine_speed()  # warm the kernel
        speed_before = machine_speed()
        start = time.perf_counter()
        dep = RLNDeployment.create(
            peer_count=PEERS,
            degree=DEGREE,
            seed=seed,
            config=config,
            latency=UniformLatency(*LINK_DELAY),
            block_interval=BLOCK_INTERVAL,
            **extra,
        )
        self.dep = dep
        ids = dep.peer_ids()
        roles = random.Random(derive(seed, "roles"))
        shuffled = roles.sample(ids, len(ids))
        self.publishers = sorted(shuffled[:PUBLISHERS])
        rest = shuffled[PUBLISHERS:]
        self.attacker = rest[0] if flood else None
        self.signalers = rest[1 : 1 + self.spec["signalers"]] if flood else []
        for peer_id in ids:
            dep.peers[peer_id].identity = Identity.from_secret(derive(seed, peer_id))
        if flood:
            self.coordinators = [p.slashing_coordinator() for p in dep.peers.values()]
        self.light_members = []
        if churn:
            light = self._register_light_members()
        self.supply = dep.chain.total_supply()
        dep.register_all()
        dep.form_meshes()
        if churn:
            self._attach_light_members(light)
        self.setup_s = time.perf_counter() - start
        self.setup_ref_s = reference_seconds(
            self.setup_s, speed_before, machine_speed()
        )

        #: payload -> (kind, origin peer, due time)
        self.sent: dict[bytes, tuple[str, str, float]] = {}
        self.delivered: set[tuple[bytes, str]] = set()
        self.latencies: list[float] = []
        self.forged_delivered = 0
        self.publish_attempts = 0
        self.publish_failures = 0
        self.fetch_times: list[float] = []
        self.trackers: dict[int, object] = {}
        self.signal_times: dict[int, float] = {}
        self._template = None
        record = self._record
        if recorder is not None:
            record = recorder.wrap(record, "harness.record")
        for peer_id, peer in dep.peers.items():
            peer.relay.subscribe(lambda message, p=peer_id: record(p, message))

    # -- set-up helpers ----------------------------------------------------------

    def _register_light_members(self) -> list:
        """Register the light members and give each a light tree view."""
        dep = self.dep
        light = []
        serving = dep.peer("peer-000")
        dep.chain.fund("light-funder", 10 * WEI)
        for i in range(self.spec["light_members"]):
            identity = Identity.from_secret(derive(self.seed, f"light-{i}"))
            dep.chain.send_transaction(
                "light-funder",
                dep.contract.address,
                "register",
                {"pk": identity.pk.value},
                value=dep.contract.deposit,
            )
            # A light view holds the top tree only, fed from peer-000.
            view = ShardSyncManager(home_shard=None, depth=DEPTH, shard_depth=7)
            serving.group.on_shard_update(view.apply)
            light.append((f"light-{i}", identity, view))
        dep.chain.fund("churn-funder", 1000 * WEI)
        return light

    def _attach_light_members(self, light: list) -> None:
        """Put each light member on an off-mesh node served by peer-000."""
        dep = self.dep
        serving = dep.peer("peer-000")
        serving.witness_service()
        for node, identity, view in light:
            dep.network.add_peer(node, ["peer-000"])
            client = WitnessClient(
                node, dep.network, dep.simulator, ("peer-000",), view, tree_depth=DEPTH
            )
            serving.group.on_shard_update(client.on_tree_update)
            member = LightMember(
                identity,
                serving.group.index_of(identity.pk),
                prover=dep.prover,
                client=client,
                timestamp=serving.unix_now,
            )
            member.prefetch_witness()
            self.light_members.append(member)
        dep.run(1.0)

    # -- recording ---------------------------------------------------------------

    def _record(self, peer_id: str, message) -> None:
        entry = self.sent.get(message.payload)
        if entry is None:
            return
        kind, origin, due = entry
        if kind == FORGED:
            if peer_id != origin:
                self.forged_delivered += 1
            return
        if kind == SIGNAL or peer_id == origin:
            return
        if peer_id == self.attacker:
            self._template = message.rate_limit_proof
        key = (message.payload, peer_id)
        if key not in self.delivered:
            self.delivered.add(key)
            self.latencies.append(self.dep.simulator.now - due)

    # -- the open-loop schedule ------------------------------------------------

    def _at(self, when: float, action) -> None:
        if self.recorder is not None:
            action = self.recorder.wrap(action, "harness.drive")
        self.dep.simulator.schedule_at(when, action)

    def _publish(self, peer_id: str, payload: bytes, kind: str, force=False):
        def action() -> None:
            self.sent[payload] = (kind, peer_id, self.dep.simulator.now)
            if kind != SIGNAL:
                self.publish_attempts += 1
            try:
                self.dep.peers[peer_id].publish(payload, force=force)
            except (ProtocolError, RegistrationError):
                self.publish_failures += 1

        return action

    def schedule(self) -> float:
        """Put the whole workload on the simulator; return its end time."""
        dep = self.dep
        epochs = self.spec["epochs"]
        start = self.start = math.floor(dep.simulator.now) + 1.0
        for e in range(epochs):
            for k, peer_id in enumerate(self.publishers):
                payload = b"honest|%d|%d|%s" % (self.seed, e, peer_id.encode())
                self._at(
                    start + e + (k + 0.5) / len(self.publishers),
                    self._publish(peer_id, payload, HONEST),
                )
        if self.workload == "spam-flood":
            self._schedule_flood(start, epochs)
        if self.workload == "member-churn":
            self._schedule_churn(start, epochs)
        return start + epochs + SETTLE

    def _schedule_flood(self, start: float, epochs: int) -> None:
        attacker = self.dep.peer(self.attacker)
        per_epoch = self.spec["forged_per_epoch"]

        def forge(payload: bytes):
            def action() -> None:
                # A forged copy of the latest honest bundle the attacker
                # relayed, re-bound to a fresh payload so it reaches proof
                # verification (the E10 shape) instead of a cheap reject.
                self.sent[payload] = (FORGED, self.attacker, self.dep.simulator.now)
                bundle = replace(
                    self._template.forged_copy(),
                    share_x=hash_message_to_field(payload),
                )
                attacker.relay.publish(
                    WakuMessage(
                        payload=payload,
                        content_topic=DEFAULT_CONTENT_TOPIC,
                        timestamp=attacker.unix_now(),
                        rate_limit_proof=bundle,
                    )
                )

            return action

        # Epoch 0 seeds the attacker's template; it forges from epoch 1 on.
        for e in range(1, epochs):
            for j in range(per_epoch):
                payload = b"forged|%d|%d|%d" % (self.seed, e, j)
                self._at(start + e + (j + 0.25) / per_epoch, forge(payload))

        # Each double-signaler publishes twice, 10 ms apart, mid-epoch and
        # off the honest and forged slots.
        for n, peer_id in enumerate(self.signalers):
            epoch = 1 + n * self.spec["signal_every"]
            when = start + epoch + 0.5 + 0.013
            self._at(when, self._begin_signal(peer_id, when + 0.01))
            for i in range(2):
                payload = b"signal|%d|%d|%d" % (self.seed, n, i)
                self._at(when + 0.01 * i, self._publish(peer_id, payload, SIGNAL, True))

        def route_spam(evidence) -> None:
            tracker = self.trackers.get(evidence.epoch)
            if tracker is not None:
                tracker.spam_detected(evidence)

        def route_removal(case) -> None:
            tracker = self.trackers.get(case.epoch)
            if tracker is not None:
                tracker.removed_on_chain(case)

        for peer in self.dep.peers.values():
            peer.on_spam(route_spam)
        for coordinator in self.coordinators:
            coordinator.on_removed(route_removal)

    def _begin_signal(self, peer_id: str, signalled_at: float):
        """Start a revocation tracker; ``signalled_at`` is the second publish."""

        def action() -> None:
            dep = self.dep
            signaler = dep.peer(peer_id)
            epoch = signaler.current_epoch()
            tracker = RevocationTracker(dep.simulator, poll_interval=0.05)
            self.trackers[epoch] = tracker
            self.signal_times[epoch] = signalled_at
            stale_root = signaler.group.root
            for name, peer in dep.peers.items():
                tracker.watch_exclusion(name, peer.group, stale_root)

        return action

    def _schedule_churn(self, start: float, epochs: int) -> None:
        dep = self.dep
        serving = dep.peer("peer-000")
        joins = self.spec["joins_per_epoch"]

        def join(label: str):
            def action() -> None:
                identity = Identity.from_secret(derive(self.seed, label))
                dep.chain.send_transaction(
                    "churn-funder",
                    dep.contract.address,
                    "register",
                    {"pk": identity.pk.value},
                    value=dep.contract.deposit,
                )

            return action

        def light_publish(member, payload: bytes):
            def action() -> None:
                due = dep.simulator.now
                self.sent[payload] = (LIGHT, "peer-000", due)
                self.publish_attempts += 1

                def published(_message) -> None:
                    self.fetch_times.append(dep.simulator.now - due)

                def failed(_failure) -> None:
                    self.publish_failures += 1

                member.publish(
                    payload,
                    serving.current_epoch(),
                    serving.relay.publish,
                    on_published=published,
                    on_error=failed,
                )

            return action

        for e in range(epochs):
            for j in range(joins):
                self._at(start + e + (j + 0.3) / joins, join(f"join-{e}-{j}"))
            # Blocks land on epoch boundaries, and each one's joins make the
            # witness caches refresh.  The first light member publishes 20 ms
            # after the block, while that refresh (two 20-80 ms hops) is in
            # flight, so it fetches; the others find the refreshed cache.
            # Both witness paths run every epoch in a fixed proportion.
            for i, member in enumerate(self.light_members):
                payload = b"light|%d|%d|%d" % (self.seed, e, i)
                self._at(
                    start + e + 0.02 + i / len(self.light_members),
                    light_publish(member, payload),
                )

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters read before and after the measured phase."""
        dep = self.dep
        engines = engine_stats().values()
        return {
            "events": dep.simulator.processed_events,
            "sends": dep.network.total_messages(),
            "bytes": dep.network.protocol_bytes(),
            "hashes": sum(s.hashes for s in engines),
            "hash_s": sum(s.seconds for s in engines),
            "pairings": dep.prover.pairing_counter.evaluations,
            "blocks": dep.chain.block_number,
        }


def delta(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = {
                k: v - before[key].get(k, 0) for k, v in value.items()
            }
        else:
            out[key] = value - before[key]
    return out


def checks(fleet: Fleet, all_delivered: bool) -> dict[str, bool]:
    """The workload's correctness checks (every one must hold)."""
    dep = fleet.dep
    outcomes = {outcome: 0 for outcome in ValidationOutcome}
    for peer in dep.peers.values():
        for outcome, count in peer.validator_stats.outcomes.items():
            outcomes[outcome] += count
    only_valid = all(
        count == 0 for outcome, count in outcomes.items()
        if outcome is not ValidationOutcome.VALID
    )
    result = {"no_failed_publish": fleet.publish_failures == 0}
    if fleet.workload == "relay-steady":
        result["delivery_ratio_is_1"] = all_delivered
        result["every_verdict_valid"] = only_valid
    elif fleet.workload == "spam-flood":
        signaler_pks = {dep.peer(p).identity.pk.value for p in fleet.signalers}
        removed = {
            int(e.data["pk"]) for e in dep.chain.events(name="MemberRemoved")
        }
        honest = [p for p in dep.peers.values() if p.peer_id not in fleet.signalers]
        convicted = {
            int(case.spammer_pk)
            for coordinator in fleet.coordinators
            for case in coordinator.cases
        }
        result["no_forged_delivery"] = fleet.forged_delivered == 0
        result["every_signaler_removed"] = all(
            not dep.contract.is_member(dep.peer(p).identity.pk)
            for p in fleet.signalers
        )
        result["every_revocation_finished"] = len(fleet.trackers) == len(
            fleet.signalers
        ) and all(t.network_wide_at is not None for t in fleet.trackers.values())
        result["no_honest_conviction"] = convicted <= signaler_pks
        result["no_honest_slashed"] = removed <= signaler_pks and all(
            dep.contract.is_member(p.identity.pk) for p in honest
        )
        result["chain_value_conserved"] = dep.chain.total_supply() == fleet.supply
    else:
        roots = {int(p.group.root) for p in dep.peers.values()}
        result["one_root"] = len(roots) == 1
        result["every_verdict_valid"] = only_valid
        light = [k for k, v in fleet.sent.items() if v[0] == LIGHT]
        result["every_light_publish_delivered"] = all(
            sum((payload, p) in fleet.delivered for p in dep.peers if p != "peer-000")
            == PEERS - 1
            for payload in light
        )
    return result


def layer_counts(fleet: Fleet, work: dict, deliveries: int, elapsed: float) -> dict:
    """Per-layer counters read from the program's own stats objects."""
    dep = fleet.dep
    peers = list(dep.peers.values())
    router = [p.router_stats for p in peers]
    delivered = sum(s.delivered for s in router)
    caches = [p.pipeline.verdict_cache for p in peers]
    lookups = sum(c.hits + c.misses for c in caches)
    batches = [p.pipeline.batch_verifier.stats for p in peers]
    flushed = sum(b.batches_verified for b in batches)
    executors = [p.crypto_executor.stats for p in peers]
    completed = sum(
        c.completed for s in executors for c in s.classes.values()
    )
    waited = sum(
        c.queue_delay_total for s in executors for c in s.classes.values()
    )
    lanes = [s for s in executors if s.lane_busy_seconds]
    all_bytes = sum(work["bytes"].values()) or 1
    out = {
        "net.events": work["events"],
        "net.sends": work["sends"],
        "gossipsub.dup_ratio": sum(s.duplicates for s in router) / max(1, delivered),
        "zksnark.pairings": work["pairings"],
        "crypto.hashes": work["hashes"],
        "crypto.hash_s": work["hash_s"],
        "crypto.hashes_per_delivery": work["hashes"] / max(1, deliveries),
        "pipeline.cache_hit_ratio": sum(c.hits for c in caches) / max(1, lookups),
        "pipeline.shed": sum(p.pipeline_stats.rate_limited for p in peers),
        "pipeline.mean_batch": sum(b.jobs_submitted for b in batches)
        / max(1, flushed),
        "exec.jobs": completed,
        "exec.queue_delay_ms": 1000.0 * waited / max(1, completed),
        "exec.occupancy": statistics.fmean(s.occupancy(elapsed) for s in lanes)
        if lanes
        else 0.0,
        "chain.blocks": work["blocks"],
        "telemetry.byte_share": (
            work["bytes"].get("telemetry", 0) + work["bytes"].get("telemetry-reply", 0)
        )
        / all_bytes,
    }
    for protocol in ("gossipsub", "telemetry", "witness"):
        out[f"net.bytes.{protocol}"] = work["bytes"].get(protocol, 0) + work[
            "bytes"
        ].get(f"{protocol}-reply", 0)
    coordinators = getattr(fleet, "coordinators", [])
    won = sum(c.stats.races_won for c in coordinators)
    lost = sum(c.stats.races_lost for c in coordinators)
    out["revocation.observes"] = sum(c.stats.cases for c in coordinators)
    out["revocation.race_loss_ratio"] = lost / max(1, won + lost)
    detect = [
        t.spam_detected_at - fleet.signal_times[e]
        for e, t in fleet.trackers.items()
        if t.spam_detected_at is not None
    ]
    revoke = [
        t.network_wide_at - fleet.signal_times[e]
        for e, t in fleet.trackers.items()
        if t.network_wide_at is not None
    ]
    out["revocation.detect_s"] = statistics.median(detect) if detect else 0.0
    out["revocation.revoke_s"] = statistics.median(revoke) if revoke else 0.0
    clients = [m.client for m in fleet.light_members]
    hits = sum(c.cache.stats.hits for c in clients)
    misses = sum(c.cache.stats.misses for c in clients)
    out["witness.requests"] = sum(c.dispatcher.stats.requests for c in clients)
    out["witness.cache_hit_ratio"] = hits / max(1, hits + misses)
    fetches = sorted(t for t in fleet.fetch_times if t > 0)
    out["witness.fetch_ms"] = 1000.0 * statistics.median(fetches) if fetches else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "traced", "profiled"), default="plain"
    )
    parser.add_argument("--spans", help="file the traced mode writes its spans to")
    args = parser.parse_args(argv)

    recorder = None
    if args.mode == "traced":
        engine = get_engine().stats
        recorder = SpanRecorder(lambda: engine.seconds)
        install(recorder)

    fleet = Fleet(args.workload, args.seed, recorder)
    end = fleet.schedule()
    dep = fleet.dep
    before = fleet.snapshot()
    profiler = cProfile.Profile() if args.mode == "profiled" else None
    run = dep.run
    if recorder is not None:
        recorder.reset()  # set-up spans are not part of the measured phase
        run = recorder.wrap(run, "harness.phase")
    # The phase advances CALIBRATION_STEP simulated seconds at a time (the
    # simulation is the same as one long run), calibrating between steps.
    sim_start = dep.simulator.now
    steps = math.ceil((end - sim_start) / CALIBRATION_STEP)
    phase_s = phase_ref_s = 0.0
    speed = machine_speed()
    for index in range(1, steps + 1):
        step = min(end, sim_start + index * CALIBRATION_STEP)
        if profiler is not None:
            profiler.enable()
        opened = time.perf_counter()
        run(step - dep.simulator.now)
        wall = time.perf_counter() - opened
        if profiler is not None:
            profiler.disable()
        after = machine_speed()
        phase_s += wall
        phase_ref_s += reference_seconds(wall, speed, after)
        speed = after
    work = delta(fleet.snapshot(), before)

    eligible = sum(
        PEERS - 1 for kind, _o, _d in fleet.sent.values() if kind in (HONEST, LIGHT)
    )
    deliveries = len(fleet.delivered)
    latencies = sorted(fleet.latencies)
    sim = {
        "deliveries": deliveries,
        "eligible": eligible,
        "latency_samples": len(latencies),
        # Exact fingerprint: run.py pools the latencies of several inputs.
        "latency_digest": hashlib.sha256(repr(latencies).encode()).hexdigest(),
        "publish_attempts": fleet.publish_attempts,
        "publish_failures": fleet.publish_failures,
        "forged_delivered": fleet.forged_delivered,
        "events": work["events"],
        "sends": work["sends"],
        "bytes": work["bytes"],
        "hashes": work["hashes"],
        "pairings": work["pairings"],
        "blocks": work["blocks"],
        "end_time": dep.simulator.now,
    }
    layers = layer_counts(fleet, work, deliveries, end - sim_start)
    # Simulated per-layer figures join the determinism comparison.
    for key in (
        "exec.jobs",
        "exec.queue_delay_ms",
        "revocation.detect_s",
        "revocation.revoke_s",
        "witness.fetch_ms",
        "pipeline.shed",
    ):
        sim[key] = layers[key]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": fleet.setup_s,
        "setup_ref_s": fleet.setup_ref_s,
        "phase_s": phase_s,
        "phase_ref_s": phase_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim,
        "latencies": latencies,
        "checks": checks(fleet, deliveries == eligible),
        "layers": layers,
    }
    if recorder is not None:
        result["self_times"] = recorder.self_times()
        result["counts"] = dict(recorder.counts)
        if args.spans:
            recorder.dump(args.spans)
    if profiler is not None:
        result["profile_shares"] = profile_shares(pstats.Stats(profiler))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
