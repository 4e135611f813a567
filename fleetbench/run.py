"""Fleet benchmark: one command for every end-to-end or per-layer metric.

Run from the repository root::

    python3 fleetbench/run.py --workload relay-steady --seed 1 --seconds 30 --trace 0

Each sample is a fresh process (``workload.py``) that sets up a 30-peer
deployment, drives the workload on a simulated open-loop schedule and
checks its outputs.  With ``--trace 0`` samples repeat until ``--seconds``
of wall time is used (at least three), and the run reports the median of
the wall metrics and the simulated metrics, which must read identically
in every sample.  With ``--trace 1`` the run makes one plain sample, one
traced sample (spans around each layer's entry points) and one cProfile
sample under another ``PYTHONHASHSEED``, and reports the per-layer
metrics.

A table of every metric with its unit and clock (``sim`` = simulated
clock, deterministic for a seed; ``wall`` = measured in this process)
goes to standard output, and the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from layers import span_shares

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("relay-steady", "spam-flood", "member-churn")
#: Every sample of a ``--trace 0`` run uses this hash seed, so the
#: simulated metrics repeat exactly between samples (see README).
HASH_SEED = "0"
#: The ``--trace 1`` run's cProfile sample uses another one, to count
#: the simulated counters that depend on the hash seed.
OTHER_HASH_SEED = "1"
#: A run's inputs are this many deployments (topologies, roles,
#: identities), each derived from the run's seed; see ``input_seed``.
INPUTS_PER_RUN = 3
MIN_SAMPLES = INPUTS_PER_RUN
#: A run never starts a sample that could end after this many seconds.
HARD_LIMIT = 150.0
SAMPLE_TIMEOUT = 170.0

#: End-to-end metrics: name -> (unit, clock).  ``wall*`` is wall time in
#: reference seconds (calibrated against a fixed kernel; see README).
END_TO_END = {
    "setup_s": ("s", "wall*"),
    "deliveries_per_s": ("1/s", "wall*"),
    "latency_p50_ms": ("ms", "sim"),
    "latency_p99_ms": ("ms", "sim"),
    "delivery_ratio": ("ratio", "sim"),
    "bytes_per_delivery": ("B", "sim"),
    "peak_rss_mb": ("MB", "wall"),
}

#: Per-layer metrics: name -> (unit, clock).  ``count`` metrics are exact
#: work counters of the simulated run.
PER_LAYER = {
    "net.events": ("count", "sim"),
    "net.sends": ("count", "sim"),
    "net.bytes.gossipsub": ("B", "sim"),
    "net.bytes.telemetry": ("B", "sim"),
    "net.bytes.witness": ("B", "sim"),
    "net.self_s": ("s", "wall"),
    "gossipsub.rpc_s": ("s", "wall"),
    "gossipsub.rpcs": ("count", "sim"),
    "gossipsub.heartbeat_s": ("s", "wall"),
    "gossipsub.dup_ratio": ("ratio", "sim"),
    "core.publish_s": ("s", "wall"),
    "core.merkle_proof_s": ("s", "wall"),
    "waku.publish_s": ("s", "wall"),
    "zksnark.prove_s": ("s", "wall"),
    "zksnark.proves": ("count", "sim"),
    "zksnark.verify_s": ("s", "wall"),
    "zksnark.verifies": ("count", "sim"),
    "zksnark.pairings": ("count", "sim"),
    "crypto.hashes": ("count", "sim"),
    "crypto.hash_s": ("s", "wall"),
    "crypto.hashes_per_delivery": ("ratio", "sim"),
    "pipeline.validate_s": ("s", "wall"),
    "pipeline.validates": ("count", "sim"),
    "pipeline.cache_hit_ratio": ("ratio", "sim"),
    "pipeline.shed": ("count", "sim"),
    "pipeline.mean_batch": ("count", "sim"),
    "exec.jobs": ("count", "sim"),
    "exec.queue_delay_ms": ("ms", "sim"),
    "exec.occupancy": ("ratio", "sim"),
    "membership.apply_s": ("s", "wall"),
    "membership.inserts": ("count", "sim"),
    "treesync.apply_s": ("s", "wall"),
    "witness.requests": ("count", "sim"),
    "witness.cache_hit_ratio": ("ratio", "sim"),
    "witness.serve_s": ("s", "wall"),
    "witness.fetch_ms": ("ms", "sim"),
    "chain.blocks": ("count", "sim"),
    "chain.mine_s": ("s", "wall"),
    "revocation.observes": ("count", "sim"),
    "revocation.race_loss_ratio": ("ratio", "sim"),
    "revocation.detect_s": ("s", "sim"),
    "revocation.revoke_s": ("s", "sim"),
    "telemetry.export_s": ("s", "wall"),
    "telemetry.collect_s": ("s", "wall"),
    "telemetry.eval_s": ("s", "wall"),
    "telemetry.byte_share": ("ratio", "sim"),
    "harness.self_s": ("s", "wall"),
    "raw.setup_s": ("s", "wall"),
    "raw.deliveries_per_s": ("1/s", "wall"),
    "trace.wall_s": ("s", "wall"),
    "trace.overhead_s": ("s", "wall*"),
    "trace.self_sum_gap": ("ratio", "wall"),
    "trace.cprofile_gap": ("ratio", "wall"),
    "trace.hashseed_diffs": ("count", "sim"),
}

#: Span names summed into each per-layer self-time metric.
SPAN_METRICS = {
    "net.self_s": ("net.run",),
    "gossipsub.rpc_s": ("gossipsub.rpc",),
    "gossipsub.heartbeat_s": ("gossipsub.heartbeat",),
    "core.publish_s": ("core.publish",),
    "core.merkle_proof_s": ("core.merkle_proof",),
    "waku.publish_s": ("waku.publish",),
    "zksnark.prove_s": ("zksnark.prove",),
    "zksnark.verify_s": ("zksnark.verify", "zksnark.verify_batch"),
    "pipeline.validate_s": ("pipeline.validate", "pipeline.resolve"),
    "membership.apply_s": ("membership.apply",),
    "treesync.apply_s": ("treesync.apply",),
    "witness.serve_s": ("witness.serve",),
    "chain.mine_s": ("chain.mine",),
    "telemetry.export_s": ("telemetry.export",),
    "telemetry.collect_s": ("telemetry.collect",),
    "telemetry.eval_s": ("telemetry.eval",),
    "harness.self_s": ("harness.phase", "harness.drive", "harness.record"),
}
#: Span names counted into each per-layer count metric.
SPAN_COUNTS = {
    "gossipsub.rpcs": ("gossipsub.rpc",),
    "zksnark.proves": ("zksnark.prove",),
    "zksnark.verifies": ("zksnark.verify", "zksnark.verify_batch"),
    "pipeline.validates": ("pipeline.validate",),
}
#: Largest accepted |sum of self times - traced phase wall| / phase wall.
SELF_SUM_TOLERANCE = 0.02
#: A layer whose span share and cProfile share differ by more than this
#: (absolute share of the phase) is reported as a disagreement.
CPROFILE_TOLERANCE = 0.10


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class SampleError(RuntimeError):
    """A sample process failed before producing its record."""


def sample(workload: str, seed: int, mode: str, hash_seed: str, spans=None) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    if spans:
        command += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SAMPLE_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{mode} sample timed out after {exc.timeout} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SampleError(
            f"{mode} sample exited with {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def sim_differences(a: dict, b: dict) -> list[str]:
    """Names of simulated figures that differ between two samples."""
    diffs = []
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        if isinstance(left, dict) and isinstance(right, dict):
            diffs += [
                f"{key}.{k}"
                for k in sorted(set(left) | set(right))
                if left.get(k) != right.get(k)
            ]
        elif left != right:
            diffs.append(key)
    return diffs


def failed_checks(record: dict) -> list[str]:
    return [name for name, ok in record["checks"].items() if not ok]


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    print(f"  {'metric':<28} {'value':>16}  {'unit':<6} clock")
    for name, value, unit, clock in rows:
        print(f"  {name:<28} {value:>16.6g}  {unit:<6} {clock}")


def input_seed(seed: int, index: int) -> int:
    """Workload seed of a run's ``index``-th sample.

    Samples cycle through INPUTS_PER_RUN deployments, so one topology's
    quirks (say, the gateway's distance to the far side of the mesh) do
    not decide a run's tail latency alone.
    """
    return seed * INPUTS_PER_RUN + index % INPUTS_PER_RUN


def pooled_sim(records: list[dict]) -> dict:
    """Simulated metrics over the run's INPUTS_PER_RUN distinct inputs."""
    latencies = sorted(x for r in records for x in r["latencies"])
    deliveries = sum(r["sim"]["deliveries"] for r in records)
    return {
        "latency_samples": len(latencies),
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_p99_ms": 1000.0 * percentile(latencies, 99),
        "delivery_ratio": deliveries / sum(r["sim"]["eligible"] for r in records),
        "bytes_per_delivery": sum(r["sim"]["bytes"]["gossipsub"] for r in records)
        / deliveries,
    }


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict]]:
    started = time.perf_counter()
    records: list[dict] = []
    durations: list[float] = []
    while len(records) < MIN_SAMPLES or (
        time.perf_counter() - started + statistics.fmean(durations) <= seconds
    ):
        elapsed = time.perf_counter() - started
        if len(records) >= MIN_SAMPLES and elapsed + max(durations) > HARD_LIMIT:
            break
        t0 = time.perf_counter()
        index = len(records)
        records.append(sample(workload, input_seed(seed, index), "plain", HASH_SEED))
        durations.append(time.perf_counter() - t0)
        if index >= INPUTS_PER_RUN:
            # A repeated input must reproduce its simulated figures exactly.
            first = records[index % INPUTS_PER_RUN]
            diffs = sim_differences(first["sim"], records[-1]["sim"])
            if diffs:
                records[-1]["checks"]["sim_repeats_across_samples"] = False
                print(f"simulated figures differ between samples: {diffs}")
    metrics = {
        "setup_s": statistics.median(r["setup_ref_s"] for r in records),
        "deliveries_per_s": statistics.median(
            r["sim"]["deliveries"] / r["phase_ref_s"] for r in records
        ),
        **pooled_sim(records[:INPUTS_PER_RUN]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    return metrics, records


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict]]:
    os.makedirs(os.path.join(ROOT, ".fleetbench"), exist_ok=True)
    spans = os.path.join(ROOT, ".fleetbench", f"spans-{workload}-{seed}.json")
    seed = input_seed(seed, 0)
    plain = sample(workload, seed, "plain", HASH_SEED)
    traced = sample(workload, seed, "traced", HASH_SEED, spans=spans)
    profiled = sample(workload, seed, "profiled", OTHER_HASH_SEED)

    mismatched = sim_differences(plain["sim"], traced["sim"])
    if mismatched:
        traced["checks"]["traced_sim_equals_plain"] = False
        print(f"traced run changed simulated figures: {', '.join(mismatched)}")
    hash_diffs = sim_differences(plain["sim"], profiled["sim"])
    if hash_diffs:
        print(
            f"PYTHONHASHSEED={OTHER_HASH_SEED} changed {len(hash_diffs)} simulated "
            f"figures: {', '.join(hash_diffs)}"
        )

    self_times = traced["self_times"]
    metrics = {name: traced["layers"].get(name, 0) for name in PER_LAYER}
    for name, spans_of in SPAN_METRICS.items():
        metrics[name] = sum(self_times.get(s, (0.0, 0))[0] for s in spans_of)
    for name, spans_of in SPAN_COUNTS.items():
        metrics[name] = sum(self_times.get(s, (0.0, 0))[1] for s in spans_of)
    metrics["membership.inserts"] = traced["counts"].get("membership.inserts", 0)

    self_sum = sum(seconds for seconds, _count in self_times.values())
    metrics["trace.wall_s"] = traced["phase_s"]
    metrics["trace.overhead_s"] = traced["phase_ref_s"] - plain["phase_ref_s"]
    metrics["raw.setup_s"] = plain["setup_s"]
    metrics["raw.deliveries_per_s"] = plain["sim"]["deliveries"] / plain["phase_s"]
    metrics["trace.self_sum_gap"] = (
        abs(self_sum - traced["phase_s"]) / traced["phase_s"]
    )
    if metrics["trace.self_sum_gap"] > SELF_SUM_TOLERANCE:
        traced["checks"]["self_times_sum_to_wall"] = False

    by_span = span_shares(self_times)
    by_profile = profiled["profile_shares"]
    packages = sorted(set(by_span) | set(by_profile))
    gaps = {p: by_span.get(p, 0.0) - by_profile.get(p, 0.0) for p in packages}
    metrics["trace.cprofile_gap"] = max(abs(g) for g in gaps.values())
    metrics["trace.hashseed_diffs"] = len(hash_diffs)
    print("per-layer share of the measured phase's self time: spans vs cProfile")
    for package in packages:
        flag = "  <- disagrees" if abs(gaps[package]) > CPROFILE_TOLERANCE else ""
        print(
            f"  {package:<12} spans {by_span.get(package, 0.0):6.3f}  "
            f"cProfile {by_profile.get(package, 0.0):6.3f}{flag}"
        )
    return metrics, [plain, traced, profiled]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, records = per_layer(args.workload, args.seed)
            catalogue = PER_LAYER
        else:
            metrics, records = end_to_end(args.workload, args.seed, args.seconds)
            catalogue = END_TO_END
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = sorted({name for r in records for name in failed_checks(r)})
    inputs = records[: 1 if args.trace else INPUTS_PER_RUN]
    print(
        f"{args.workload} seed={args.seed}: {len(records)} samples over "
        f"{len(inputs)} inputs, "
        f"{sum(r['sim']['publish_attempts'] for r in inputs)} publishes, "
        f"{sum(r['sim']['deliveries'] for r in inputs)} of "
        f"{sum(r['sim']['eligible'] for r in inputs)} honest deliveries, "
        f"{sum(r['sim']['latency_samples'] for r in inputs)} latency samples"
    )
    if args.workload == "spam-flood":
        # Shown here for the spam-flood run; reported as per-layer metrics.
        for name in ("revocation.detect_s", "revocation.revoke_s"):
            value = statistics.median(r["sim"][name] for r in inputs)
            print(f"  {name:<28} {value:>16.6g}  s      sim")
    print_table(
        f"{'per-layer' if args.trace else 'end-to-end'} metrics",
        [(name, metrics[name], *catalogue[name]) for name in catalogue],
    )
    print("  wall* = wall time in reference seconds (calibrated, see README)")
    if not args.trace:
        raw_setup = statistics.median(r["setup_s"] for r in records)
        raw_rate = statistics.median(
            r["sim"]["deliveries"] / r["phase_s"] for r in records
        )
        print(
            f"  uncalibrated wall: setup_s {raw_setup:.6g} s, "
            f"deliveries_per_s {raw_rate:.6g} 1/s"
        )
    if failures:
        print(f"FAILED checks: {', '.join(failures)}")
    attempted = sum(r["sim"]["publish_attempts"] for r in records)
    failed = sum(r["sim"]["publish_failures"] for r in records)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": catalogue[name][0]}
            for name in catalogue
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
