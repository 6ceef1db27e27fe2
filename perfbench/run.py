"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tour --seed 1 --seconds 20 --trace 0

Workloads are ``tour``, ``colocated`` and ``heal`` (see README.md).  The
command runs whole rounds, each in a fresh interpreter (``round.py``),
until ``--seconds`` have passed, and reports medians over rounds.  Every
round builds the same seeded inputs, so the program's deterministic
counts must agree across rounds.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced rounds and prints every per-layer metric, including
the tracing overhead (traced over untraced ``ops_per_s``).  A table for
people comes first; the last line is one JSON object.  The exit code is
non-zero if any output check fails or the counts do not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tour", "colocated", "heal")
ROUND_TIMEOUT_S = 150.0  # a round that takes longer than this is a failure
MIN_ROUNDS = 3  # untraced rounds a --trace 0 run always makes

# name -> unit; each is the median over untraced rounds of the round
# result field of the same name.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "virtual_p50_s": "s",
}

# Per-layer metric -> (unit, source).  Sources: ("layer", key) is the
# traced rounds' shim aggregate, ("count", key) the program's own
# counter, ("extra", key) a workload figure, ("round", key) a round
# field, ("run", key) a figure of the whole run.
PER_LAYER = {
    "sim.events": ("count", ("count", "sim.events")),
    "sim.self_s": ("s", ("layer", "sim.run_s")),
    "sim.threads_started_n": ("count", ("layer", "sim.thread_start_n")),
    "sim.blocks_n": ("count", ("layer", "sim.blocks_n")),
    "net.messages_n": ("count", ("count", "net.messages_n")),
    "net.wire_bytes": ("bytes", ("count", "net.wire_bytes")),
    "net.secure_send_s": ("s", ("layer", "net.secure_send_s")),
    "net.handshake_n": ("count", ("count", "net.handshake_n")),
    "net.handshake_s": ("s", ("layer", "net.connect_s")),
    "net.call_timeouts_n": ("count", ("count", "net.call_timeouts_n")),
    "crypto.keygen_n": ("count", ("layer", "crypto.keygen_n")),
    "crypto.keygen_s": ("s", ("layer", "crypto.keygen_s")),
    "crypto.sign_n": ("count", ("layer", "crypto.sign_n")),
    "crypto.sign_s": ("s", ("layer", "crypto.sign_s")),
    "crypto.verify_n": ("count", ("layer", "crypto.verify_n")),
    "crypto.verify_s": ("s", ("layer", "crypto.verify_s")),
    "crypto.kem_s": ("s", ("layer", "crypto.kem_s")),
    "crypto.aead_bytes": ("bytes", ("layer", "crypto.aead_bytes")),
    "crypto.aead_s": ("s", ("layer", "crypto.aead_s")),
    "crypto.mac_s": ("s", ("layer", "crypto.mac_s")),
    "serial.encode_n": ("count", ("layer", "serial.encode_n")),
    "serial.encode_bytes": ("bytes", ("layer", "serial.encode_bytes")),
    "serial.encode_s": ("s", ("layer", "serial.encode_s")),
    "serial.decode_s": ("s", ("layer", "serial.decode_s")),
    "serial.digest_s": ("s", ("layer", "serial.digest_s")),
    "cred.verify_n": ("count", ("layer", "cred.verify_n")),
    "cred.verify_s": ("s", ("layer", "cred.verify_s")),
    "cred.cache_hit_ratio": ("ratio", ("count", "cred.cache_hit_ratio")),
    "sandbox.verify_source_s": ("s", ("layer", "sandbox.verify_source_s")),
    "sandbox.load_s": ("s", ("layer", "sandbox.load_s")),
    "sandbox.check_n": ("count", ("layer", "sandbox.check_n")),
    "sandbox.check_s": ("s", ("layer", "sandbox.check_s")),
    "core.bind_n": ("count", ("layer", "core.bind_n")),
    "core.bind_s": ("s", ("layer", "core.bind_s")),
    "core.grant_cache_hit_ratio": (
        "ratio", ("count", "core.grant_cache_hit_ratio")),
    "core.decide_n": ("count", ("layer", "core.decide_n")),
    "core.decide_s": ("s", ("layer", "core.decide_s")),
    "core.redeem_n": ("count", ("layer", "core.redeem_n")),
    "core.redeem_s": ("s", ("layer", "core.redeem_s")),
    "core.revoked_n": ("count", ("layer", "core.revoke_n")),
    "core.denied_n": ("count", ("layer", "core.deny_n")),
    "core.audit_records_n": ("count", ("layer", "core.audit_n")),
    "agents.capture_s": ("s", ("layer", "agents.capture_s")),
    "agents.image_bytes": ("bytes", ("layer", "agents.image_bytes")),
    "agents.seal_n": ("count", ("layer", "agents.seal_n")),
    "agents.seal_s": ("s", ("layer", "agents.seal_s")),
    "agents.appraise_s": ("s", ("layer", "agents.appraise_s")),
    "server.admit_n": ("count", ("layer", "server.admit_n")),
    "server.admit_s": ("s", ("layer", "server.admit_s")),
    "server.admit_rejected_n": ("count", ("layer", "server.admit_errors_n")),
    "server.launch_s": ("s", ("layer", "server.launch_s")),
    "server.transfer_retries_n": (
        "count", ("count", "server.transfer_retries_n")),
    "server.transfers_failed_n": (
        "count", ("count", "server.transfers_failed_n")),
    "server.heartbeats_n": ("count", ("count", "server.heartbeats_n")),
    "server.escrowed_n": ("count", ("count", "server.escrowed_n")),
    "server.rehomed_n": ("count", ("count", "server.rehomed_n")),
    "naming.register_n": ("count", ("layer", "naming.register_n")),
    "naming.register_s": ("s", ("layer", "naming.register_s")),
    "naming.lookup_n": ("count", ("layer", "naming.lookup_n")),
    "naming.lookup_s": ("s", ("layer", "naming.lookup_s")),
    "naming.relocate_n": ("count", ("layer", "naming.relocate_n")),
    "naming.relocate_s": ("s", ("layer", "naming.relocate_s")),
    "naming.quorum_failed_n": ("count", ("count", "naming.quorum_failed_n")),
    "naming.stale_reads_n": ("count", ("count", "naming.stale_reads_n")),
    "naming.read_repairs_n": ("count", ("count", "naming.read_repairs_n")),
    "naming.hints_n": ("count", ("count", "naming.hints_n")),
    "hops_per_s": ("1/s", ("extra", "hops_per_s")),
    "calls_per_s": ("1/s", ("extra", "calls_per_s")),
    "virtual_p90_s": ("s", ("round", "virtual_p90_s")),
    "call_p50_ns": ("ns", ("round", "call_p50_ns")),
    "call_p99_ns": ("ns", ("round", "call_p99_ns")),
    "failed_share": ("ratio", ("run", "failed_share")),
    "trace.overhead_ratio": ("ratio", ("run", "trace.overhead_ratio")),
}

# Workload-specific metrics, printed in the table of a --trace 0 run:
# name -> (unit, workloads, source).  The ones of one workload only are
# not in any JSON line (a constant zero elsewhere is not a measurement).
TABLE_ONLY = {
    "hops_per_s": ("1/s", ("tour", "heal"), ("extra", "hops_per_s")),
    "tour_virtual_p50_s": ("s", ("tour", "heal"), ("round", "virtual_p50_s")),
    "tour_virtual_p90_s": ("s", ("tour", "heal"), ("round", "virtual_p90_s")),
    "calls_per_s": ("1/s", ("colocated",), ("extra", "calls_per_s")),
    "call_p50_ns": ("ns", ("colocated",), ("round", "call_p50_ns")),
    "call_p99_ns": ("ns", ("colocated",), ("round", "call_p99_ns")),
    "items_per_s": ("1/s", ("colocated",), ("extra", "items_per_s")),
    "stranded_virtual_s": ("s", ("heal",), ("count", "stranded_virtual_s")),
    "server.detect_virtual_s": (
        "s", ("heal",), ("count", "server.detect_virtual_s")),
    "server.relaunch_virtual_s": (
        "s", ("heal",), ("count", "server.relaunch_virtual_s")),
}

# Counts that must repeat exactly between rounds of one seed, traced or
# not (the determinism guard).  Host-side figures are excluded.
DETERMINISTIC_ROUND_FIELDS = ("ops", "virtual_n", "virtual_p50_s",
                              "virtual_p90_s", "call_n", "attempted", "failed")


def run_round(workload: str, seed: int, traced: bool, spans: str) -> dict:
    """One round in a fresh interpreter; raises RuntimeError on failure."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} round timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} round exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def fingerprint(result: dict) -> dict:
    return {**{k: result[k] for k in DETERMINISTIC_ROUND_FIELDS},
            **result["counts"]}


def source_value(result: dict, source: tuple[str, str]) -> float:
    kind, key = source
    if kind == "layer":
        return result["layers"][key]
    if kind == "count":
        return result["counts"].get(key, 0)
    if kind == "extra":
        return result["extra"].get(key, 0.0)
    return result[key]


def median_of(results: list[dict], source: tuple[str, str]) -> float:
    return statistics.median(source_value(r, source) for r in results)


def measure(workload: str, seed: int, seconds: int, traced: bool
            ) -> tuple[list[dict], list[dict]]:
    """Untraced and traced rounds, whole rounds until ``seconds`` pass."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl.gz")
    plain: list[dict] = []
    with_trace: list[dict] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        tracing = traced and len(with_trace) < len(plain)
        rounds = with_trace if tracing else plain
        enough = (plain and with_trace) if traced else len(plain) >= MIN_ROUNDS
        # Start a round only if it should end within the budget.
        expected = statistics.median(took[tracing]) if took[tracing] else 0.0
        if enough and elapsed + expected > seconds:
            break
        rounds.append(run_round(workload, seed, tracing, spans))
        took[tracing].append(time.perf_counter() - start - elapsed)
    return plain, with_trace


def report(workload: str, seed: int, seconds: int, traced: bool) -> int:
    plain, with_trace = measure(workload, seed, seconds, traced)
    rounds = plain + with_trace
    first = plain[0]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f"{name}: {f}/{a} failed"
                for r in rounds for name, (a, f) in r["checks"].items() if f]
    reference = fingerprint(first)
    for r in rounds[1:]:
        attempted += 1
        if fingerprint(r) != reference:
            failed += 1
            diff = {k: (reference.get(k), v) for k, v in fingerprint(r).items()
                    if reference.get(k) != v}
            failures.append(f"determinism: round differs {diff}")

    e2e = {name: median_of(plain, ("round", name)) for name in END_TO_END}

    print(f"# perfbench {workload} seed={seed} rounds: {len(plain)} untraced"
          f", {len(with_trace)} traced; attempted={attempted} failed={failed}")
    print(f"# {first['virtual_n']} requests per round (p90 has "
          f"{first['virtual_n'] // 10} beyond it), {first['call_n']} timed "
          f"calls, {first['ops']} ops; launch lateness 0 by construction")
    print("# ops_per_s by round: " + " ".join(
        f"{r['ops_per_s']:.6g}" + ("t" if r.get("traced") else "")
        for r in rounds))
    for line in failures:
        print(f"# FAILED {line}")
    for name, unit in END_TO_END.items():
        print(f"{name:<28} {e2e[name]:>16.6g} {unit}")
    for name, (unit, workloads, source) in TABLE_ONLY.items():
        if workload in workloads:
            print(f"{name:<28} {median_of(plain, source):>16.6g} {unit}")
    print(f"{'failed_share':<28} {failed / max(attempted, 1):>16.6g} ratio")

    metrics: dict[str, dict] = {}
    if not traced:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        for r in with_trace:
            # Every nanosecond of Kernel.run is charged to one span.
            layers = r["layers"]
            drift = abs(layers["trace.charged_s"] - layers["sim.run_wall_s"])
            attempted += 1
            if drift > 1e-6 * max(layers["sim.run_wall_s"], 1.0):
                failed += 1
                print(f"# FAILED self times do not sum to Kernel.run: {drift}")
        whole_run = {
            "failed_share": failed / max(attempted, 1),
            "trace.overhead_ratio": median_of(
                with_trace, ("round", "ops_per_s")) / e2e["ops_per_s"],
        }
        for name, (unit, (kind, key)) in PER_LAYER.items():
            # Layer figures come from traced rounds, the rest untraced.
            if kind == "run":
                value = whole_run[key]
            else:
                value = median_of(with_trace if kind == "layer" else plain,
                                  (kind, key))
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<28} {value:>16.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro beside perfbench/; run from a full "
              "checkout", file=sys.stderr)
        return 2
    try:
        return report(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
