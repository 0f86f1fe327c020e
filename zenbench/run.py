#!/usr/bin/env python3
"""Runs the zen benchmark.

Run from the root of a zen checkout:

    python3 zenbench/run.py --workload acl-churn --seed 1 --seconds 30 --trace 0

It builds zenbench/zenbench.exe with dune, then runs episodes of the
workload until --seconds have passed, checks every episode, and prints
the metrics.  Each episode is a fresh process; episode i runs on a seed
derived from --seed and i, so one run averages over several inputs.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  See zenbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "zenbench", "zenbench.exe")
OUT_DIR = ".zenbench_out"

# default seed, and a held-out seed on which later claims are re-checked
WORKLOADS = {
    "acl-churn": {"default_seed": 1, "held_out_seed": 7919},
    "fabric-forward": {"default_seed": 1, "held_out_seed": 7919},
    "failover-chaos": {"default_seed": 1, "held_out_seed": 7919},
}

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("pkts_per_s", "1/s"),
    ("delivery_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("rss_peak_mb", "MB"),
]

PER_LAYER = [
    ("netkat.build_ms", "ms"),
    ("netkat.fdd_ms", "ms"),
    ("netkat.delta_ms", "ms"),
    ("netkat.fdd_nodes", "count"),
    ("netkat.switches_changed_ratio", "ratio"),
    ("netkat.rules_changed", "count"),
    ("controller.push_ms", "ms"),
    ("controller.acked_batches", "count"),
    ("controller.retransmits", "count"),
    ("controller.resyncs", "count"),
    ("controller.resync_kb", "KB"),
    ("controller.recovery_sim_ms_p50", "ms"),
    ("controller.replica.repl_msgs", "count"),
    ("controller.replica.takeovers", "count"),
    ("controller.failover_sim_ms_p50", "ms"),
    ("controller.failover_sim_ms_max", "ms"),
    ("openflow.ctl_kb_per_op", "KB"),
    ("openflow.msgs_per_op", "count"),
    ("openflow.encode_us_per_msg", "us"),
    ("openflow.decode_us_per_msg", "us"),
    ("flow.apply_us_per_mod", "us"),
    ("flow.lookup_ns", "ns"),
    ("flow.cache_hit_ratio", "ratio"),
    ("flow.invalidations", "count"),
    ("flow.classifier_probes_per_miss", "count"),
    ("dataplane.run_ms", "ms"),
    ("dataplane.events", "count"),
    ("dataplane.events_per_s", "1/s"),
    ("dataplane.drops_queue", "count"),
    ("dataplane.drops_chaos", "count"),
    ("dataplane.ctl_msgs", "count"),
    ("dataplane.fenced_writes", "count"),
    ("host.spin_ms", "ms"),
    ("trace.coverage", "ratio"),
]

# the exact metrics that matter on each workload, printed by name
WORKLOAD_EXACT = {
    "acl-churn": [("ctl_kb_per_edit", "openflow.ctl_kb_per_op", "KB")],
    "fabric-forward": [],
    "failover-chaos": [
        ("failover_sim_ms_p50", "controller.failover_sim_ms_p50", "ms"),
        ("failover_sim_ms_max", "controller.failover_sim_ms_max", "ms"),
        ("failover_samples", "controller.replica.takeovers", "count"),
    ],
}

# every run makes at least this many episodes; the exact end-to-end
# metrics are taken over exactly these, so they repeat for a seed
MIN_EPISODES = 3
EPISODE_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # no episode may start that could end after this


def die(msg, code=2):
    print(f"zenbench: {msg}", file=sys.stderr)
    sys.exit(code)


def percentile(xs, p):
    """Linear interpolation between closest ranks, as Util.Stats does."""
    xs = sorted(xs)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def commit():
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    return "unknown"


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./zenbench/zenbench.exe"],
            env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 3)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        die("build failed", 3)


def episode(workload, seed, trace_prefix=None):
    cmd = [EXE, workload, str(seed)]
    if trace_prefix:
        cmd += ["--trace", trace_prefix]
    spawned = time.time()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} episode timed out after {EPISODE_TIMEOUT_S} s", 4)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die(f"{workload} episode exited with {p.returncode}", 4)
    ep = json.loads(p.stdout.strip().splitlines()[-1])
    # process start (as spawned here) to the first timed op
    ep["setup_s"] = ep["setup_end"] - spawned
    return ep


def episode_seed(seed, i):
    return (seed * 1000 + i) % (1 << 61)


def episodes(workload, seed, seconds, started, trace_prefix=None,
             vary_seed=True):
    eps = []
    longest = 0.0
    while True:
        i = len(eps) if vary_seed else 0
        t0 = time.time()
        eps.append(episode(workload, episode_seed(seed, i), trace_prefix))
        longest = max(longest, time.time() - t0)
        elapsed = time.time() - started
        if elapsed + 2 * longest >= RUN_LIMIT_S:
            break
        if elapsed >= seconds and len(eps) >= MIN_EPISODES:
            break
    return eps


def mismatches(reference, eps, what):
    """Exact metrics and digests must repeat for one seed."""
    out = []
    for i, ep in enumerate(eps):
        for name, value in reference["star"].items():
            if ep["star"].get(name) != value:
                out.append(f"{what} {i}: {name} = {ep['star'].get(name)}, "
                           f"reference {value}")
        if ep["digest"] != reference["digest"]:
            out.append(f"{what} {i}: digest {ep['digest']}, "
                       f"reference {reference['digest']}")
    return out


# Host-speed adjustment of the wall-clock end-to-end metrics.  On a
# shared host the speed of the same code swings by 1.2-1.7x for minutes
# at a time, more than any bound allows.  The episode's reference spin
# (a fixed integer loop run after every op) measures that swing.  Ops
# slow by less than the spin, because part of their time waits on
# memory; across all three workloads, scaling by the square root of the
# spin's slowdown removed most of the swing.  REF_SPIN_MS is the spin
# time the values are scaled to.
REF_SPIN_MS = 1.6


def host_factor(ep):
    return (REF_SPIN_MS / statistics.median(ep["spin_ms"])) ** 0.5


def end_to_end(eps, factor):
    """The end-to-end metrics, wall-clock ones scaled by [factor(ep)]."""
    ops = [x * factor(ep) for ep in eps for x in ep["op_ms"]]
    checks = sum(ep["checks"] for ep in eps)
    failed = sum(len(ep["failures"]) for ep in eps)
    fixed = eps[:MIN_EPISODES]
    expected = sum(ep["expected"] for ep in fixed)
    return {
        "setup_s": statistics.median(ep["setup_s"] * factor(ep) for ep in eps),
        "op_ms_p50": percentile(ops, 50),
        "op_ms_p90": percentile(ops, 90),
        "pkts_per_s": statistics.median(
            ep["delivered"] / (sum(ep["op_ms"]) * factor(ep) / 1e3)
            for ep in eps),
        "delivery_ratio":
            sum(ep["delivered_expected"] for ep in fixed) / expected
            if expected else 0.0,
        "ok_ratio": (checks - failed) / checks if checks else 0.0,
        "rss_peak_mb": statistics.median(ep["rss_mb"] for ep in eps),
    }


def spin_ms(eps):
    return statistics.median(statistics.median(ep["spin_ms"]) for ep in eps)


def per_layer(reference, traced):
    metrics = {}
    for name, _ in PER_LAYER:
        if name in reference["star"]:
            metrics[name] = reference["star"][name]
        else:
            metrics[name] = statistics.median(
                ep["layers"].get(name, 0.0) for ep in traced)
    metrics["host.spin_ms"] = spin_ms(traced)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("ZEN_"))
    if knobs:
        die("refusing to run with ZEN_* variables set (" + ", ".join(knobs)
            + "): the benchmark measures the library's defaults")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a zen checkout (no dune-project or lib/ "
            "here)")

    seeds = WORKLOADS[args.workload]
    seed = seeds["default_seed"] if args.seed is None else args.seed
    build()
    started = time.time()
    problems = []
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        prefix = os.path.join(OUT_DIR, f"{args.workload}-seed{seed}")
        # the traced episodes repeat the untraced reference's seed
        reference = episode(args.workload, episode_seed(seed, 0))
        traced = episodes(args.workload, seed, args.seconds, started, prefix,
                          vary_seed=False)
        problems += mismatches(reference, traced, "traced episode")
        eps = [reference] + traced
        metrics = per_layer(reference, traced)
        units = dict(PER_LAYER)
    else:
        eps = episodes(args.workload, seed, args.seconds, started)
        reference = eps[0]
        metrics = end_to_end(eps, host_factor)
        raw = end_to_end(eps, lambda ep: 1.0)
        units = dict(END_TO_END)
    for i, ep in enumerate(eps):
        problems += [f"episode {i}: {f}" for f in ep["failures"]]

    print(f"zenbench {args.workload} seed={seed} episodes={len(eps)} "
          f"(default seed {seeds['default_seed']}, held-out seed "
          f"{seeds['held_out_seed']})")
    print("fingerprint: " + json.dumps({
        "nproc": os.cpu_count(), "ocaml": reference["ocaml"],
        "commit": commit(), "pool_default_size": reference["pool"],
        "host.spin_ms": spin_ms(eps)}))
    for name, value in metrics.items():
        line = f"  {name:34s} {value:14.6g} {units[name]}"
        if not args.trace and raw[name] != value:
            line += f"  (unscaled {raw[name]:.6g})"
        print(line)
    for label, name, unit in WORKLOAD_EXACT[args.workload]:
        print(f"  {label:34s} {reference['star'][name]:14.6g} {unit} (exact)")
    if args.trace:
        print(f"trace: {prefix}.trace.json, per-layer self time: "
              f"{prefix}.layers.txt")
        with open(prefix + ".layers.txt") as f:
            sys.stdout.write(f.read())
    for p in problems[:20]:
        print("FAILED: " + p)

    checks = sum(ep["checks"] for ep in eps)
    failed = sum(len(ep["failures"]) for ep in eps)
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": checks, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
