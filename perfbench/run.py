#!/usr/bin/env python3
"""Repo benchmark for the FlexMoE simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-shift --seed 1 --trace 0
    python3 perfbench/run.py --workload large-ep --seed held-out --trace 1
    python3 perfbench/run.py --selftest

The first run builds perfbench/ (a standalone CMake package that compiles
../src) into $CARGO_TARGET_DIR, or .bench_build when that is unset. A run
then repeats one deterministic cell of the workload in fresh processes of
the benchmark binary until --seconds is spent, checks every repetition, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off. With --trace 1 they are the per-layer metrics,
from traced repetitions interleaved with untraced ones (the pairs give
obs.trace_overhead). The line before it holds the details: environment,
repetition counts, tail percentiles and the metrics that are n/a.
RATIONALE.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "flexmoe_perfbench"

DEFAULT_SEED = 1
# Seed reserved for confirming a claimed gain; not used while tuning.
HELD_OUT_SEED = 4242

WORKLOADS = ("train-shift", "large-ep", "serve-multitenant")
# A run measures several independent cells (sub-cells, each seeded from the
# run's seed), so that one run's figures do not hinge on the few expert
# popularity draws a single seed makes.
SUBCELLS = {"train-shift": 2, "large-ep": 1, "serve-multitenant": 4}
# Every run makes at least this many rounds over its sub-cells, even when
# one round outlasts --seconds.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

# Value reported for an end-to-end metric the workload cannot produce
# (listed under "na" in the details line; see RATIONALE.md).
NA_VALUE = 1

E2E_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "sim_step_ms": "sim_ms",
    "sim_balance_ratio": "ratio",
    "sim_speedup_vs_deepspeed": "x",
    "sim_p99_latency_ms": "sim_ms",
    "sim_slo_attainment": "ratio",
    "sim_goodput_tokens_per_s": "tokens/sim_s",
    "sim_goodput_gain_vs_best_static": "x",
}

SYSTEMS = ("flexmoe", "deepspeed", "fastermoe", "swipe")
POLICY_COUNTERS = ("policy.invocations", "policy.triggers",
                   "policy.candidates_evaluated", "policy.plan_rounds",
                   "policy.ops_enqueued", "policy.migrations")

LAYER_UNITS = {
    "setup.calibrate_s": "s",
    "setup.trace_source_s": "s",
    "setup.build_system_s": "s",
    "gate.share": "ratio",
    "gate.ms_per_step": "ms",
    "gate.assignments_per_s": "1/s",
    **{"step.%s.host_ms_%s" % (s, q): "ms"
       for s in SYSTEMS for q in ("p50", "tail")},
    "step.share": "ratio",
    "step.unattributed_share": "ratio",
    "router.routes_per_s": "1/s",
    "router.share_est": "ratio",
    **{name: "count" for name in POLICY_COUNTERS},
    "planner.accept_ratio": "ratio",
    "planner.plan_ms": "ms",
    "planner.candidates_per_s": "1/s",
    "planner.migration_plan_ms": "ms",
    "planner.share_est": "ratio",
    "cost.reset_ms": "ms",
    "cost.apply_per_s": "1/s",
    "cost.share_est": "ratio",
    "exec.step_ms": "ms",
    "exec.share_est": "ratio",
    "placement.ops_applied": "count",
    "placement.ops_launched": "count",
    "serve.self_share": "ratio",
    "serve.floor_probes": "count",
    "serve.floor_probe_us": "us",
    "serve.requests_shed": "count",
    "serve.chunked_admissions": "count",
    "serve.failed_batches": "count",
    "serve.tokens_recirculated": "count",
    "sim.a2a_ms": "sim_ms",
    "sim.compute_ms": "sim_ms",
    "sim.sync_ms": "sim_ms",
    "sim.token_efficiency": "ratio",
    "sim.expert_efficiency": "ratio",
    "sim.gpu_utilization": "ratio",
    "obs.trace_overhead": "ratio",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---- Build ------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, BINARY)


def environment(binary):
    env = {"nproc": os.cpu_count()}
    proc = subprocess.run([binary, "env"], stdout=subprocess.PIPE, text=True)
    if proc.returncode == 0:
        env.update(json.loads(proc.stdout))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        env["git_commit"] = (commit.stdout.strip()
                             if commit.returncode == 0 else "unknown")
    except OSError:
        env["git_commit"] = "unknown"
    env["source_sha256"] = source_digest()
    return env


def source_digest():
    """Digest of the simulator and benchmark sources: identifies the code
    under test in checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


# ---- Repetitions ------------------------------------------------------------

def run_rep(binary, workload, seed, mode, length, fidelity):
    cmd = [binary, "rep", "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--length", length]
    if fidelity:
        cmd.append("--fidelity")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    # A cell whose system returned an error still prints its report (exit
    # 1); check_reps counts it as failed. No report at all is fatal.
    if not proc.stdout.strip():
        raise RuntimeError("repetition failed (exit %d): %s"
                           % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sub_seeds(workload, seed):
    """The seeds of the run's sub-cells, derived from the run's seed."""
    return [seed * 1000 + i for i in range(SUBCELLS[workload])]


def collect(binary, workload, seed, seconds, traced, length):
    """Runs rounds until `seconds` is spent. A round runs every sub-cell
    once (untraced, then traced when `traced`). The first untraced
    repetition also runs the fidelity check against RunExperiment; the
    sub-cells differ from it only in their seed. Returns
    {mode: {sub_seed: [rep, ...]}}."""
    deadline = time.monotonic() + seconds
    modes = ["untraced", "traced"] if traced else ["untraced"]
    minimum = MIN_TRACED_ROUNDS if traced else MIN_ROUNDS
    seeds = sub_seeds(workload, seed)
    reps = {mode: {s: [] for s in seeds} for mode in modes}
    rounds = 0
    while True:
        start = time.monotonic()
        for s in seeds:
            for mode in modes:
                reps[mode][s].append(run_rep(
                    binary, workload, s, mode, length,
                    fidelity=(rounds == 0 and mode == "untraced"
                              and s == seeds[0])))
        rounds += 1
        round_s = time.monotonic() - start
        if rounds >= minimum and time.monotonic() + round_s > deadline:
            break
    return reps


# ---- Checks -----------------------------------------------------------------

def sim_identity(rep):
    return [(s["system"], s["fingerprint"], s["trace_hash"])
            for s in rep["systems"]]


def check_reps(reps, workload, seed):
    """Audit results over every repetition. Returns (attempted, failed,
    problems)."""
    attempted = failed = 0
    problems = []
    identities = {}
    for mode in reps:
        for sub, cell_reps in reps[mode].items():
            reference = identities.setdefault(sub, sim_identity(cell_reps[0]))
            for rep in cell_reps:
                ops = max(sum(s["ops"] for s in rep["systems"]), 1)
                for s in rep["systems"]:
                    problems.extend("%s: %s" % (s["system"], f)
                                    for f in s["failures"])
                problems.extend(rep["errors"])
                problems.extend(rep["fidelity_errors"])
                if rep["trace_hash_check"]:
                    problems.append(rep["trace_hash_check"])
                differs = sim_identity(rep) != reference
                if differs:
                    problems.append("simulated report differs between "
                                    "repetitions of sub-seed %d" % sub)
                run_level = (rep["errors"] or rep["fidelity_errors"]
                             or rep["trace_hash_check"] or differs)
                attempted += ops
                failed += ops if run_level else sum(
                    s["failed_ops"] for s in rep["systems"])
    if not next(iter(reps["untraced"].values()))[0]["fidelity_checked"]:
        problems.append("fidelity check did not run")
    problem = check_seed_record(workload, seed, reps["untraced"])
    if problem:
        problems.append(problem)
        failed = attempted
    return attempted, failed, problems


def check_seed_record(workload, seed, untraced):
    """Simulated results must be identical across every run of one seed:
    compares against the record an earlier run of the same sources left."""
    path = os.path.join(build_dir(), "sim_records",
                        "%s-%d.json" % (workload, seed))
    first = next(iter(untraced.values()))[0]
    record = {"source_sha256": source_digest(), "length": first["length"],
              "cells": {str(sub): [list(x) for x in sim_identity(r[0])]
                        for sub, r in untraced.items()}}
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        if (old.get("source_sha256") == record["source_sha256"]
                and old.get("length") == record["length"]):
            if old["cells"] != record["cells"]:
                return ("simulated report differs from an earlier run of "
                        "seed %d" % seed)
            return ""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f)
    return ""


# ---- Metrics ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def by_system(rep):
    return {s["system"]: s for s in rep["systems"]}


def setup_seconds(rep):
    return sum(s["calibrate_s"] + s["trace_source_s"] + s["build_system_s"]
               for s in rep["systems"])


def cell_host_seconds(reps):
    """Host seconds of one cell: per operation, the minimum over
    repetitions of its timed host work, summed. Every repetition runs the
    identical operations, and noise on a shared machine only ever slows an
    operation down, in bursts that last from seconds to minutes; the
    per-operation minimum keeps any repetition no burst hit."""
    total = 0.0
    for i, system in enumerate(reps[0]["systems"]):
        per_rep = [rep["systems"][i]["op_host_s"] for rep in reps]
        for op in range(len(system["op_host_s"])):
            total += min(ops[op] for ops in per_rep)
    return total


def sim_metrics(rep):
    """The simulated end-to-end metrics of one cell, and the names it
    cannot produce."""
    systems = by_system(rep)
    flex = systems["flexmoe"]["report"]
    metrics = {
        "sim_step_ms": flex["mean_step_s"] * 1e3,
        "sim_balance_ratio": flex["balance_ratio"],
    }
    na = []
    ds = systems.get("deepspeed", {}).get("report")
    if ds and not rep["serving"] and flex["hours_to_target"] > 0:
        metrics["sim_speedup_vs_deepspeed"] = (ds["hours_to_target"]
                                               / flex["hours_to_target"])
    else:
        na.append("sim_speedup_vs_deepspeed")
    if rep["serving"]:
        best_static = max(s["report"]["goodput_tokens_per_s"]
                          for s in rep["systems"]
                          if s["system"] != "flexmoe")
        metrics["sim_p99_latency_ms"] = flex["p99_latency_s"] * 1e3
        metrics["sim_slo_attainment"] = flex["slo_attainment"]
        metrics["sim_goodput_tokens_per_s"] = flex["goodput_tokens_per_s"]
        metrics["sim_goodput_gain_vs_best_static"] = (
            flex["goodput_tokens_per_s"] / best_static)
    else:
        na.extend(["sim_p99_latency_ms", "sim_slo_attainment",
                   "sim_goodput_tokens_per_s",
                   "sim_goodput_gain_vs_best_static"])
    return metrics, na


def end_to_end(untraced, attempted, failed):
    """End-to-end metrics of an untraced run: host metrics over every
    repetition, simulated metrics as the mean over the sub-cells."""
    cells = list(untraced.values())
    all_reps = [r for cell_reps in cells for r in cell_reps]
    ops = sum(s["ops"] for cell_reps in cells
              for s in cell_reps[0]["systems"])
    metrics = {
        "setup_s": median([setup_seconds(r) for r in all_reps]),
        "steps_per_s": ops / sum(cell_host_seconds(c) for c in cells),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in all_reps]),
        "success_rate": 1.0 - failed / attempted,
    }
    per_cell = [sim_metrics(c[0]) for c in cells]
    na = per_cell[0][1]
    for name in per_cell[0][0]:
        metrics[name] = statistics.fmean(m[name] for m, _ in per_cell)
    for name in na:
        metrics[name] = NA_VALUE
    return metrics, na


def tail_percentile(n):
    """Highest of the standard percentiles with at least ten samples
    beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def layer_metrics_of(rep):
    """Per-layer metrics of one traced repetition (shares are of the
    workload's timed host seconds)."""
    systems = by_system(rep)
    host = sum(sum(s["op_host_s"]) for s in rep["systems"])
    gate = sum(s["gate_s"] for s in rep["systems"])
    gate_calls = sum(s["gate_calls"] for s in rep["systems"])
    step = sum(s["step_s"] for s in rep["systems"])
    m = {
        "setup.calibrate_s": sum(s["calibrate_s"] for s in rep["systems"]),
        "setup.trace_source_s": sum(s["trace_source_s"]
                                    for s in rep["systems"]),
        "setup.build_system_s": sum(s["build_system_s"]
                                    for s in rep["systems"]),
        "gate.share": gate / host,
        "gate.ms_per_step": gate / gate_calls * 1e3,
        "gate.assignments_per_s": sum(s["assignments"]
                                      for s in rep["systems"]) / gate,
        "step.share": step / host,
        "serve.self_share": sum(s["admission_s"]
                                for s in rep["systems"]) / host,
    }
    floor_calls = sum(s["floor_calls"] for s in rep["systems"])
    m["serve.floor_probes"] = floor_calls
    m["serve.floor_probe_us"] = (sum(s["floor_s"] for s in rep["systems"])
                                 / floor_calls * 1e6 if floor_calls else 0.0)
    for key in ("requests_shed", "chunked_admissions", "failed_batches",
                "tokens_recirculated"):
        m["serve." + key] = sum(s["report"].get(key, 0)
                                for s in rep["systems"])

    flex = systems["flexmoe"]
    report, counters, probe = flex["report"], flex["counters"], flex["probe"]
    for name in POLICY_COUNTERS:
        m[name] = counters[name]
    m["placement.ops_applied"] = report["ops_applied"]
    m["placement.ops_launched"] = report["ops_launched"]
    m["sim.a2a_ms"] = report["a2a_s"] * 1e3
    m["sim.compute_ms"] = report["compute_s"] * 1e3
    m["sim.sync_ms"] = report["sync_s"] * 1e3
    m["sim.token_efficiency"] = report["token_efficiency"]
    m["sim.expert_efficiency"] = report["expert_efficiency"]
    m["sim.gpu_utilization"] = report["gpu_utilization"]

    def per_call(seconds, calls):
        return seconds / calls if calls else 0.0

    route_t = per_call(probe["route_s"], probe["route_calls"])
    plan_t = per_call(probe["plan_s"], probe["plan_calls"])
    reset_t = per_call(probe["reset_s"], probe["reset_calls"])
    search_t = max(plan_t - reset_t, 0.0)
    migration_t = per_call(probe["migration_s"], probe["migration_calls"])
    # A candidate is scored by one Apply (and its Undo) on the cost state.
    candidate_t = per_call(probe["apply_s"], probe["apply_calls"])
    exec_t = per_call(probe["exec_s"], probe["exec_calls"])
    triggers = counters["policy.triggers"]
    rounds = counters["policy.plan_rounds"]
    # Program call counts: every step routes each layer once and every
    # scheduler invocation routes once for its trigger metric; a trigger
    # resets the cost state once, searches once per accepted round plus
    # the final empty round, and (training) plans migrations once.
    routes = flex["ops"] * probe["num_layers"] + counters["policy.invocations"]
    router_est = route_t * routes
    planner_est = (triggers * reset_t + (triggers + rounds) * search_t
                   + (triggers * migration_t if probe["migration_calls"]
                      else 0.0))
    cost_est = (triggers * reset_t
                + counters["policy.candidates_evaluated"] * candidate_t)
    exec_est = exec_t * flex["ops"]
    m["router.routes_per_s"] = per_call(probe["route_calls"],
                                        probe["route_s"])
    m["router.share_est"] = router_est / host
    m["planner.accept_ratio"] = (counters["plans_accepted"] / triggers
                                 if triggers else 0.0)
    m["planner.plan_ms"] = plan_t * 1e3
    m["planner.candidates_per_s"] = per_call(probe["plan_candidates"],
                                             probe["plan_s"])
    m["planner.migration_plan_ms"] = migration_t * 1e3
    m["planner.share_est"] = planner_est / host
    m["cost.reset_ms"] = reset_t * 1e3
    m["cost.apply_per_s"] = per_call(probe["apply_calls"], probe["apply_s"])
    m["cost.share_est"] = cost_est / host
    m["exec.step_ms"] = exec_t * 1e3
    m["exec.share_est"] = exec_est / host
    m["step.unattributed_share"] = 1.0 - (
        (router_est + planner_est + exec_est) / flex["step_s"])
    return m


def per_layer(reps):
    """Per-layer metrics of a traced run: counts summed over the sub-cells,
    every other metric the median over the traced repetitions."""
    traced, untraced = reps["traced"], reps["untraced"]
    per_rep = [layer_metrics_of(r) for c in traced.values() for r in c]
    metrics = {name: median([m[name] for m in per_rep])
               for name in per_rep[0]}
    for name, unit in LAYER_UNITS.items():
        if unit == "count":
            metrics[name] = sum(layer_metrics_of(c[0])[name]
                                for c in traced.values())
    tails = {}
    for system in SYSTEMS:
        samples = [t * 1e3 for c in traced.values() for r in c
                   for s in r["systems"] if s["system"] == system
                   for t in s["op_s"]]
        p = tail_percentile(len(samples))
        metrics["step.%s.host_ms_p50" % system] = (
            percentile(samples, 50.0) if samples else 0.0)
        metrics["step.%s.host_ms_tail" % system] = (
            percentile(samples, p) if p is not None else 0.0)
        tails[system] = {"percentile": p, "samples": len(samples)}
    metrics["obs.trace_overhead"] = median(
        [t["wall_s"] / u["wall_s"] for sub in traced
         for t, u in zip(traced[sub], untraced[sub])])
    return metrics, tails


# ---- Entry points -----------------------------------------------------------

def parse_seed(text):
    if text == "default":
        return DEFAULT_SEED
    if text == "held-out":
        return HELD_OUT_SEED
    return int(text)


def run(args, binary, length="full"):
    seed = parse_seed(args.seed)
    traced = args.trace == 1
    reps = collect(binary, args.workload, seed, args.seconds, traced, length)
    attempted, failed, problems = check_reps(reps, args.workload, seed)
    details = {"workload": args.workload, "seed": seed, "trace": args.trace,
               "length": length, "env": environment(binary),
               "sub_seeds": sub_seeds(args.workload, seed),
               "repetitions": {m: sum(len(c) for c in v.values())
                               for m, v in reps.items()},
               "problems": problems[:20]}
    if traced:
        metrics, tails = per_layer(reps)
        units = LAYER_UNITS
        details["step_tails"] = tails
        details["layer_estimates_cover"] = "flexmoe"
    else:
        metrics, na = end_to_end(reps["untraced"], attempted, failed)
        units = E2E_UNITS
        details["na"] = na
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return result


def selftest(binary):
    """Audit unit checks plus a tiny pass over every workload, asserting
    every metric named in BENCHMARK.json is emitted with its unit."""
    ok = subprocess.run([binary, "selftest"]).returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed="default",
                                      seconds=1, trace=trace)
            result = run(args, binary, length="tiny")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            want = declared[str(trace)]
            if emitted != want or not result["correct"]:
                ok = False
                log("selftest: %s --trace %d: missing %s, extra %s, "
                    "unit mismatches %s, correct=%s" % (
                        workload, trace, sorted(set(want) - set(emitted)),
                        sorted(set(emitted) - set(want)),
                        sorted(k for k in want if k in emitted
                               and emitted[k] != want[k]),
                        result["correct"]))
            else:
                log("selftest: %s --trace %d: %d metrics ok"
                    % (workload, trace, len(emitted)))
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="default",
                        help="integer, 'default' (%d) or 'held-out' (%d)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    try:
        run(args, binary)
    except (RuntimeError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
