"""Run loop and metric computation for the benchmark workloads."""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from measure import SpeedGauge, peak_rss_mb, percentile, tail_percentile
from reference import spl
from tracer import Tracer
from workloads import MIN_QUERIES, SETUP_REPEATS

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "queries_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "eval_sr": "fraction",
    "peak_rss_mb": "MB",
}
INFO_UNITS = {**END_TO_END, "eval_spl": "fraction", "speed_factor_median": "",
              "query_samples": "count", "tail_rule_percentile": "%"}

_IMPORT = ("import time; t = time.perf_counter(); import hiem, hiem.training; "
           "print(time.perf_counter() - t)")


def import_seconds(root: Path) -> float:
    """Seconds a fresh interpreter takes to import hiem from the checkout."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", _IMPORT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def run_timed(workload, seconds: float, deadline: float):
    """Set up SETUP_REPEATS times, each with an import of hiem in a fresh
    interpreter, then run whole rounds until `seconds` have passed and at
    least MIN_QUERIES queries were made.  The speed gauge's kernel runs
    after each set-up and round.  Returns (setup_s, rounds), with each
    round's speed factors set."""
    gauge = SpeedGauge()
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds(workload.root)
        t0 = time.perf_counter()
        workload.setup()
        setups.append((import_s + time.perf_counter() - t0) * gauge.factor())
    rounds = []
    workload.gauge = gauge
    t0 = time.perf_counter()
    while True:
        rnd = workload.round(len(rounds))
        rnd.factor = gauge.factor()
        rounds.append(rnd)
        n_queries = sum(len(r.queries) for r in rounds)
        if (time.perf_counter() - t0 >= seconds and n_queries >= MIN_QUERIES
                and len(rounds) % workload.cycle == 0):
            break
        if time.perf_counter() > deadline:
            raise RuntimeError(f"only {n_queries} queries by the run's deadline")
    workload.gauge = None
    return median(setups), rounds


def end_to_end(workload, setup_s: float, rounds):
    """({metric: (value, unit)}, {name: (value, unit)}) for a timed run: the
    reported metrics, with times scaled by each round's speed factor, and
    figures printed for reading only."""
    done = [q for r in rounds for q in r.queries if not q.failed]
    n = sum(len(r.queries) for r in rounds)
    values = {
        "setup_s": setup_s,
        **_rates(workload, rounds, calibrated=True),
        "eval_sr": sum(q.success for q in done) / len(done),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {f"wall.{k}": v for k, v in _rates(workload, rounds, calibrated=False).items()}
    info.update({
        "eval_spl": spl([(q.success, q.steps, q.minimal) for q in done]),
        "speed_factor_median": median(r.factor for r in rounds),
        "query_samples": n,
        "tail_rule_percentile": tail_percentile(n) or 50,
    })
    return ({k: (v, END_TO_END[k]) for k, v in values.items()},
            {k: (v, INFO_UNITS[k.split(".")[-1]]) for k, v in info.items()})


def _rates(workload, rounds, calibrated: bool) -> dict:
    factor = {id(r): (r.factor if calibrated else 1.0) for r in rounds}
    timed = [(q, q.seconds * factor[id(r)]) for r in rounds for q in r.queries]
    query_s = sum(t for _, t in timed)
    if workload.name == "train":
        steps_per_s = (sum(r.train_steps for r in rounds)
                       / sum(r.train_seconds * (r.train_speed if calibrated else 1.0)
                             for r in rounds))
    else:
        steps_per_s = sum(q.steps for q, _ in timed) / query_s
    ms = [t * 1000.0 for _, t in timed]
    return {
        "steps_per_s": steps_per_s,
        "queries_per_s": sum(not q.failed for q, _ in timed) / query_s,
        "query_ms_p50": percentile(ms, 50),
        "query_ms_p90": percentile(ms, 90),
    }


def run_traced(workload, out_dir: Path):
    """Run round 0 untraced, traced, and untraced again.  Returns the
    per-layer metrics of the traced pass, whose overhead is its operation
    time minus the mean of the two untraced passes (each calibrated by the
    speed gauge like the end-to-end times), and the three rounds."""
    workload.setup()
    gauge = SpeedGauge()
    before = workload.round(0)
    before_s = before.op_seconds * gauge.factor()
    tracer = Tracer()
    with tracer.installed():
        traced = workload.round(0)
    traced_s = traced.op_seconds * gauge.factor()
    after = workload.round(0)
    after_s = after.op_seconds * gauge.factor()
    tracer.save(out_dir / f"trace-{workload.name}-seed{workload.seed}.npz")
    metrics = per_layer(tracer, traced)
    metrics["trace.overhead_s"] = (traced_s - (before_s + after_s) / 2, "s")
    return metrics, [before, traced, after]


LAYER_SPANS = [
    "gridworld.step", "gridworld.observe", "gridworld.is_goal_state",
    "gridworld.line_of_sight", "gridworld.shortest_path",
    "features.encode", "agent.decide", "agent.run_option", "agent.run_episode",
    "nets.forward", "nets.backward", "nets.optimizer", "nets.replay_push",
    "nets.replay_sample", "nets.target_sync", "nets.train_step", "agent.train_round",
    "metrics.sample_specs", "metrics.evaluate", "baselines.oracle_policy",
    "baselines.run_episode", "training.train", "checkpoint.save",
]


def per_layer(tracer, traced) -> dict:
    """{metric: (value, unit)} from the spans and counters of one traced
    round; a layer the round never called reads 0."""
    stats, edges = tracer.layer_stats()

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in LAYER_SPANS:
        n, self_s = stats.get(name, (0, 0.0))
        out[f"{name}.calls"] = (n, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    c = tracer.counters
    rounds = calls("agent.train_round")
    out.update({
        "gridworld.bfs_steps_per_search": (
            ratio(edges.get(("gridworld.step", "gridworld.shortest_path"), 0),
                  calls("gridworld.shortest_path")), "steps"),
        "agent.options_per_episode": (
            ratio(calls("agent.run_option"), calls("agent.run_episode")), "options"),
        "nets.forward.rows": (int(c["nets.forward.rows"]), "rows"),
        "agent.u_batch.calls_per_round": (ratio(calls("agent.u_batch"), rounds), "calls"),
        "agent.batch_arrays.calls_per_round": (
            ratio(calls("agent.batch_arrays"), rounds), "calls"),
        "agent.low_batch_used_ratio": (
            ratio(c["agent.batch_used"], c["agent.batch_sampled"]), "fraction"),
        "checkpoint.save.bytes": (int(c["checkpoint.save.bytes"]), "bytes"),
        "logs.train_log.bytes": (traced.log_bytes, "bytes"),
        "agent.queries_past_cap": (
            traced.dropped + sum(q.failed for q in traced.queries), "count"),
        "agent.train_episodes_past_cap": (traced.train_past_cap, "count"),
    })
    return out


def report(name: str, seed: int, rounds, metrics: dict, info: dict) -> tuple[int, int]:
    """Print the run's counts and figures; returns (attempted, failed)."""
    queries = [q for r in rounds for q in r.queries]
    failed = sum(q.failed for q in queries)
    attempted = len(queries) + sum(r.episodes for r in rounds)
    dropped = sum(r.dropped for r in rounds)
    print(f"workload {name}  seed {seed}  rounds {len(rounds)}  attempted {attempted}  "
          f"failed {failed}  (queries {len(queries)}, training episodes "
          f"{attempted - len(queries)}, seeded queries dropped past the step cap {dropped})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:>16.6g} {unit}")
    if info:
        print("  not reported in the JSON line:")
    for key, (value, unit) in info.items():
        print(f"  {key:40s} {value:>16.6g} {unit}")
    return attempted, failed
