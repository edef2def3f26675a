"""Training harness: episode loop, logging, checkpointing, benchmark sweep.

Start poses and goal labels for training episodes are drawn from the agent's
own rng, so a resumed run (rng state restored from the checkpoint) continues
with exactly the sampling sequence of an uninterrupted run.
"""
from __future__ import annotations

import json
import logging
from collections import deque
from pathlib import Path

from .agent import ReplayLearner
from .baselines import MethodConfig, build_agent
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .gridworld import AgentPose, EpisodeSpec, Heading, World
from .logs import episode_to_dict, write_metrics_csv
from .metrics import evaluate

log = logging.getLogger(__name__)


def sample_train_spec(world: World, rng, max_atomic_steps: int) -> EpisodeSpec:
    cells = world.free_cells()
    labels = world.labels_present()
    cell = cells[rng.integers(len(cells))]
    heading = Heading(int(rng.integers(4)))
    goal = labels[rng.integers(len(labels))]
    return EpisodeSpec(
        start=AgentPose(cell[0], cell[1], heading),
        goal_label=goal,
        max_atomic_steps=max_atomic_steps,
    )


def train(
    agent,
    world: World,
    cfg: RunConfig,
    out_dir: Path,
    method_name: str,
    resume_from=None,
) -> Path:
    """Train `agent` per the config; write train_log.jsonl, periodic and
    final checkpoints, and a resolved-config snapshot.  Returns the final
    checkpoint path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.write_snapshot(out_dir / "config_resolved.ini")
    ckpt_path = out_dir / "checkpoint.npz"
    if not isinstance(agent, ReplayLearner):
        # oracle/random need no training; still emit an empty log for uniformity
        (out_dir / "train_log.jsonl").write_text("")
        return ckpt_path
    if resume_from is not None:
        agent.set_state(load_checkpoint(resume_from))
        log.info("resumed %s from %s at episode %d", method_name, resume_from,
                 agent.episodes_done)
    n_episodes = cfg.get("run", "train_episodes")
    ckpt_every = cfg.get("run", "checkpoint_every")
    p = agent.params
    window = deque(maxlen=20)
    log_path = out_dir / "train_log.jsonl"
    mode = "a" if resume_from is not None else "w"
    with open(log_path, mode) as logf:
        for episode in range(agent.episodes_done, n_episodes):
            spec = sample_train_spec(world, agent.rng, p.max_atomic)
            record = agent.run_episode(spec, mode="train", episode_idx=episode)
            window.append(1.0 if record.success else 0.0)
            entry = episode_to_dict(record, episode)
            entry["rolling_sr"] = sum(window) / len(window)
            entry["alpha"] = (
                p.force_alpha
                if p.force_alpha is not None
                else p.alpha_schedule.value(episode)
            )
            entry["eps_high"] = p.eps_high.value(episode)
            entry["eps_low"] = p.eps_low.value(episode)
            # trajectories are large; the training log keeps option summaries only
            for opt in entry["options"]:
                opt.pop("path", None)
            logf.write(json.dumps(entry, sort_keys=True) + "\n")
            if ckpt_every > 0 and (episode + 1) % ckpt_every == 0:
                save_checkpoint(
                    out_dir / f"checkpoint_ep{episode + 1}.npz", agent.get_state()
                )
        save_checkpoint(ckpt_path, agent.get_state())
    return ckpt_path


def run_eval(agent, world: World, cfg: RunConfig, out_dir: Path, method_name: str):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, results, records = evaluate(
        agent,
        world,
        n_episodes=cfg.get("run", "eval_episodes"),
        seed=cfg.get("run", "seed"),
        gamma=cfg.get("params", "gamma"),
        max_atomic_steps=cfg.get("params", "max_atomic"),
    )
    entries = []
    for i, (record, result) in enumerate(zip(records, results)):
        entry = episode_to_dict(record, i)
        entry["minimal_steps"] = result.minimal_steps
        entries.append(entry)
    with open(out_dir / "eval_episodes.jsonl", "w") as f:
        for e in entries:
            f.write(json.dumps(e, sort_keys=True) + "\n")
    write_metrics_csv(
        out_dir / "metrics.csv",
        [{"method": method_name, "report": report, "seed": cfg.get("run", "seed")}],
    )
    return report


def run_bench(cfg: RunConfig, world: World, out_dir: Path) -> list[dict]:
    """Train and evaluate every configured method x seed under shared
    fixtures and shared evaluation seeds.  Per-method failures are recorded
    and the sweep continues.  Returns the combined metric rows in config
    order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.write_snapshot(out_dir / "config_resolved.ini")
    rows = []
    failures = []
    for method in cfg.bench_methods():
        for seed in cfg.bench_seeds():
            mdir = out_dir / f"{method}_seed{seed}"
            try:
                mcfg = MethodConfig(
                    method=method, option_count=cfg.get("params", "option_count")
                )
                params = cfg.hiem_params()
                agent = build_agent(world, mcfg, params, seed)
                if mcfg.trainable:
                    train(agent, world, cfg, mdir, method)
                report = run_eval(agent, world, cfg, mdir, method)
                rows.append({"method": method, "report": report, "seed": seed})
            except Exception as e:  # noqa: BLE001 - sweep must continue
                log.exception("method %s seed %d failed", method, seed)
                failures.append({"method": method, "seed": seed, "error": str(e)})
    write_metrics_csv(out_dir / "bench.csv", rows)
    if failures:
        with open(out_dir / "failures.jsonl", "w") as f:
            for fail in failures:
                f.write(json.dumps(fail, sort_keys=True) + "\n")
    return rows
