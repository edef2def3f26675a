"""Every method's outputs, byte for byte, on a small seeded run.

`data/golden/<method>/` holds the train log, eval records and metrics table
that `run_method` wrote before the four agents shared one episode skeleton
and one replay-learner base, and the SHA-256 of the final checkpoint.
`data/golden/bench15/<method>.jsonl` holds, per seeded eval query of a
small policy trained on bench15, the actions, path and success that
`eval_paths` wrote before the eval step shared its per-pose values (the
`hiem_proxy` and `hiem_term` files, before eval queries memoized their net
outputs).  `data/golden/bench15_untrained/<method>.jsonl` holds the same
for policies that were never trained, written before that memo too.  A
refactor of the agents leaves all of them unchanged; a change whose point
is to change them rewrites the files with `run_method` or `eval_paths`
and says why.
"""
import hashlib
import json
from pathlib import Path

import pytest

from hiem.baselines import METHODS, MethodConfig, build_agent
from hiem.config import load_config
from hiem.mapfile import builtin_fixture, load_map
from hiem.metrics import evaluate
from hiem.training import run_eval, train

GOLDEN = Path(__file__).parent / "data" / "golden"
FILES = ("train_log.jsonl", "eval_episodes.jsonl", "metrics.csv")

# Few episodes and a small net; enough steps that replay fills, the
# learners train and the target nets sync.  ray7 has two labels and a wall,
# so hierarchical methods pursue sub-goals other than the goal; on open7,
# with one label, the five hierarchical variants train the same weights.
SMALL = [
    "run.fixture=ray7",
    "run.train_episodes=40",
    "run.eval_episodes=5",
    "run.checkpoint_every=0",
    "params.hidden=8",
    "params.min_buffer=8",
    "params.batch_size=4",
    "params.max_atomic=40",
    "params.buffer_capacity=200",
    "params.target_sync=10",
]


def checkpoint_sha256(out_dir: Path) -> str:
    path = out_dir / "checkpoint.npz"
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def run_method(method: str, out_dir: Path) -> None:
    """Train (a no-op for oracle and random) and evaluate one method with
    seed 0, writing its outputs and `checkpoint.sha256` into `out_dir`."""
    cfg = load_config(None, SMALL)
    world = load_map(builtin_fixture(cfg.get("run", "fixture")))
    mcfg = MethodConfig(method=method, option_count=cfg.get("params", "option_count"))
    agent = build_agent(world, mcfg, cfg.hiem_params(), cfg.get("run", "seed"))
    train(agent, world, cfg, out_dir, method)
    run_eval(agent, world, cfg, out_dir, method)
    (out_dir / "checkpoint.sha256").write_text(checkpoint_sha256(out_dir) + "\n")


@pytest.mark.parametrize("method", METHODS)
def test_outputs_match_golden_files(tmp_path, method):
    run_method(method, tmp_path)
    for name in FILES + ("checkpoint.sha256",):
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / method / name).read_bytes(), f"{method}/{name}"


# bench15 has six labels, so eval paths pass through many more sets of
# visible labels (and so proposable-sub-goal masks) than on ray7.
BENCH15 = [
    "run.fixture=bench15",
    "run.train_episodes=80",
    "run.checkpoint_every=0",
    "params.hidden=8",
    "params.min_buffer=8",
    "params.batch_size=4",
    "params.max_atomic=60",
    "params.buffer_capacity=200",
    "params.target_sync=10",
]
PATH_METHODS = ("hiem", "oc", "dqn", "hiem_proxy", "hiem_term")
PATH_QUERIES = 20
PATH_SEED = 3

# The trained hierarchical policies above run only the random sub-goal on
# these queries.  Untrained ones also propose labels, so their queries run
# the low-level policy (hiem, hiem_term), the proxy policy (hiem_low,
# force_alpha=1), termination draws (hiem, hiem_low) and none (hiem_term).
UNTRAINED = ["run.train_episodes=0"]
UNTRAINED_METHODS = ("hiem", "hiem_low", "hiem_term")


def eval_paths(method: str, out_dir: Path, overrides=()) -> str:
    """Train a small policy on bench15 with seed 0, then answer
    PATH_QUERIES seeded eval queries; one JSON line per query with its
    start, goal, success, actions (as passed to `World.step`) and path.
    `overrides` are applied after BENCH15."""
    cfg = load_config(None, BENCH15 + list(overrides))
    world = load_map(builtin_fixture(cfg.get("run", "fixture")))
    mcfg = MethodConfig(method=method, option_count=cfg.get("params", "option_count"))
    agent = build_agent(world, mcfg, cfg.hiem_params(), cfg.get("run", "seed"))
    train(agent, world, cfg, out_dir, method)
    actions = []
    step = world.step

    def recording_step(state, action):
        actions.append(int(action))
        return step(state, action)

    world.step = recording_step
    _, results, records = evaluate(
        agent, world, PATH_QUERIES, PATH_SEED, max_atomic_steps=cfg.get("params", "max_atomic")
    )
    assert len(actions) == sum(r.atomic_steps for r in records)
    lines, at = [], 0
    for result, record in zip(results, records):
        n = record.atomic_steps
        lines.append(json.dumps({
            "start": list(record.start),
            "goal": record.goal,
            "success": result.success,
            "actions": actions[at:at + n],
            "path": [list(p) for opt in record.options for p in opt.path],
        }) + "\n")
        at += n
    return "".join(lines)


@pytest.mark.parametrize("method", PATH_METHODS)
def test_bench15_eval_paths_match_golden_files(tmp_path, method):
    got = eval_paths(method, tmp_path)
    assert got == (GOLDEN / "bench15" / f"{method}.jsonl").read_text(), method


@pytest.mark.parametrize("method", UNTRAINED_METHODS)
def test_untrained_bench15_eval_paths_match_golden_files(tmp_path, method):
    got = eval_paths(method, tmp_path, UNTRAINED)
    assert got == (GOLDEN / "bench15_untrained" / f"{method}.jsonl").read_text(), method
