"""The three benchmark workloads: train, serve and search.

Each workload is set up several times (the median is `setup_s`), then runs
whole rounds of operations until the run's time is used.  An operation is
one training episode or one evaluation query.  A `train` or `serve` query
is one call of `metrics.evaluate` with `n_episodes=1` and its own seed, so
every query is timed on its own and a query stopped by the step-cap guard
leaves the others whole; `search` generates its queries itself.  Every
output is checked against `reference`, outside the timed calls.
"""
from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hiem import metrics, training
from hiem.agent import HiemAgent
from hiem.baselines import MethodConfig, build_agent
from hiem.checkpoint import load_checkpoint
from hiem.config import load_config
from hiem.gridworld import AgentPose, EpisodeSpec, Heading
from hiem.logs import read_jsonl
from hiem.mapfile import builtin_fixture, load_map

import reference
from measure import StepCapExceeded, StepCapGuard

FIXTURE = "bench15"
CAP = 500  # step cap of every query: evaluate's and HiemParams' default
GAMMA = 0.99
SETUP_REPEATS = 3
MIN_QUERIES = 100  # so that p90 has ten samples beyond it

# The acceptance suite's ordering-benchmark settings (tests/test_acceptance.py),
# less the keys that set the budget, which each workload sets itself.
ACCEPTANCE = [
    "run.fixture=bench15",
    "params.hidden=64,32",
    "params.train_every=4",
    "params.min_buffer=500",
    "params.target_sync=250",
    "params.buffer_capacity=10000",
]

# train: round r trains a fresh agent with seed r % 2 (two seeds, as the
# acceptance suite seeds its methods), then answers held-out queries drawn
# from --seed with it.  Short rounds let the speed gauge run every few
# seconds; fixed agent seeds make every run train the same two policies.
TRAIN_AGENTS = 2
TRAIN_EPISODES = 10
TRAIN_CHECKPOINT_EVERY = 5
TRAIN_QUERIES = 32  # held-out queries per round
# serve: the served policy is trained at set-up with a fixed seed, so every
# run serves the same policy and only the queries depend on --seed
SERVE_EPISODES = 10
SERVE_TRAIN_SEED = 0
SERVE_QUERIES = 15
# A query on which the served policy re-chooses an already achieved
# sub-goal forever (HiemAgent.run_option tests the sub-goal before the
# episode cap).  It does not depend on --seed, fails every round, and is
# counted in `failed`; seeded queries that hit the same fault are dropped
# and redrawn, so that every round has the same share of failures.
SERVE_CANARY_SEED = 14
# search: each round asks one query from each of fifteen bands of BFS
# distance; with fifteen the median and p90 fall in the middle of a band
SEARCH_BANDS = 15
# query seeds on which a reloaded checkpoint must answer as its writer did
RELOAD_CHECK_SEEDS = (0, 1, 2)

# independent random streams per workload, keyed with --seed and the round
STREAMS = {"search": 1, "serve": 2, "train": 3}


@dataclass
class Query:
    seconds: float
    steps: int
    failed: bool = False
    success: bool = False
    minimal: int = 0
    path: tuple = ()


@dataclass
class Round:
    queries: list = field(default_factory=list)
    dropped: int = 0  # seeded queries stopped by the guard and redrawn
    episodes: int = 0
    train_steps: int = 0
    train_seconds: float = 0.0
    train_past_cap: int = 0  # training episodes that ran past the cap
    log_bytes: int = 0
    factor: float = 1.0  # machine speed factor for the round's query times
    train_factor: float = None  # for its training time, when gauged apart

    @property
    def train_speed(self) -> float:
        return self.factor if self.train_factor is None else self.train_factor

    @property
    def op_seconds(self) -> float:
        return self.train_seconds + sum(q.seconds for q in self.queries)


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    name = ""
    cycle = 1  # a run stops only after a whole number of cycles of rounds
    gauge = None  # the run's SpeedGauge, while rounds are timed

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = Path(root)
        self.seed = seed
        self.out = Path(out_dir) / self.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.ref = reference.RefMap.load(reference.fixture_path(self.root, FIXTURE))

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> Round:
        raise NotImplementedError

    def rng(self, r: int):
        return np.random.default_rng([self.seed, STREAMS[self.name], r])

    # ----- shared query path -------------------------------------------------

    def eval_query(self, agent, qseed: int) -> Query:
        with StepCapGuard(HiemAgent, CAP):
            t0 = time.perf_counter()
            try:
                report, results, records = metrics.evaluate(
                    agent, self.world, 1, qseed, gamma=GAMMA, max_atomic_steps=CAP
                )
            except StepCapExceeded as stop:
                return Query(time.perf_counter() - t0, stop.steps, failed=True)
            seconds = time.perf_counter() - t0
        return self.check_hiem(seconds, report, results[0], records[0])

    def seeded_queries(self, agent, rng, n: int, out: Round) -> None:
        while n:
            q = self.eval_query(agent, int(rng.integers(2**31)))
            if q.failed:
                out.dropped += 1
                continue
            out.queries.append(q)
            n -= 1

    def check_hiem(self, seconds, report, result, record) -> Query:
        actions = [t.a for opt in record.options for t in opt.transitions]
        path = tuple(tuple(p) for opt in record.options for p in opt.path)
        cells, final = self.ref.replay(record.start, actions)
        label = record.goal_name
        where = f"query start={record.start} goal={label}"
        check(len(actions) == result.steps == record.atomic_steps,
              f"{where}: {len(actions)} actions for {result.steps} steps")
        check(tuple(cells) == path, f"{where}: replayed path differs from the recorded one")
        check(result.success == self.ref.is_goal(final, label),
              f"{where}: success={result.success} but reference goal test at {final} disagrees")
        check(result.minimal_steps == self.ref.bfs_distance(record.start, label),
              f"{where}: minimal steps {result.minimal_steps} != reference BFS "
              f"{self.ref.bfs_distance(record.start, label)}")
        check(0.0 <= report.ar <= report.sr and report.spl <= report.sr,
              f"{where}: AR={report.ar} SPL={report.spl} SR={report.sr}")
        return Query(seconds, result.steps, success=result.success,
                     minimal=result.minimal_steps, path=path)

    def build(self, method: str, cfg, seed: int):
        return build_agent(self.world, MethodConfig(method), cfg.hiem_params(), seed)


class Search(Workload):
    """BFS oracle queries: all gridworld.

    The benchmark generates these queries itself, the same number from each
    band of BFS distance in every round: an oracle query costs one BFS per
    step, so its time grows steeply with the distance to the goal, and the
    median time of a few hundred uniformly sampled queries moved by a
    quarter from seed to seed.
    Each query does the work `evaluate` does for one query, with the
    program's own calls: the minimal-length BFS, then the episode.
    """

    name = "search"

    def __init__(self, root: Path, seed: int, out_dir: Path):
        super().__init__(root, seed, out_dir)
        self.bands = self.ref.distance_bands(SEARCH_BANDS)

    def setup(self) -> None:
        self.world = load_map(builtin_fixture(FIXTURE))
        self.agent = self.build("oracle", load_config(None, ACCEPTANCE), 0)

    def round(self, r: int) -> Round:
        out = Round()
        rng = self.rng(r)
        for band in self.bands:
            (x, y, h), label = band[rng.integers(len(band))]
            qseed = int(rng.integers(2**31))
            spec = EpisodeSpec(start=AgentPose(x, y, Heading(h)),
                               goal_label=self.world.label_names.index(label),
                               seed=qseed, max_atomic_steps=CAP)
            t0 = time.perf_counter()
            minimal = self.world.shortest_path_to_label(spec.start, spec.goal_label)
            record = self.agent.run_episode(spec, mode="eval", rng=np.random.default_rng(qseed))
            seconds = time.perf_counter() - t0
            out.queries.append(self.check_oracle(seconds, minimal, record, (x, y, h), label))
        return out

    def check_oracle(self, seconds, minimal, record, start, label) -> Query:
        distance = self.ref.bfs_distance(start, label)
        where = f"query start={start} goal={label}"
        check(tuple(record.start) == start and record.goal_name == label,
              f"{where}: recorded as start={record.start} goal={record.goal_name}")
        check(record.success, f"{where}: the oracle failed")
        check(record.atomic_steps == distance == minimal,
              f"{where}: {record.atomic_steps} steps, minimal {minimal}, reference BFS {distance}")
        path = [tuple(p) for opt in record.options for p in opt.path]
        check(len(path) == record.atomic_steps, f"{where}: path length {len(path)}")
        cell = start[:2]
        for nxt in path:
            check(abs(nxt[0] - cell[0]) + abs(nxt[1] - cell[1]) <= 1
                  and self.ref.passable(*nxt), f"{where}: impossible move {cell} -> {nxt}")
            cell = nxt
        return Query(seconds, record.atomic_steps, success=True, minimal=minimal)


class Serve(Workload):
    """Eval-mode queries against one fixed hiem policy."""

    name = "serve"

    def setup(self) -> None:
        self.world = load_map(builtin_fixture(FIXTURE))
        cfg = load_config(None, ACCEPTANCE + [
            f"run.train_episodes={SERVE_EPISODES}", "run.checkpoint_every=0"])
        agent = self.build("hiem", cfg, SERVE_TRAIN_SEED)
        training.train(agent, self.world, cfg, self.out / "policy", "hiem")
        if hasattr(self, "agent"):
            for a, b in zip(self.agent.get_state()["arrays"].values(),
                            agent.get_state()["arrays"].values()):
                check(np.array_equal(a, b), "two set-ups trained different served policies")
        self.agent = agent

    def round(self, r: int) -> Round:
        out = Round()
        out.queries.append(self.eval_query(self.agent, SERVE_CANARY_SEED))
        self.seeded_queries(self.agent, self.rng(r), SERVE_QUERIES, out)
        return out


class Train(Workload):
    """Train a fresh hiem agent, then answer held-out queries with it."""

    name = "train"
    cycle = TRAIN_AGENTS  # every run answers as many queries with each policy

    def setup(self) -> None:
        self.world = load_map(builtin_fixture(FIXTURE))
        self.cfg = load_config(None, ACCEPTANCE + [
            f"run.train_episodes={TRAIN_EPISODES}",
            f"run.checkpoint_every={TRAIN_CHECKPOINT_EVERY}",
        ])
        self.build("hiem", self.cfg, 0)
        self.reload_checked = set()

    def round(self, r: int) -> Round:
        out = Round()
        seed = r % TRAIN_AGENTS
        agent = self.build("hiem", self.cfg, seed)
        run_dir = self.out / f"agent{seed}"
        t0 = time.perf_counter()
        ckpt = training.train(agent, self.world, self.cfg, run_dir, "hiem")
        out.train_seconds = time.perf_counter() - t0
        if self.gauge is not None:
            out.train_factor = self.gauge.factor()
        out.train_steps = agent.atomic_steps_total
        log_path = run_dir / "train_log.jsonl"
        log = read_jsonl(log_path)
        check(len(log) == TRAIN_EPISODES,
              f"train log has {len(log)} lines for {TRAIN_EPISODES} episodes")
        check(sum(e["atomic_steps"] for e in log) == agent.atomic_steps_total,
              "train log steps disagree with the agent's step count")
        out.episodes = len(log)
        out.train_past_cap = sum(e["atomic_steps"] > CAP for e in log)
        out.log_bytes = log_path.stat().st_size
        if seed not in self.reload_checked:
            self.check_reload(agent, ckpt, seed)
            self.reload_checked.add(seed)
        self.seeded_queries(agent, self.rng(r), TRAIN_QUERIES, out)
        return out

    def check_reload(self, agent, ckpt, seed: int) -> None:
        """A fresh agent loaded from the final checkpoint answers queries
        exactly as the agent that wrote it."""
        fresh = self.build("hiem", self.cfg, seed + TRAIN_AGENTS)
        fresh.set_state(load_checkpoint(ckpt))
        for qseed in RELOAD_CHECK_SEEDS:
            a, b = self.eval_query(agent, qseed), self.eval_query(fresh, qseed)
            check((a.failed, a.success, a.steps, a.path) == (b.failed, b.success, b.steps, b.path),
                  f"query seed {qseed}: the reloaded checkpoint evaluates differently")


WORKLOADS = {w.name: w for w in (Train, Serve, Search)}
