"""Deterministic JSONL / CSV output for episodes and metric tables.

No timestamps anywhere: reruns with the same config and seed must produce
byte-identical files.
"""
from __future__ import annotations

import csv
import json

from .agent import EpisodeRecord
from .metrics import MetricsReport


def episode_to_dict(record: EpisodeRecord, episode: int) -> dict:
    return {
        "episode": episode,
        "goal": record.goal_name,
        "success": record.success,
        "atomic_steps": record.atomic_steps,
        "start": list(record.start),
        "options": [
            {
                "sg": t.sg_name,
                "behavior": t.behavior,
                "len": t.length,
                "stop_reason": t.stop_reason,
                "path": [list(p) for p in t.path],
            }
            for t in record.options
        ],
        "returns": record.discounted_return,
    }


def write_jsonl(path, dicts) -> None:
    with open(path, "w") as f:
        for d in dicts:
            f.write(json.dumps(d, sort_keys=True) + "\n")


def read_jsonl(path):
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: malformed JSON on line {lineno}: {e}") from e
    return out


METRIC_COLUMNS = ["method", "SR", "AS", "MS", "SPL", "AR", "N", "seed"]


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def write_metrics_csv(path, rows: list[dict]) -> None:
    """Rows: {method, report: MetricsReport, seed}."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRIC_COLUMNS)
        for row in rows:
            rep: MetricsReport = row["report"]
            w.writerow(
                [
                    row["method"],
                    _fmt(rep.sr),
                    _fmt(rep.avg_steps),
                    _fmt(rep.min_steps),
                    _fmt(rep.spl),
                    _fmt(rep.ar),
                    rep.n,
                    row["seed"],
                ]
            )


def read_metrics_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
