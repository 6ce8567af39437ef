"""Output checks for the benchmark's workloads, and a brute-force overlap oracle.

Each check is one operation of the run: it either holds or counts as a
failed operation. Nothing here imports ocrdrift; the oracle recomputes
curve points with plain numpy from the embedding files `train` wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CER_TOLERANCE = 0.01
ORACLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_curve(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(fh)]


def curve_checks(path: Path, grid_points: int) -> list[Check]:
    """One row per grid point; 0 <= ci_low <= mean <= ci_high <= 1; mean 1 at N = 1."""
    if not path.is_file():
        return [Check(f"{path.name} exists", False, "missing")]
    rows = _read_curve(path)
    bad = [r["N"] for r in rows if not 0 <= r["ci_low"] <= r["mean"] <= r["ci_high"] <= 1]
    full = [r["mean"] for r in rows if r["N"] == 1.0]
    return [
        Check(f"{path.name} rows", len(rows) == grid_points, f"{len(rows)} rows, want {grid_points}"),
        Check(f"{path.name} band", not bad and full == [1.0],
              f"band out of order at N = {bad[:3]}, mean at N = 1: {full}"),
    ]


def error_rate_check(path: Path, target: float) -> Check:
    """The mean CER `error-rates` measured is within CER_TOLERANCE of the injected level."""
    name = f"error-rates CER at {target}"
    if not path.is_file():
        return Check(name, False, f"{path.name} missing")
    measured = json.loads(path.read_text())["mean_cer"]
    return Check(name, abs(measured - target) <= CER_TOLERANCE, f"measured {measured:.4f}, injected {target}")


# ----------------------------------------------------------------------
# brute-force overlap oracle
# ----------------------------------------------------------------------

def _text_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        count, dim = (int(v) for v in fh.readline().split())
        lines = [line.split() for line in fh]
    words = [parts[0] for parts in lines]
    vectors = np.array([parts[1:] for parts in lines], dtype=np.float64).reshape(count, dim)
    return words, vectors


def _vocabulary(path: Path) -> list[str]:
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as payload:
            return [str(w) for w in payload["words"]]
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return [line.split(" ", 1)[0] for line in fh]


def _ranks(words: list[str], vectors: np.ndarray, shared: list[str]) -> np.ndarray:
    """ranks[q, c]: position of candidate c in query q's neighbour list.

    Full similarity matrix, stable descending sort (ties by index), zero
    vectors at -1 against everything, the query itself last.
    """
    row = {w: i for i, w in enumerate(words)}
    x = vectors[[row[w] for w in shared]]
    norms = np.sqrt((x * x).sum(axis=1))
    zero = norms == 0
    x = x / np.where(zero, 1.0, norms)[:, None]
    sims = x @ x.T
    sims[:, zero] = -1.0
    np.fill_diagonal(sims, -np.inf)
    order = np.argsort(-sims, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(len(shared))[None, :].repeat(len(shared), 0), axis=1)
    return ranks


def oracle_check(out: Path, label: str, fractions: tuple[float, ...]) -> Check:
    """Recompute one single-run model's curve mean at `fractions` and match the CSV."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        entries = manifest["entries"]
        shared = set(_vocabulary(out / entries[0]["embedding_path"]))
        for entry in entries[1:]:
            shared &= set(_vocabulary(out / entry["embedding_path"]))
        shared = sorted(shared)
        paths = {e["version"]: out / e["embedding_path"] for e in entries if e["model"] == label}
        rank_a = _ranks(*_text_vectors(paths["ocr"]), shared)
        rank_b = _ranks(*_text_vectors(paths["gt"]), shared)
        curve = {row["N"]: row["mean"] for row in _read_curve(out / "curves" / f"{label}.csv")}
        size = len(shared)
        worst = 0.0
        for n in fractions:
            k = min(max(1, math.floor(n * size + 1e-9)), size - 1)
            both = np.count_nonzero((rank_a < k) & (rank_b < k), axis=1)
            worst = max(worst, abs(float((both / k).mean()) - curve[n]))
    except (OSError, KeyError, ValueError) as exc:
        return Check(f"oracle {label}", False, f"{type(exc).__name__}: {exc}")
    return Check(
        f"oracle {label}", worst <= ORACLE_TOLERANCE,
        f"|V|={size}, max |oracle - csv| = {worst:.3g} at N in {fractions}",
    )
