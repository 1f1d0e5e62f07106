"""End-to-end pipeline turning one matching task into n subtasks.

Stages: build the inverted index, train embeddings for its words and
entities, compose per-entry vectors, cluster them with k-means, then turn
each cluster's candidate mappings into a pair of locality modules, in
cluster id order.  Every stage is serial and seeded, so one configuration
always gives the same division.  The index and the entry vectors do not
depend on n: the source ontology remembers those of its last division, so
dividing one pair again at another n starts at k-means.
"""

from __future__ import annotations

import json
import logging
import math
import shutil
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping as MappingT, NamedTuple

import numpy as np

from ._version import __version__
from .clustering import MAX_ITERS, clusters_to_entries, kmeans
from .embedding import TrainingConfig, entry_vectors, train_embeddings
from .errors import InvariantError, check_int
from .lexindex import (LexConfig, LexIndex, LexKey, LexValue, Mapping,
                       RELATIONS, build_lexi, mappings_of)
from .locality import context_of
from .metrics import Alignment, size_ratio_task
from .ontology import EntityRef, Ontology, read_ontology, serialize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MatchingTask:
    source: Ontology
    target: Ontology
    candidates: frozenset[Mapping]
    task_id: int = 0


@dataclass(frozen=True)
class Division:
    n: int
    subtasks: tuple[MatchingTask, ...]
    provenance: MappingT[str, object]


@dataclass(frozen=True)
class DivisionConfig:
    """Every setting a division depends on; a bad one raises ValueError
    when the config is made, before any input is read."""

    seed: int = 0
    alpha: int = LexConfig.alpha
    max_subsets: int = LexConfig.max_subsets
    dim: int = TrainingConfig.dim
    epochs: int = TrainingConfig.epochs
    negatives: int = TrainingConfig.negatives
    margin: float = TrainingConfig.margin
    learning_rate: float = TrainingConfig.learning_rate
    kmeans_max_iters: int = MAX_ITERS

    def __post_init__(self):
        check_int("seed", self.seed)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        check_int("kmeans_max_iters", self.kmeans_max_iters)
        if self.kmeans_max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        self.index(), self.training(0)  # the stage configs check the rest

    def index(self) -> LexConfig:
        return LexConfig(alpha=self.alpha, max_subsets=self.max_subsets)

    def training(self, seed: int) -> TrainingConfig:
        """The embedding settings, with `seed` for the embedding stage."""
        return TrainingConfig(dim=self.dim, epochs=self.epochs,
                              negatives=self.negatives, margin=self.margin,
                              learning_rate=self.learning_rate, seed=seed)

    def provenance(self) -> dict[str, object]:
        # every field changes the output, so all of them are needed to rerun,
        # and so does the package version that trained the embeddings
        return {**asdict(self), "version": __version__}


class _Memo(NamedTuple):
    """The n-independent stages of a source ontology's last division.

    `divide` keeps it in the source's instance dict, as `cached_property`
    keeps `signature` there, and replaces it with one assignment, so a
    reader in another thread sees the old memo or the new one.
    """

    config: DivisionConfig
    target: weakref.ref  # never keeps the target alive
    lexi: LexIndex
    points: np.ndarray   # read-only entry vectors

    def __reduce__(self):
        # a weak reference cannot be pickled: a pickled or deep-copied
        # ontology forgets its last division
        return type(None), ()


def subtask_from_cluster(cluster: Iterable[tuple[LexKey, LexValue]],
                         o1: Ontology, o2: Ontology,
                         task_id: int = 0) -> MatchingTask:
    """Candidate mappings of one entry cluster plus their context modules."""
    cluster = tuple(cluster)
    if not cluster:
        raise ValueError("cluster must be non-empty")
    candidates = mappings_of(cluster)
    left, right = context_of(candidates, o1, o2)
    return MatchingTask(left, right, candidates, task_id)


def divide(o1: Ontology, o2: Ontology, n: int,
           cfg: DivisionConfig | None = None) -> Division:
    """Divide the matching task (o1, o2) into n subtasks."""
    if cfg is None:
        cfg = DivisionConfig()
    if n < 1:
        raise ValueError("n must be ≥ 1")
    emb_seq, km_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    training = cfg.training(int(emb_seq.generate_state(1, np.uint64)[0]))
    km_seed = int(km_seq.generate_state(1, np.uint64)[0])

    memo = vars(o1).get("_division_memo")
    if memo is not None and memo.config == cfg and memo.target() is o2:
        lexi, points = memo.lexi, memo.points
    else:
        lexi, points = build_lexi(o1, o2, cfg.index()), None
    if n > len(lexi):
        raise ValueError(
            f"n={n} exceeds the number of index entries ({len(lexi)}); "
            "choose a smaller n")

    if points is None:
        points = entry_vectors(lexi, train_embeddings(lexi, training))
        points.flags.writeable = False
        vars(o1)["_division_memo"] = _Memo(cfg, weakref.ref(o2), lexi, points)
    assignment = kmeans(points, n, km_seed, cfg.kmeans_max_iters)
    clusters = clusters_to_entries(assignment, lexi)
    if any(not c for c in clusters):
        raise InvariantError("k-means returned an empty cluster")

    subtasks = tuple(subtask_from_cluster(c, o1, o2, task_id=i)
                     for i, c in enumerate(clusters))
    logger.info("divided task into %d subtasks from %d index entries",
                n, len(lexi))
    return Division(n, subtasks, cfg.provenance())


# --- alignment / division file formats ------------------------------------

def write_alignment_tsv(mappings: Iterable[Mapping], path) -> None:
    """`e1-iri \\t e2-iri \\t relation(=,<,>) \\t confidence`, sorted."""
    rows = sorted(mappings, key=lambda m: m.key)
    with open(path, "w", encoding="utf-8") as fh:
        for m in rows:
            # repr is the shortest text that reads back as the same float
            fh.write(f"{m.e1.iri}\t{m.e2.iri}\t{m.relation}"
                     f"\t{m.confidence!r}\n")


def read_alignment_tsv(path) -> Alignment:
    """Read mappings from TSV; missing confidence defaults to 1.0.

    Rows that name one IRI share one `EntityRef`.
    """
    mappings: set[Mapping] = set()
    refs: dict[str, EntityRef] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"{path}:{lineno}: expected 3 or 4 tab-separated columns")
            e1, e2, rel = parts[0], parts[1], parts[2]
            if not e1 or not e2:
                raise ValueError(f"{path}:{lineno}: empty IRI")
            if rel not in RELATIONS:
                raise ValueError(f"{path}:{lineno}: bad relation {rel!r}")
            conf = 1.0
            if len(parts) == 4:
                try:
                    conf = float(parts[3])
                except ValueError:
                    conf = math.nan
                if not 0.0 < conf <= 1.0:
                    raise ValueError(
                        f"{path}:{lineno}: bad confidence {parts[3]!r}")
            mappings.add(Mapping(
                refs.get(e1) or refs.setdefault(e1, EntityRef(e1)),
                refs.get(e2) or refs.setdefault(e2, EntityRef(e2)),
                rel, conf))
    return Alignment(frozenset(mappings))


def write_division(div: Division, orig: tuple[Ontology, Ontology],
                   out_dir) -> Path:
    """Write `task_<i>/{source.ofn,target.ofn,candidates.tsv}` + division.json.

    Raises ValueError, before writing anything, unless `div` has n subtasks
    with distinct task ids.  The task directories that a division written
    earlier into `out_dir` lists, and `div` does not, are removed.
    """
    ids = [task.task_id for task in div.subtasks]
    if len(ids) != div.n:
        raise ValueError(f"division has n={div.n} but {len(ids)} subtasks")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate task ids in {ids}: each task needs "
                         "a directory of its own")
    out = Path(out_dir)
    for stale in _stale_task_dirs(out, set(ids)):
        shutil.rmtree(stale)
    out.mkdir(parents=True, exist_ok=True)
    task_rows = []
    for task in div.subtasks:
        task_dir = out / f"task_{task.task_id}"
        task_dir.mkdir(exist_ok=True)
        # no newline translation: a line break in a literal is read back
        # as written
        (task_dir / "source.ofn").write_text(serialize(task.source),
                                             encoding="utf-8", newline="")
        (task_dir / "target.ofn").write_text(serialize(task.target),
                                             encoding="utf-8", newline="")
        write_alignment_tsv(task.candidates, task_dir / "candidates.tsv")
        ratio = size_ratio_task(task, orig)
        task_rows.append({
            "task": task.task_id,
            "source_signature": len(task.source.signature),
            "target_signature": len(task.target.signature),
            "candidates": len(task.candidates),
            "size_ratio": ratio,
        })
    payload = {
        "n": div.n,
        "tasks": task_rows,
        "size_ratio_total": sum(r["size_ratio"] for r in task_rows),
        "provenance": dict(div.provenance),
    }
    (out / "division.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return out


def _stale_task_dirs(out: Path, ids: set[int]) -> list[Path]:
    """Task directories of the division in `out` whose ids are not `ids`;
    none if `out` holds no readable `division.json`."""
    meta_path = out / "division.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        _check_division_meta(meta, meta_path)
    except (OSError, ValueError):
        return []
    listed = (out / f"task_{row['task']}" for row in meta["tasks"]
              if row["task"] not in ids)
    return [path for path in listed if path.is_dir()]


def _check_division_meta(meta, path) -> None:
    """Raise ValueError unless `meta` has the fields `read_division` uses,
    with one row per task, each a distinct task id."""
    if not isinstance(meta, dict) or type(meta.get("n")) is not int:
        raise ValueError(f"{path}: 'n' must be an integer")
    tasks = meta.get("tasks")
    if not isinstance(tasks, list) or not all(
            isinstance(row, dict) and type(row.get("task")) is int
            for row in tasks):
        raise ValueError(f"{path}: 'tasks' must be a list of rows with an "
                         "integer 'task'")
    ids = [row["task"] for row in tasks]
    if len(ids) != meta["n"]:
        raise ValueError(f"{path}: 'n' is {meta['n']} but there are "
                         f"{len(ids)} task rows")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate task ids in {ids}")


def read_division(path) -> Division:
    """Load a division directory written by `write_division`."""
    root = Path(path)
    meta_path = root / "division.json"
    if not meta_path.is_file():
        raise FileNotFoundError(f"not a division directory: {root}")
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    _check_division_meta(meta, meta_path)
    subtasks = []
    for row in meta["tasks"]:
        task_dir = root / f"task_{row['task']}"
        source = read_ontology(task_dir / "source.ofn")
        target = read_ontology(task_dir / "target.ofn")
        candidates = read_alignment_tsv(task_dir / "candidates.tsv").mappings
        subtasks.append(MatchingTask(source, target, candidates,
                                     task_id=row["task"]))
    return Division(meta["n"], tuple(subtasks), meta.get("provenance", {}))
