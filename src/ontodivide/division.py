"""End-to-end pipeline turning one matching task into n subtasks.

Stages: build the inverted index, train embeddings for its words and
entities, compose per-entry vectors, cluster them with k-means, then turn
each cluster's entries into its candidate mappings
(`clustering.clusters_to_entries`) and those into a pair of locality
modules (`subtask_from_cluster`), in cluster id order.  Each stage reads
its settings from one `DivisionConfig` (see `config`); training and
k-means take seeds that `divide` derives from the config's, training
through `replace(cfg, seed=...)`.  Every stage is serial and seeded, so
one configuration always gives the same division.
The index and the entry vectors do not depend on n: the source ontology
remembers those of its last division, so dividing one pair again at
another n starts at k-means.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Iterable, Iterator, Mapping as MappingT,
                    NamedTuple)

from .config import DivisionConfig
from .errors import check_int
from .lexindex import RELATIONS, LexIndex, Mapping, build_lexi
from .locality import context_of
from .metrics import Alignment, size_ratio_task
from .ontology import (CLASS, INDIVIDUAL, OBJECT_PROPERTY, EntityRef,
                       Ontology, _gc_paused, _parse, _read_text)

if TYPE_CHECKING:
    import numpy as np


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


class _Memo(NamedTuple):
    """The n-independent stages of a source ontology's last division.

    `divide` keeps it in the source's instance dict, as `cached_property`
    keeps `signature` there, and replaces it with one assignment, so a
    reader in another thread sees the old memo or the new one.  A pickled
    or copied ontology is rebuilt through its constructor, without it.
    """

    config: DivisionConfig
    target: weakref.ref  # never keeps the target alive
    lexi: LexIndex
    points: np.ndarray   # read-only entry vectors


def subtask_from_cluster(candidates: frozenset[Mapping], o1: Ontology,
                         o2: Ontology, task_id: int = 0) -> MatchingTask:
    """The candidate mappings of one entry cluster plus their context
    modules."""
    if not candidates:
        raise ValueError("cluster must be non-empty")
    return MatchingTask(*context_of(candidates, o1, o2), candidates, task_id)


@_gc_paused
def divide(o1: Ontology, o2: Ontology, n: int,
           cfg: DivisionConfig | None = None) -> Division:
    """Divide the matching task (o1, o2) into n subtasks."""
    check_int("n", n)
    # the numeric stages load numpy, which nothing else here needs
    import numpy as np

    from .clustering import clusters_to_entries, kmeans
    from .embedding import entry_vectors, train_embeddings

    if cfg is None:
        cfg = DivisionConfig()
    if n < 1:
        raise ValueError("n must be ≥ 1")
    emb_seed, km_seed = (int(seq.generate_state(1, np.uint64)[0]) for seq
                         in np.random.SeedSequence(cfg.seed).spawn(2))

    memo = vars(o1).get("_division_memo")
    if memo is not None and memo.config == cfg and memo.target() is o2:
        lexi, points = memo.lexi, memo.points
    else:
        lexi, points = build_lexi(o1, o2, cfg), None
    if n > len(lexi):
        raise ValueError(
            f"n={n} exceeds the number of index entries ({len(lexi)}); "
            "choose a smaller n")

    if points is None:
        space = train_embeddings(lexi, replace(cfg, seed=emb_seed))
        points = entry_vectors(lexi, space)
        points.flags.writeable = False
        vars(o1)["_division_memo"] = _Memo(cfg, weakref.ref(o2), lexi, points)
    assignment = kmeans(points, n, km_seed, cfg.kmeans_max_iters)
    subtasks = tuple(subtask_from_cluster(m, o1, o2, i) for i, m in
                     enumerate(clusters_to_entries(assignment, lexi)))
    if "logging" in sys.modules:  # no handler exists before it is loaded
        sys.modules["logging"].getLogger(__name__).info(
            "divided task into %d subtasks from %d index entries",
            n, len(lexi))
    return Division(n, subtasks, cfg.provenance())


# --- alignment / division file formats ------------------------------------

def write_alignment_tsv(mappings: Iterable[Mapping], path) -> None:
    """`e1-iri \\t e2-iri \\t relation(=,<,>) \\t confidence`, sorted.

    Raises ValueError, before writing anything, for an IRI that would not
    read back: an empty one, one holding a tab, CR or LF, an e1 starting
    with `#` (the row would read as a comment), or a first e1 starting
    with U+FEFF (read as a byte-order mark).
    """
    rows = sorted(mappings, key=lambda m: m.key)
    # a confidence is a float, whose repr is the shortest text that reads
    # back as it
    text = "".join([f"{m.e1.iri}\t{m.e2.iri}\t{m.relation}"
                    f"\t{m.confidence!r}\n" for m in rows])
    # a row holds 3 tabs and 1 LF, so a tab or LF in an IRI changes these
    # counts; an empty IRI leaves two tabs in a row, or a tab first (an
    # empty e1 sorts first); a row starts with its e1
    if text.count("\t") != 3 * len(rows) or text.count("\n") != len(rows) \
            or "\r" in text or "\t\t" in text or "\n#" in text \
            or text[:1] in ("\t", "#", "\ufeff"):
        raise ValueError(next(_unwritable(rows)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _unwritable(rows: list[Mapping]) -> Iterator[str]:
    """Why each IRI of `rows` that would not read back cannot be written,
    in row order."""
    for i, m in enumerate(rows):
        for iri in (m.e1.iri, m.e2.iri):
            if not iri or "\t" in iri or "\r" in iri or "\n" in iri:
                yield (f"cannot write IRI {iri!r}: it is empty or holds a "
                       "tab, CR or LF")
        if m.e1.iri[:1] == "#":
            yield (f"cannot write IRI {m.e1.iri!r} first in a row: the row "
                   "would read as a comment")
        if i == 0 and m.e1.iri[:1] == "\ufeff":
            yield (f"cannot write IRI {m.e1.iri!r} first in the file: it "
                   "would read as a byte-order mark")


@_gc_paused
def read_alignment_tsv(path) -> Alignment:
    """Read mappings from TSV; missing confidence defaults to 1.0.

    Rows that name one IRI share one `EntityRef`.
    """
    return Alignment(read_mappings(path, {}))


def read_mappings(path, refs: dict[tuple[str, str], EntityRef],
                  modules: tuple[Ontology, Ontology] | None = None
                  ) -> frozenset[Mapping]:
    """The mappings of the TSV file at `path`.  An IRI's ref is its entity
    in `modules`, if given: the source module's for e1, the target's for
    e2.  Else it is its ref in `refs`: as a class, else as an object
    property, else as an individual; else a new class ref, which `refs`
    gains."""
    def module_ref(iri: str, module: Ontology | None) -> EntityRef:
        # a class ref in `refs` may be only a label's placeholder
        ref = module.entity_by_iri.get(iri) if module is not None else None
        if ref is None:
            ref = refs.get((iri, CLASS))
        if ref is None:  # a row names no kind: take the one the modules use
            ref = refs.get((iri, OBJECT_PROPERTY)) \
                or refs.get((iri, INDIVIDUAL))
            if ref is None:
                ref = refs[iri, CLASS] = EntityRef(iri)
        return ref

    source, target = modules or (None, None)
    # text mode reads every line end as "\n", as iterating the file would
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    mappings: set[Mapping] = set()
    # the refs of this file, by IRI, for each column
    seen1: dict[str, EntityRef] = {}
    seen2: dict[str, EntityRef] = {}
    confidences: dict[str, float] = {}  # the valid ones of this file
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line.isspace() or line[0] == "#":
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
            conf = confidences.get(parts[3])
            if conf is None:
                try:
                    conf = float(parts[3])
                except ValueError:
                    conf = math.nan
                if not 0.0 < conf <= 1.0:
                    raise ValueError(
                        f"{path}:{lineno}: bad confidence {parts[3]!r}")
                confidences[parts[3]] = conf
        mappings.add(Mapping(
            seen1.get(e1) or seen1.setdefault(e1, module_ref(e1, source)),
            seen2.get(e2) or seen2.setdefault(e2, module_ref(e2, target)),
            rel, conf))
    return frozenset(mappings)


@_gc_paused
def write_division(div: Division, orig: tuple[Ontology, Ontology],
                   out_dir) -> Path:
    """Write `task_<i>/{source.ofn,target.ofn,candidates.tsv}` + division.json.

    Raises ValueError, before writing anything, unless `div` has n subtasks
    with distinct task ids.  The task directories that a division written
    earlier into `out_dir` lists, and `div` does not, are removed, and so
    is its `division.json`, which is written again last: a write that fails
    part-way leaves a directory that `read_division` refuses, not a mix of
    old and new tasks.
    """
    from ._ofn import _serialize  # not loaded by a read of the division

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
    (out / "division.json").unlink(missing_ok=True)
    task_rows = []
    lines: dict[int, str] = {}  # `div` keeps each rendered axiom alive
    for task in div.subtasks:
        task_dir = out / f"task_{task.task_id}"
        task_dir.mkdir(exist_ok=True)
        # no newline translation: a line break in a literal is read back
        # as written
        (task_dir / "source.ofn").write_text(_serialize(task.source, lines),
                                             encoding="utf-8", newline="")
        (task_dir / "target.ofn").write_text(_serialize(task.target, lines),
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
    try:
        meta = _read_division_meta(out / "division.json")
    except (OSError, ValueError):
        return []
    listed = (out / f"task_{row['task']}" for row in meta["tasks"]
              if row["task"] not in ids)
    return [path for path in listed if path.is_dir()]


def _read_division_meta(path: Path) -> dict:
    """The `division.json` at `path`.  Raise ValueError, naming `path`,
    unless it is JSON with the fields `read_division` uses, with one row per
    task, each a distinct task id, and a `provenance`, if any, that is an
    object."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(meta, dict) or type(meta.get("n")) is not int:
        raise ValueError(f"{path}: 'n' must be an integer")
    tasks = meta.get("tasks")
    if not isinstance(tasks, list) or not all(
            isinstance(row, dict) and type(row.get("task")) is int
            for row in tasks):
        raise ValueError(f"{path}: 'tasks' must be a list of rows with an "
                         "integer 'task'")
    if not isinstance(meta.get("provenance", {}), dict):
        raise ValueError(f"{path}: 'provenance' must be an object")
    ids = [row["task"] for row in tasks]
    if len(ids) != meta["n"]:
        raise ValueError(f"{path}: 'n' is {meta['n']} but there are "
                         f"{len(ids)} task rows")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate task ids in {ids}")
    return meta


@_gc_paused
def read_division(path) -> Division:
    """Load a division directory written by `write_division`.

    Each task's modules read as `read_ontology` reads them, through one
    line pass (`ontology._parse`) with one ref table and one line
    memo for the whole division: an axiom line repeated across its files
    is read once, and all the ontologies and candidates share one
    `EntityRef` per (IRI, kind).
    """
    root = Path(path)
    meta_path = root / "division.json"
    if not meta_path.is_file():
        raise FileNotFoundError(f"not a division directory: {root}")
    meta = _read_division_meta(meta_path)
    refs, memo = {}, {}  # shared by every file: see `ontology._parse`
    subtasks = []
    for row in meta["tasks"]:
        task_dir = root / f"task_{row['task']}"
        source = _parse(_read_text(task_dir / "source.ofn"), refs, memo)
        target = _parse(_read_text(task_dir / "target.ofn"), refs, memo)
        candidates = read_mappings(task_dir / "candidates.tsv", refs,
                                   (source, target))
        subtasks.append(MatchingTask(source, target, candidates,
                                     task_id=row["task"]))
    return Division(meta["n"], tuple(subtasks), meta.get("provenance", {}))
