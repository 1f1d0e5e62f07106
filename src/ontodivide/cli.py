"""Command-line front end: divide, coverage, eval, stats.

Exit codes: 0 success, 1 user/input error, 2 internal invariant violation.
Logs go to standard error; machine-readable output goes to files and
standard output only.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .division import (DivisionConfig, divide, read_alignment_tsv,
                       read_division, write_division)
from .errors import InvariantError
from .lexindex import LexConfig, all_candidate_mappings, build_lexi
from .metrics import precision_recall_f, size_ratio_task, \
    uncovered_mappings, union_alignments
from .ontology import read_ontology

logger = logging.getLogger(__name__)

DEFAULTS = DivisionConfig()
# `coverage` writes it into the division directory by default
COVERAGE_REPORT = "coverage_report.json"


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for internal
    # invariant violations here, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_report(path: Path, payload: dict[str, float]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    logger.info("report written to %s", path)


def cmd_divide(args) -> int:
    if args.n < 1:
        return _fail("n must be ≥ 1")
    cfg = DivisionConfig(seed=args.seed, alpha=args.alpha,
                         max_subsets=args.max_subsets, dim=args.dim,
                         epochs=args.epochs, negatives=args.negatives,
                         margin=args.margin, learning_rate=args.lr)
    output = Path(args.output)
    for path in (output, *output.parents):  # before any input is read
        if path.exists() and not path.is_dir():
            return _fail(f"{path}: exists and is not a directory")
    o1 = read_ontology(args.source)
    o2 = read_ontology(args.target)
    div = divide(o1, o2, args.n, cfg)
    out = write_division(div, (o1, o2), args.output)
    # a report that `coverage` wrote there is of the old division
    (out / COVERAGE_REPORT).unlink(missing_ok=True)
    total = 0.0
    for task in div.subtasks:
        s = len(task.source.signature)
        t = len(task.target.signature)
        ratio = size_ratio_task(task, (o1, o2))
        total += ratio
        print(f"task {task.task_id}: |Sig(source)|={s} |Sig(target)|={t} "
              f"candidates={len(task.candidates)} size_ratio={ratio:.6f}")
    print(f"total: {div.n} subtasks, size_ratio_total={total:.6f}")
    print(f"written to {out}")
    return 0


def cmd_coverage(args) -> int:
    div = read_division(args.division_dir)
    alignment = read_alignment_tsv(args.alignment)
    if not alignment.mappings:
        return _fail("reference alignment is empty")
    missing = uncovered_mappings(div, alignment)
    ratio = (len(alignment) - len(missing)) / len(alignment)
    print(f"coverage_ratio = {ratio:.6f}")
    print(f"covered {len(alignment) - len(missing)} of {len(alignment)} "
          "mappings")
    for m in missing:
        print(f"uncovered\t{m.e1.iri}\t{m.e2.iri}\t{m.relation}")
    _write_report(Path(args.report or Path(args.division_dir)
                       / COVERAGE_REPORT), {"coverage_ratio": ratio})
    return 0


def cmd_eval(args) -> int:
    parts = [read_alignment_tsv(p) for p in args.alignments]
    reference = read_alignment_tsv(args.reference)
    merged = union_alignments(parts)
    precision, recall, f_measure = precision_recall_f(merged, reference)
    print(f"P = {precision:.3f}")
    print(f"R = {recall:.3f}")
    print(f"F = {f_measure:.3f}")
    if args.report:
        _write_report(Path(args.report), {"precision": precision,
                                          "recall": recall,
                                          "f_measure": f_measure})
    return 0


def cmd_stats(args) -> int:
    cfg = LexConfig(alpha=args.alpha, max_subsets=args.max_subsets)
    o1 = read_ontology(args.source)
    o2 = read_ontology(args.target)
    s1 = len(o1.signature)
    s2 = len(o2.signature)
    if s1 == 0 or s2 == 0:
        return _fail("empty signature")
    lexi = build_lexi(o1, o2, cfg)
    candidates = all_candidate_mappings(lexi)
    print(f"|Sig(O1)| = {s1}")
    print(f"|Sig(O2)| = {s2}")
    print(f"cartesian product = {s1 * s2}")
    print(f"index entries = {len(lexi)} "
          f"(raw {lexi.stats.raw_entries}, dropped "
          f"{lexi.stats.dropped_single_side} single-side, "
          f"{lexi.stats.dropped_over_alpha} over alpha)")
    print(f"candidate mappings = {len(candidates)}")
    return 0


def _add_index_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=int, default=DEFAULTS.alpha,
                   help="max entities per index entry (default %(default)s)")
    p.add_argument("--max-subsets", type=int, default=DEFAULTS.max_subsets,
                   help="word-subset keys per label (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ontodivide",
        description="Divide an ontology matching task into n smaller, "
                    "self-contained subtasks; measure coverage, sizes and "
                    "alignment quality.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divide", help="compute and write an n-way division")
    p.add_argument("source", help="source ontology (.ofn)")
    p.add_argument("target", help="target ontology (.ofn)")
    p.add_argument("-n", type=int, required=True,
                   help="number of matching subtasks")
    p.add_argument("-o", "--output", required=True,
                   help="output directory for the division")
    p.add_argument("--seed", type=int, default=DEFAULTS.seed,
                   help="seed for every random choice (default %(default)s)")
    _add_index_flags(p)
    p.add_argument("--dim", type=int, default=DEFAULTS.dim,
                   help="embedding dimension (default %(default)s)")
    p.add_argument("--epochs", type=int, default=DEFAULTS.epochs,
                   help="training epochs (default %(default)s)")
    p.add_argument("--negatives", type=int, default=DEFAULTS.negatives,
                   help="negative samples per positive pair "
                        "(default %(default)s)")
    p.add_argument("--margin", type=float, default=DEFAULTS.margin,
                   help="ranking margin (default %(default)s)")
    p.add_argument("--lr", type=float, default=DEFAULTS.learning_rate,
                   help="initial learning rate (default %(default)s)")
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser("coverage",
                       help="coverage of an alignment by a written division")
    p.add_argument("division_dir", help="directory written by divide")
    p.add_argument("alignment", help="alignment TSV to check")
    p.add_argument("--report", help="path for the JSON report "
                                    "(default <division-dir>/coverage_report.json)")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("eval",
                       help="P/R/F of unioned partial alignments vs a reference")
    p.add_argument("alignments", nargs="+", help="partial alignment TSVs")
    p.add_argument("--reference", required=True, help="reference alignment TSV")
    p.add_argument("--report", help="optional path for the JSON report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="signature and index statistics for a pair")
    p.add_argument("source", help="source ontology (.ofn)")
    p.add_argument("target", help="target ontology (.ofn)")
    _add_index_flags(p)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    except (InvariantError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
