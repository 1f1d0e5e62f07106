"""One worker process of a benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py setup JOB.json
    python3 perfbench/worker.py rep   JOB.json
    python3 perfbench/worker.py trace JOB.json

`setup` times `import ontodivide` plus parsing both inputs, then times
the host-speed probe.

`rep` does what `ontodivide divide` followed by `ontodivide coverage`
does, for every `n` of the workload, with no tracing: read both
ontologies, `divide`, `write_division`, then `read_division`,
`read_alignment_tsv` and `coverage_ratio` against the planted reference.
One untimed warm-up pass is followed by timed passes until the job's
deadline, each with the probe timed before the first `n` and after each.
Every pass's written files are checked against its in-memory division.

`trace` runs an untimed warm-up pass, then the same stages by calling
each module's public functions in the order `divide` calls them, with a
span around every call, and reports per-layer timings and counts.

Either mode prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from probe import probe


def division_digest(div) -> str:
    """Hash of every task's candidates and module signatures, in task order."""
    h = hashlib.sha256()
    for task in div.subtasks:
        h.update(repr((
            task.task_id,
            sorted(m.key for m in task.candidates),
            sorted(e.iri for e in task.source.signature),
            sorted(e.iri for e in task.target.signature),
        )).encode())
    return h.hexdigest()


def _check_read_back(od, div, back, out_dir: Path, orig) -> list[str]:
    """Errors where the files written for `div` do not read back as `div`."""
    meta = json.loads((out_dir / "division.json").read_text(encoding="utf-8"))
    errors = []
    if back.n != div.n or len(meta["tasks"]) != div.n \
            or len(back.subtasks) != div.n:
        errors.append(f"n={div.n}: task count differs after read-back")
        return errors
    for row, task in zip(meta["tasks"], back.subtasks):
        sizes = (len(task.source.signature), len(task.target.signature),
                 len(task.candidates))
        if sizes != (row["source_signature"], row["target_signature"],
                     row["candidates"]):
            errors.append(f"n={div.n} task {row['task']}: read-back sizes "
                          f"{sizes} differ from division.json")
    if division_digest(back) != division_digest(div):
        errors.append(f"n={div.n}: read-back candidates or signatures "
                      "differ from the divided ones")
    recomputed = od.size_ratio_division(back, orig)
    if not math.isclose(recomputed, meta["size_ratio_total"], rel_tol=1e-12):
        errors.append(f"n={div.n}: size_ratio_total {meta['size_ratio_total']}"
                      f" in division.json, {recomputed} from read-back")
    return errors


def _self_coverage(od, o1, o2, cfg, out_dirs: list[Path]) -> float:
    """Least coverage, over the written divisions, of their own candidates."""
    lexi = od.build_lexi(o1, o2, od.LexConfig(alpha=cfg.alpha,
                                              max_subsets=cfg.max_subsets))
    candidates = od.Alignment(od.all_candidate_mappings(lexi))
    return min(od.coverage_ratio(od.read_division(d), candidates)
               for d in out_dirs)


def run_setup(job: dict) -> dict:
    """Fresh-interpreter `import ontodivide` plus parsing both inputs."""
    t0 = time.perf_counter()
    import ontodivide as od
    od.read_ontology(job["source"])
    od.read_ontology(job["target"])
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "probe_s": probe(), "errors": []}


def _one_pass(od, o1, o2, cfg, job: dict, out: Path,
              probed: bool = True) -> dict:
    """divide + write, then read + coverage, for every n; times and results.

    With `probed`, the host-speed probe runs before the first n and after
    each; an n's `probe_s` is the mean of the probes on either side of it.
    """
    # at least six probe timings per pass, to average out their own noise
    repeats = -(-6 // (len(job["ns"]) + 1))

    def host_speed() -> float:
        return statistics.fmean(probe() for _ in range(repeats)) \
            if probed else 0.0

    per_n: dict[str, dict] = {}
    probe_before = host_speed()
    for n in job["ns"]:
        out_n = out / f"n{n}"
        t = time.perf_counter()
        div = od.divide(o1, o2, n, cfg)
        od.write_division(div, (o1, o2), out_n)
        divide_s = time.perf_counter() - t

        t = time.perf_counter()
        back = od.read_division(out_n)
        reference = od.read_alignment_tsv(job["reference"])
        planted = od.coverage_ratio(back, reference)
        coverage_s = time.perf_counter() - t
        probe_after = host_speed()

        per_n[str(n)] = {
            "divide_s": divide_s,
            "coverage_s": coverage_s,
            "probe_s": (probe_before + probe_after) / 2,
            "planted_coverage": planted,
            "size_ratio_total": od.size_ratio_division(back, (o1, o2)),
            "digest": division_digest(div),
            "errors": _check_read_back(od, div, back, out_n, (o1, o2)),
        }
        del div, back
        probe_before = probe_after
    return per_n


def run_rep(job: dict) -> dict:
    """Set-up, one untimed warm-up pass, then timed passes until the deadline.

    The warm-up pass runs on the ontologies parsed during set-up and is
    checked like every other pass; it keeps one-off costs of the first
    call out of the timings.  Each timed pass parses both inputs again,
    untimed, so that nothing an ontology object caches carries over from
    one pass to the next.
    """
    t0 = time.perf_counter()
    import ontodivide as od
    o1 = od.read_ontology(job["source"])
    o2 = od.read_ontology(job["target"])
    setup_s = time.perf_counter() - t0

    cfg = od.DivisionConfig(**job["config"])
    out = Path(job["out_dir"])
    warm = _one_pass(od, o1, o2, cfg, job, out / "warm", probed=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = [e for v in warm.values() for e in v["errors"]]
    self_coverage = None
    if job["check_self"]:
        self_coverage = _self_coverage(
            od, o1, o2, cfg, [out / "warm" / f"n{n}" for n in job["ns"]])
        if self_coverage != 1.0:
            errors.append(f"self_coverage = {self_coverage}, expected 1.0")
    src_root = Path(job["src_root"]).resolve()
    if src_root not in Path(od.__file__).resolve().parents:
        errors.append(f"imported ontodivide from {od.__file__}, "
                      f"not from {src_root}")

    divide_s: dict[str, list[float]] = {n: [] for n in warm}
    coverage_s: dict[str, list[float]] = {n: [] for n in warm}
    probe_s: dict[str, list[float]] = {n: [] for n in warm}
    pass_s = time.perf_counter() - t0 - setup_s  # the warm-up's, at first
    deadline = job["deadline"]
    while not errors and (not divide_s[str(job["ns"][0])]
                          or time.monotonic() + pass_s < deadline):
        began = time.perf_counter()
        del o1, o2
        o1 = od.read_ontology(job["source"])
        o2 = od.read_ontology(job["target"])
        out_i = out / f"pass{len(divide_s[str(job['ns'][0])])}"
        for n, v in _one_pass(od, o1, o2, cfg, job, out_i).items():
            divide_s[n].append(v["divide_s"])
            coverage_s[n].append(v["coverage_s"])
            probe_s[n].append(v["probe_s"])
            errors += v["errors"]
            for key in ("planted_coverage", "size_ratio_total", "digest"):
                if v[key] != warm[n][key]:
                    errors.append(f"n={n}: {key} of a timed pass differs "
                                  "from the warm-up pass's")
        shutil.rmtree(out_i)
        pass_s = time.perf_counter() - began
    return {
        "setup_s": setup_s,
        "divide_s": divide_s,
        "coverage_s": coverage_s,
        "probe_s": probe_s,
        "peak_rss_mb": peak_rss_mb,
        "planted_coverage": min(v["planted_coverage"] for v in warm.values()),
        # mean, not max, over n: the max is set by the few clusters of the
        # smallest n and moves by 10 % from one seed to the next
        "size_ratio_total": sum(v["size_ratio_total"] for v in warm.values())
        / len(warm),
        "self_coverage": self_coverage,
        "per_n": {n: {k: v[k] for k in ("planted_coverage",
                                         "size_ratio_total", "digest")}
                  for n, v in warm.items()},
        "errors": errors,
    }


def _quantile_ms(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return 1000 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_trace(job: dict) -> dict:
    import numpy as np
    import ontodivide as od
    from tracing import Tracer, layer_self_times

    cfg = od.DivisionConfig(**job["config"])
    out = Path(job["out_dir"])
    # untraced warm-up, as before the timed passes of `rep`
    _one_pass(od, od.read_ontology(job["source"]),
              od.read_ontology(job["target"]), cfg, job, out / "warm",
              probed=False)
    shutil.rmtree(out / "warm")

    tracer = Tracer(job["run_id"])
    divisions = {}
    n_iter = 0
    with tracer.span("run") as root:
        o1 = tracer.call("ontology.read_ontology", od.read_ontology,
                         job["source"])
        o2 = tracer.call("ontology.read_ontology", od.read_ontology,
                         job["target"])
        for n in job["ns"]:
            # the stages of `divide`, called one by one with its seeds
            with tracer.span(f"divide_n{n}"):
                lexi = tracer.call(
                    "lexindex.build_lexi", od.build_lexi, o1, o2,
                    od.LexConfig(alpha=cfg.alpha, max_subsets=cfg.max_subsets))
                emb_seq, km_seq = np.random.SeedSequence(cfg.seed).spawn(2)
                emb_seed = int(emb_seq.generate_state(1, np.uint64)[0])
                km_seed = int(km_seq.generate_state(1, np.uint64)[0])
                space = tracer.call(
                    "embedding.train_embeddings", od.train_embeddings, lexi,
                    od.TrainingConfig(dim=cfg.dim, epochs=cfg.epochs,
                                      negatives=cfg.negatives,
                                      margin=cfg.margin,
                                      learning_rate=cfg.learning_rate,
                                      seed=emb_seed))
                points = tracer.call("embedding.entry_vectors",
                                     od.entry_vectors, lexi, space)
                assignment = tracer.call("clustering.kmeans", od.kmeans,
                                         points, n, km_seed,
                                         cfg.kmeans_max_iters)
                clusters = tracer.call("clustering.clusters_to_entries",
                                       od.clusters_to_entries, assignment,
                                       lexi)
                tasks = tuple(
                    tracer.call("locality.subtask_from_cluster",
                                od.subtask_from_cluster, c, o1, o2, task_id=i)
                    for i, c in enumerate(clusters))
                div = od.Division(n, tasks, cfg.provenance())
            tracer.call("division.write_division", od.write_division, div,
                        (o1, o2), out / f"n{n}")
            back = tracer.call("division.read_division", od.read_division,
                               out / f"n{n}")
            reference = tracer.call("division.read_alignment_tsv",
                                    od.read_alignment_tsv, job["reference"])
            tracer.call("metrics.coverage_ratio", od.coverage_ratio, back,
                        reference)
            divisions[n] = div
            n_iter += assignment.n_iter
            del back
    tracer.write(job["trace_path"])

    layers, unattributed = layer_self_times(tracer.spans, root)
    # `lexi` and `space` do not depend on n: every pass builds the same ones
    pairs = len(od.positive_pairs(lexi))
    steps = cfg.epochs * pairs * len(divisions)
    parse_s = sum(tracer.durations("ontology.read_ontology"))
    train_s = sum(tracer.durations("embedding.train_embeddings"))
    kmeans_s = sum(tracer.durations("clustering.kmeans"))
    module_times = tracer.durations("locality.subtask_from_cluster")
    sig_sum = union = 0
    for div in divisions.values():
        for side in ("source", "target"):
            sigs = [getattr(t, side).signature for t in div.subtasks]
            sig_sum += sum(len(s) for s in sigs)
            union += len(frozenset().union(*sigs))
    modules = 2 * sum(div.n for div in divisions.values())
    written = [p for p in out.rglob("*") if p.is_file()]
    input_bytes = sum(Path(job[k]).stat().st_size
                      for k in ("source", "target"))
    metrics = {
        "ontology.parse_s": parse_s,
        "ontology.parse_mb_per_s": input_bytes / 1e6 / parse_s,
        "lexindex.build_s": sum(tracer.durations("lexindex.build_lexi")),
        "lexindex.entries": len(lexi),
        "lexindex.raw_entries": lexi.stats.raw_entries,
        "lexindex.kept_ratio": len(lexi) / lexi.stats.raw_entries,
        "lexindex.candidates": len(od.all_candidate_mappings(lexi)),
        "embedding.train_s": train_s,
        "embedding.us_per_step": 1e6 * train_s / steps,
        "embedding.entry_vectors_s":
            sum(tracer.durations("embedding.entry_vectors")),
        "embedding.pairs": pairs,
        "embedding.steps": steps,
        "embedding.loss_first": space.epoch_losses[0],
        "embedding.loss_last": space.epoch_losses[-1],
        "clustering.kmeans_s": kmeans_s,
        "clustering.ms_per_iter": 1000 * kmeans_s / n_iter,
        "clustering.n_iter": n_iter,
        "locality.modules_s": sum(module_times),
        "locality.module_p50_ms": _quantile_ms(module_times, 0.5),
        "locality.module_p90_ms": _quantile_ms(module_times, 0.9),
        "locality.module_max_ms": 1000 * max(module_times),
        "locality.module_sig_mean": sig_sum / modules,
        "locality.overlap_ratio": sig_sum / union,
        "division.write_s": sum(tracer.durations("division.write_division")),
        "division.write_mb": sum(p.stat().st_size for p in written) / 1e6,
        "division.read_s": sum(tracer.durations("division.read_division"))
        + sum(tracer.durations("division.read_alignment_tsv")),
        "division.read_files": len(written) + len(divisions),
        "metrics.coverage_s": sum(tracer.durations("metrics.coverage_ratio")),
        "trace.wall_s": root.duration,
        "trace.unattributed_s": unattributed,
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_s"] = seconds
    return {
        "metrics": metrics,
        "digests": {str(n): division_digest(div)
                    for n, div in divisions.items()},
        "errors": [],
    }


def main(argv: list[str]) -> int:
    mode, job_path = argv
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    result = {"setup": run_setup, "rep": run_rep, "trace": run_trace}[mode](job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
