import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TOY1_NS, TOY2_NS, load_toy_text

from ontodivide import metrics
from ontodivide.cli import main
from ontodivide.division import (DivisionConfig, read_alignment_tsv,
                                 read_division, write_alignment_tsv)
from ontodivide.lexindex import Mapping
from ontodivide.metrics import coverage_ratio, uncovered_mappings
from ontodivide.ontology import EntityRef


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("ontologies")
    src = root / "toy1.ofn"
    tgt = root / "toy2.ofn"
    src.write_text(load_toy_text("anatomy_toy_1.ofn"), encoding="utf-8")
    tgt.write_text(load_toy_text("anatomy_toy_2.ofn"), encoding="utf-8")
    return src, tgt


def run_divide(toy_files, out_dir, n=2, seed=0, extra=()):
    src, tgt = toy_files
    return main(["divide", str(src), str(tgt), "-n", str(n),
                 "--seed", str(seed), "--epochs", "10", "--dim", "16",
                 "-o", str(out_dir), *extra])


class TestDivide:
    def test_writes_layout_and_summary(self, toy_files, tmp_path, capsys):
        out = tmp_path / "division"
        assert run_divide(toy_files, out, n=2) == 0
        captured = capsys.readouterr()
        assert (out / "task_0").is_dir()
        assert (out / "task_1").is_dir()
        assert (out / "division.json").is_file()
        summary = [ln for ln in captured.out.splitlines()
                   if ln.startswith("task ")]
        assert len(summary) == 2
        assert "size_ratio=" in summary[0]

    def test_n_zero_is_user_error(self, toy_files, tmp_path, capsys):
        out = tmp_path / "division"
        code = run_divide(toy_files, out, n=0)
        assert code == 1
        assert "n must be ≥ 1" in capsys.readouterr().err

    def test_missing_file_is_user_error(self, tmp_path, capsys):
        code = main(["divide", str(tmp_path / "nope.ofn"),
                     str(tmp_path / "nope2.ofn"), "-n", "1",
                     "-o", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["out", "out/sub"])
    def test_output_under_a_file_reported_before_input(
            self, toy_files, tmp_path, capsys, output):
        (tmp_path / "out").write_text("not a division\n")
        src, tgt = toy_files
        code = main(["divide", str(src), str(tgt), "-n", "1",
                     "-o", str(tmp_path / output)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {tmp_path / 'out'}: exists and is not a directory\n"
        assert (tmp_path / "out").read_text() == "not a division\n"

    def test_bad_flag_reported_before_missing_input(self, tmp_path, capsys):
        for flag, value, message in (
                ("--lr", "nan", "learning_rate must be finite and > 0"),
                ("--seed", "-1", "seed must be >= 0")):
            code = main(["divide", str(tmp_path / "nope.ofn"),
                         str(tmp_path / "nope2.ofn"), "-n", "1",
                         "-o", str(tmp_path / "out"), flag, value])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["divide", "stats"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--max-subsets", "0", "max_subsets must be >= 1"),
        ("--alpha", "1", "alpha must be >= 2")])
    def test_bad_index_flag_reported_before_missing_input(
            self, tmp_path, capsys, command, flag, value, message):
        argv = [command, str(tmp_path / "nope.ofn"),
                str(tmp_path / "nope2.ofn"), flag, value]
        if command == "divide":
            argv += ["-n", "2", "-o", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "must be finite"), ("--lr", "inf", "must be finite"),
        ("--margin", "nan", "must be finite"),
        ("--margin", "inf", "must be finite"),
        # finite, but training overflows: first the loss, then a row norm
        ("--margin", "1e308", "lower the learning rate or the margin"),
        ("--lr", "1e200", "lower the learning rate or the margin")],
        ids=["--lr-nan", "--lr-inf", "--margin-nan", "--margin-inf",
             "--margin-1e308", "--lr-1e200"])
    def test_non_finite_training_flag_is_user_error(
            self, toy_files, tmp_path, capsys, flag, value, message):
        code = run_divide(toy_files, tmp_path / "division", n=1,
                          extra=(flag, value))
        assert code == 1
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error" in ln]
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert message in errors[0]
        assert "Traceback" not in err

    def test_same_seed_byte_identical(self, toy_files, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_divide(toy_files, out_a, n=2, seed=5) == 0
        assert run_divide(toy_files, out_b, n=2, seed=5) == 0
        files_a = sorted(p.relative_to(out_a)
                         for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b)
                         for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()

    def test_bad_flag_exits_one(self, toy_files, tmp_path):
        src, tgt = toy_files
        with pytest.raises(SystemExit) as err:
            main(["divide", str(src), str(tgt), "--bogus"])
        assert err.value.code == 1

    def test_flag_defaults_are_division_config_defaults(self, toy_files,
                                                        tmp_path,
                                                        monkeypatch):
        from ontodivide import cli
        seen = []

        class Stop(Exception):
            pass

        def capture(o1, o2, n, cfg):
            seen.append(cfg)
            raise Stop

        monkeypatch.setattr(cli, "divide", capture)
        src, tgt = toy_files
        with pytest.raises(Stop):
            main(["divide", str(src), str(tgt), "-n", "1",
                  "-o", str(tmp_path / "out")])
        assert seen == [DivisionConfig()]

    def test_invariant_violation_exits_two(self, toy_files, tmp_path,
                                           capsys, monkeypatch):
        from ontodivide import cli
        from ontodivide.errors import InvariantError

        def boom(*args, **kwargs):
            raise InvariantError("simulated")

        monkeypatch.setattr(cli, "divide", boom)
        src, tgt = toy_files
        code = main(["divide", str(src), str(tgt), "-n", "1",
                     "-o", str(tmp_path / "out")])
        assert code == 2
        assert "internal error" in capsys.readouterr().err


class TestCoverage:
    def test_full_coverage_of_own_candidates(self, toy_files, tmp_path,
                                             capsys):
        out = tmp_path / "division"
        assert run_divide(toy_files, out, n=1, seed=3) == 0
        capsys.readouterr()
        candidates = out / "task_0" / "candidates.tsv"
        assert main(["coverage", str(out), str(candidates)]) == 0
        captured = capsys.readouterr()
        assert "coverage_ratio = 1.000000" in captured.out
        text = (out / "coverage_report.json").read_text()
        assert text.endswith("}\n")
        report = json.loads(text)
        assert set(report) == {"coverage_ratio"}
        assert report["coverage_ratio"] == 1.0

    def test_divide_again_removes_the_report(self, toy_files, tmp_path):
        out = tmp_path / "division"
        assert run_divide(toy_files, out, n=4) == 0
        candidates = out / "task_0" / "candidates.tsv"
        assert main(["coverage", str(out), str(candidates)]) == 0
        assert (out / "coverage_report.json").is_file()
        assert run_divide(toy_files, out, n=2) == 0
        assert not (out / "coverage_report.json").exists()
        assert sorted(p.name for p in out.iterdir()) == \
            ["division.json", "task_0", "task_1"]

    def test_malformed_division_json_is_user_error(self, tmp_path, capsys):
        (tmp_path / "division.json").write_text('{"n": 1}')
        reference = tmp_path / "ref.tsv"
        reference.write_text(f"{TOY1_NS}Heart\t{TOY2_NS}Heart\t=\n")
        assert main(["coverage", str(tmp_path), str(reference)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'tasks'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("", "Expecting value: line 1 column 1 (char 0)"),
        ('{"n": 1,', "Expecting property name enclosed in double quotes: "
                     "line 1 column 9 (char 8)"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte"),
    ], ids=["empty", "truncated", "not-utf8"])
    def test_division_json_not_json_is_named(self, tmp_path, capsys, text,
                                             message):
        meta_path = tmp_path / "division.json"
        meta_path.write_bytes(text if isinstance(text, bytes)
                              else text.encode())
        reference = tmp_path / "ref.tsv"
        reference.write_text(f"{TOY1_NS}Heart\t{TOY2_NS}Heart\t=\n")
        assert main(["coverage", str(tmp_path), str(reference)]) == 1
        assert capsys.readouterr().err == f"error: {meta_path}: {message}\n"

    @pytest.mark.parametrize("n, ids, message", [
        (3, [0, 1], "'n' is 3 but there are 2 task rows"),
        (2, [0, 0], "duplicate task ids in [0, 0]"),
    ])
    def test_inconsistent_division_json_is_one_error_line(
            self, toy_files, tmp_path, capsys, n, ids, message):
        out = tmp_path / "division"
        assert run_divide(toy_files, out, n=2) == 0
        meta_path = out / "division.json"
        meta = json.loads(meta_path.read_text())
        meta["n"] = n
        meta["tasks"] = [dict(meta["tasks"][0], task=i) for i in ids]
        meta_path.write_text(json.dumps(meta))
        reference = tmp_path / "ref.tsv"
        reference.write_text(f"{TOY1_NS}Heart\t{TOY2_NS}Heart\t=\n")
        capsys.readouterr()
        assert main(["coverage", str(out), str(reference)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {meta_path}: {message}\n"

    def test_empty_alignment_is_user_error(self, toy_files, tmp_path,
                                           capsys):
        out = tmp_path / "division"
        assert run_divide(toy_files, out, n=1) == 0
        capsys.readouterr()
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing\n")
        assert main(["coverage", str(out), str(empty)]) == 1
        assert "reference alignment is empty" in capsys.readouterr().err

    def test_nine_of_ten_reference(self, toy_files, tmp_path, capsys):
        # one reference mapping pairs entities whose labels share no stem
        # with the other side, so no index entry, no module, no coverage
        out = tmp_path / "division"
        assert run_divide(toy_files, out, n=2, seed=1) == 0
        capsys.readouterr()
        pairs = [("Heart", "Heart"), ("Lung", "Lung"), ("Kidney", "Kidney"),
                 ("Femur", "Femur"), ("Aorta", "Aorta"), ("Brain", "Brain"),
                 ("Trachea", "Trachea"), ("Liver", "Liver"),
                 ("Skull", "Skull"), ("Vibrissa", "Thumb")]
        reference = [Mapping(EntityRef(TOY1_NS + a), EntityRef(TOY2_NS + b))
                     for a, b in pairs]
        ref_path = tmp_path / "reference.tsv"
        write_alignment_tsv(reference, ref_path)
        report_path = tmp_path / "report.json"
        assert main(["coverage", str(out), str(ref_path),
                     "--report", str(report_path)]) == 0
        captured = capsys.readouterr()
        assert "coverage_ratio = 0.900000" in captured.out
        assert f"uncovered\t{TOY1_NS}Vibrissa\t{TOY2_NS}Thumb" \
            in captured.out
        assert json.loads(report_path.read_text())["coverage_ratio"] == 0.9

    def test_one_scan_gives_the_two_scan_output(self, toy_files, tmp_path,
                                                capsys, monkeypatch):
        out = tmp_path / "division"
        assert run_divide(toy_files, out, n=3, seed=1) == 0
        capsys.readouterr()
        pairs = [("Heart", "Heart"), ("Lung", "Lung"), ("Kidney", "Kidney"),
                 ("Femur", "Femur"), ("Aorta", "Aorta"), ("Brain", "Brain"),
                 ("Trachea", "Trachea"), ("Vibrissa", "Thumb"),
                 ("Vibrissa", "Heart")]
        ref_path = tmp_path / "reference.tsv"
        write_alignment_tsv([Mapping(EntityRef(TOY1_NS + a),
                                     EntityRef(TOY2_NS + b))
                             for a, b in pairs], ref_path)
        # what the command printed and wrote when it scanned twice
        div = read_division(out)
        alignment = read_alignment_tsv(ref_path)
        ratio = coverage_ratio(div, alignment)
        missing = uncovered_mappings(div, alignment)
        expected = (f"coverage_ratio = {ratio:.6f}\n"
                    f"covered {len(alignment) - len(missing)} of "
                    f"{len(alignment)} mappings\n"
                    + "".join(f"uncovered\t{m.e1.iri}\t{m.e2.iri}\t"
                              f"{m.relation}\n" for m in missing))
        assert ratio == 7 / 9

        scanned = []
        real = metrics.coverage

        def counting(task, m):
            scanned.append(task.task_id)
            return real(task, m)

        monkeypatch.setattr(metrics, "coverage", counting)
        assert main(["coverage", str(out), str(ref_path)]) == 0
        assert capsys.readouterr().out == expected
        assert (out / "coverage_report.json").read_text() == \
            json.dumps({"coverage_ratio": ratio}, indent=2,
                       sort_keys=True) + "\n"
        assert sorted(scanned) == [0, 1, 2]


class TestEval:
    def write(self, path, mappings):
        write_alignment_tsv(mappings, path)
        return str(path)

    def mapping(self, a, b, confidence=1.0):
        return Mapping(EntityRef(TOY1_NS + a), EntityRef(TOY2_NS + b),
                       confidence=confidence)

    def test_half_overlap(self, tmp_path, capsys):
        ms = self.write(tmp_path / "ms.tsv",
                        [self.mapping("a", "a"), self.mapping("b", "b")])
        mra = self.write(tmp_path / "mra.tsv",
                         [self.mapping("b", "b"), self.mapping("c", "c")])
        assert main(["eval", ms, "--reference", mra]) == 0
        out = capsys.readouterr().out
        assert "P = 0.500" in out
        assert "R = 0.500" in out
        assert "F = 0.500" in out

    def test_parts_equal_reference(self, tmp_path, capsys):
        mra = self.write(tmp_path / "mra.tsv",
                         [self.mapping("a", "a"), self.mapping("b", "b")])
        assert main(["eval", mra, "--reference", mra]) == 0
        out = capsys.readouterr().out
        assert "P = 1.000" in out and "R = 1.000" in out and "F = 1.000" in out

    def test_union_of_parts_equals_single_file(self, tmp_path, capsys):
        all_mappings = [self.mapping("a", "a"), self.mapping("b", "b"),
                        self.mapping("c", "c")]
        parts = [
            self.write(tmp_path / "p1.tsv", all_mappings[:2]),
            self.write(tmp_path / "p2.tsv", all_mappings[1:]),
            self.write(tmp_path / "p3.tsv", all_mappings[:1]),
        ]
        merged = self.write(tmp_path / "merged.tsv", all_mappings)
        mra = self.write(tmp_path / "mra.tsv",
                         all_mappings[:2] + [self.mapping("d", "d")])
        assert main(["eval", *parts, "--reference", mra]) == 0
        out_parts = capsys.readouterr().out
        assert main(["eval", merged, "--reference", mra]) == 0
        out_merged = capsys.readouterr().out
        assert out_parts == out_merged

    def test_report_written(self, tmp_path, capsys):
        ms = self.write(tmp_path / "ms.tsv", [self.mapping("a", "a")])
        mra = self.write(tmp_path / "mra.tsv", [self.mapping("a", "a")])
        report = tmp_path / "eval.json"
        assert main(["eval", ms, "--reference", mra,
                     "--report", str(report)]) == 0
        capsys.readouterr()
        text = report.read_text()
        assert text.endswith("}\n")
        payload = json.loads(text)
        assert set(payload) == {"precision", "recall", "f_measure"}
        assert payload["precision"] == 1.0
        assert payload["f_measure"] == 1.0


def fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `script` in a new `python -S` with the package's sources and
    numpy on its path.  `-S` skips the site hooks, which may load other
    modules at start-up."""
    import numpy

    paths = [Path(__file__).resolve().parents[1] / "src",
             Path(numpy.__file__).resolve().parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    return subprocess.run([sys.executable, "-S", "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.fixture(scope="module")
def toy_division(toy_files, tmp_path_factory):
    """A division of the toy pair and a reference alignment for it."""
    root = tmp_path_factory.mktemp("division")
    assert run_divide(toy_files, root / "division") == 0
    reference = root / "reference.tsv"
    write_alignment_tsv([Mapping(EntityRef(TOY1_NS + "heart"),
                                 EntityRef(TOY2_NS + "heart"))], reference)
    return root / "division", reference


@pytest.mark.parametrize("command", ["import", "stats", "coverage", "eval",
                                     "divide"])
def test_numpy_loaded_only_to_divide(command, toy_files, toy_division,
                                     tmp_path):
    """A fresh interpreter holds only standard-library and package modules
    after importing ontodivide or running a command other than `divide`;
    `divide` loads numpy."""
    src, tgt = map(str, toy_files)
    division, reference = map(str, toy_division)
    args = {"import": [],
            "stats": ["stats", src, tgt],
            "coverage": ["coverage", division, reference,
                         "--report", str(tmp_path / "report.json")],
            "eval": ["eval", reference, "--reference", reference],
            "divide": ["divide", src, tgt, "-n", "2", "--epochs", "1",
                       "--dim", "4", "-o", str(tmp_path / "out")]}[command]
    script = ("import sys, ontodivide\n"
              "from ontodivide.cli import main\n"
              "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(code, *sorted(sys.modules))\n")
    done = fresh_python(script, *args)
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stdout
    loaded = set(loaded) - {"__main__"}
    packages = {m.partition(".")[0] for m in loaded}
    if command == "divide":
        assert "numpy" in packages
    else:
        allowed = sys.stdlib_module_names | {"ontodivide"}
        assert sorted(packages - allowed) == []


def test_divide_bytes_independent_of_hash_seed(toy_files, tmp_path):
    """Processes with different string hash seeds write the same division:
    no output follows the iteration order of a set of IRIs."""
    files = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        done = subprocess.run(
            [sys.executable, "-m", "ontodivide", "divide",
             *map(str, toy_files), "-n", "4", "--epochs", "5", "--dim", "16",
             "-o", str(out)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                     PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                    / "src")),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        files.append({p.relative_to(out): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})
    assert len(files[0]) == 1 + 3 * 4
    assert files[0] == files[1]


def test_kmeans_bits_independent_of_blas_threads():
    """Processes with 1 and 2 BLAS threads cluster alike.  At 3,000 x 128
    points and n = 10, OpenBLAS splits the product `X @ C.T` over its
    threads; each element must still round as with one thread."""
    script = """
import hashlib
import numpy as np
from ontodivide.clustering import kmeans
asg = kmeans(np.random.default_rng(7).normal(size=(3000, 128)), 10, seed=3)
h = hashlib.sha256(asg.labels.astype(np.int64).tobytes())
h.update(asg.centroids.tobytes())
h.update(np.array(asg.inertia_history).tobytes())
print(asg.n_iter, h.hexdigest())
"""
    digests = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                     OMP_NUM_THREADS=threads,
                     PYTHONPATH=str(Path(__file__).resolve().parents[1]
                                    / "src")),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert digests[0] == digests[1]


def test_divide_logs_its_division(toy_files, tmp_path):
    """The CLI loads `logging`, so `divide` logs its INFO line."""
    done = fresh_python("import sys\nfrom ontodivide.cli import main\n"
                        "sys.exit(main(sys.argv[1:]))\n",
                        "divide", *map(str, toy_files), "-n", "2",
                        "--epochs", "1", "--dim", "4",
                        "-o", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert "INFO divided task into 2 subtasks from " in done.stderr


@pytest.mark.parametrize("flag, value", [("--lr", "1e200"),
                                         ("--margin", "1e308")])
def test_diverging_divide_prints_one_line(flag, value, toy_files, tmp_path):
    """numpy's overflow warnings stay quiet: the run's own error is all."""
    done = fresh_python("import sys\nfrom ontodivide.cli import main\n"
                        "sys.exit(main(sys.argv[1:]))\n",
                        "divide", *map(str, toy_files), "-n", "2",
                        "--epochs", "2", "-o", str(tmp_path / "out"),
                        flag, value)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


class TestStats:
    def test_python_dash_m(self, toy_files):
        src_dir = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        done = subprocess.run(
            [sys.executable, "-m", "ontodivide", "stats", *map(str, toy_files)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "|Sig(O1)| = 32" in done.stdout
        assert "|Sig(O2)| = 34" in done.stdout

    def test_toy_pair(self, toy_files, capsys):
        src, tgt = toy_files
        assert main(["stats", str(src), str(tgt)]) == 0
        out = capsys.readouterr().out
        assert "|Sig(O1)| = 32" in out
        assert "|Sig(O2)| = 34" in out
        assert f"cartesian product = {32 * 34}" in out

    def test_table1_candidate_count_matches_hand_count(self, tmp_path,
                                                       capsys):
        import conftest
        src = tmp_path / "o1.ofn"
        tgt = tmp_path / "o2.ofn"
        src.write_text(conftest.TABLE1_O1)
        tgt.write_text(conftest.TABLE1_O2)
        assert main(["stats", str(src), str(tgt)]) == 0
        out = capsys.readouterr().out
        # hand count over the index rows: the disorder rows give
        # 2x1 (dedup with 1x1), the basaloid/carcinoma rows give
        # 1x2 + 2x3 (dedup), the follicular rows 1x1; total distinct = 8
        assert "candidate mappings = 8" in out

    def test_byte_order_mark_accepted(self, toy_files, tmp_path, capsys):
        src, tgt = toy_files
        bom = tmp_path / "bom.ofn"
        bom.write_text("\ufeff" + src.read_text(encoding="utf-8"),
                       encoding="utf-8")
        assert main(["stats", str(bom), str(tgt)]) == 0
        assert "|Sig(O1)| = 32" in capsys.readouterr().out

    def test_empty_ontology_is_user_error(self, tmp_path, capsys):
        src = tmp_path / "empty.ofn"
        src.write_text("Ontology(<http://x.org/empty>\n)\n")
        other = tmp_path / "o2.ofn"
        other.write_text("Declaration(Class(:A))")
        assert main(["stats", str(src), str(other)]) == 1
        assert "empty signature" in capsys.readouterr().err

    def test_deep_nesting_is_one_error_line(self, toy_files, tmp_path,
                                            capsys):
        expr = ":B"
        for _ in range(1000):
            expr = f"ObjectIntersectionOf(:A {expr})"
        deep = tmp_path / "deep.ofn"
        deep.write_text(f"SubClassOf(:A {expr})\n")
        _, tgt = toy_files
        assert main(["stats", str(deep), str(tgt)]) == 1
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == \
            ["error: class expression nested deeper than 100 "
             "(line 1, column 2415)"]  # 14 + 100 * 24 + 1
        assert "Traceback" not in err
