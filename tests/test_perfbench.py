"""The benchmark's self-test passes against the package in `src/`.

It runs the traced stage-by-stage pass (`build_lexi`, `train_embeddings`,
`entry_vectors`, `kmeans`, `clusters_to_entries`, ...) and checks that it
gives the same division as `divide`, so it pins the stage API the
benchmark calls.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
