"""Committed SHA-256 digests of the output bits, and how they are taken.

A change that alters what `divide` writes must update these digests in
the same commit, and say so.  Nothing here imports pytest or the
package, so the installed-wheel CI job can check a division it wrote:

    python -B -c "import sys; sys.path.insert(0, 'tests'); \\
        from digests import division_digest, TOY; \\
        assert division_digest('division') == TOY[2]"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# the packaged toy pair, divided with `DivisionConfig()` (the CLI's
# defaults), by n
TOY = {
    1: "4e53f81b2c3fdaf27cb491ac9b8e12ae"
        "f5fbe810db4fb3ce5f36e8bd474077b5",
    2: "d8c06f5c8e01493be90f3cb2e94ccf7a"
        "508e035a8a452351acf9839319a79494",
    4: "67c83592cc24c7d0d138822129a7e1ac"
        "d676b1203d6fcf358d5e89d89a7ef156",
}
# the toy pair at n=2 with TOY_CAPPED_CONFIG, whose learning rate drives the
# embedding rows onto the norm cap, so that `embedding._MAX_NORM` shows
TOY_CAPPED_CONFIG = {"learning_rate": 20.0, "epochs": 1}
TOY_CAPPED = ("fb6edab7524934b4e5770de6a57626f9"
              "ef5c0d8da4416436acfb6bea8fadc0e1")

# the benchmark's `smoke` pair at generator seed SMOKE_SEED, divided with
# the workload's config: the division by n, its k-means labels by n, and
# its entry vectors
SMOKE_SEED = 3
SMOKE = {
    2: "6dc1ed2e891164c8b80859bf02bb1c47"
        "ae350b92e0a8d363f452fc1201740ad2",
    3: "38281331b8b6df0135a1798aae6e17b4"
        "8fde394b62eea483ab55388e526493f3",
}
SMOKE_LABELS = {
    2: "86f0521f6137d805acd1a9f82b675120"
        "e3626c2ff00b96fddf944c4548c66277",
    3: "f4cfe3e82975e4335a278f665bf6f529"
        "9e12f78390ce5d6e25dd8ff16a1e7eaf",
}
SMOKE_VECTORS = ("9db3e6d9b09a3277caa687ed2d4484d3"
                 "769190719e6c2912a37cd75dd4e74f6f")


def division_digest(root) -> str:
    """SHA-256 over every file of the division directory `root`, in sorted
    path order, each as its path, its length and its bytes; `division.json`
    without its `provenance`, which names the package and numpy versions."""
    root = Path(root)
    files = {p.relative_to(root).as_posix(): p
             for p in root.rglob("*") if p.is_file()}
    h = hashlib.sha256()
    for name in sorted(files):
        data = files[name].read_bytes()
        if name == "division.json":
            meta = json.loads(data)
            del meta["provenance"]
            data = (json.dumps(meta, indent=2, sort_keys=True)
                    + "\n").encode("utf-8")
        h.update(b"%s\0%d\0" % (name.encode("utf-8"), len(data)))
        h.update(data)
    return h.hexdigest()


def array_digest(a) -> str:
    """SHA-256 of a numpy array's dtype, shape and C-order bytes."""
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode("ascii"))
    h.update(a.tobytes(order="C"))
    return h.hexdigest()
