"""Regenerate ``references.json``: the expected fig4 digest of each seed.

Usage, from the root of a checkout:

    python3 perfbench/references.py 20190408 0 1 2

Makes one fig4 invocation per seed (``child.py`` on two worker processes,
no cache) and stores its digest if the paper shape holds and no backend
degraded.  Seeds already in the file are recomputed.  Rerun it only for a
change that is meant to alter the fig4 result.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, Runner


def main() -> int:
    seeds = [int(seed) for seed in sys.argv[1:]]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path.cwd()
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=work_root))
    try:
        for seed in seeds:
            runner = Runner(root, workdir, seed)
            out, problem = runner.spawn(None, "--backend", "process", "--jobs", "2")
            if out is None or not out["paper_shape"] or out["degradations"]:
                print(f"seed {seed}: no reference ({problem or out})", file=sys.stderr)
                continue
            references[str(seed)] = out["digest"]
            print(f"seed {seed}: {out['digest']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
