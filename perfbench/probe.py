"""Fresh-process probes, run by ``run.py`` as subprocesses.

``probe.py setup WORKLOAD INPUTS WORKDIR`` times one workload set-up in a
fresh interpreter: from ``import repro`` to ready (store opened and the
archive ingested, engine built, every query prepared once).  The inputs
are read from the JSON file before the clock starts, so input generation
is excluded.  ``probe.py import`` times ``import repro.cli``.  Each prints
its time in seconds as the last line of standard output.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path


def main(argv) -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(here))
    if argv[0] == "import":
        start = time.perf_counter()
        import repro.cli  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    name, inputs_path, workdir = argv[1:4]
    inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import repro  # noqa: F401
    from workloads import SETUPS

    state = SETUPS[name](inputs, workdir)
    elapsed = time.perf_counter() - start
    if "store" in state:
        state["store"].close()
    shutil.rmtree(workdir, ignore_errors=True)
    print(elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
