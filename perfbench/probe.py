"""Set-up probe: a fresh interpreter that imports retroq and builds one workload input.

Usage: ``python3 perfbench/probe.py <workload> <input file>``.  The input
file is a pickle of one in-process workload input written by ``run.py``,
or, for ``cli_session``, a POVM file in the program's JSON format.  Prints
``time.perf_counter()`` once everything is built; the clock is system-wide,
so the parent subtracts its own reading taken just before the spawn.
"""

import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, path: str) -> None:
    if workload == "cli_session":
        import retroq.cli
        retroq.cli.jsonio.load_file(path)
    else:
        import workloads
        with open(path, "rb") as fh:
            item = pickle.load(fh)
        workloads.IN_PROCESS[workload][0](item)
    print(repr(time.perf_counter()), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:3])
