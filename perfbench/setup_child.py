"""Set-up probe: a fresh process imports numpy and egc128, builds one
workload and makes its warm-up call, then prints 'ready'.

run.py times this process from spawn to the 'ready' line (setup_s).

    python3 perfbench/setup_child.py zero-scan
"""

import os
import shutil
import sys

from locate import WORK, require_package

require_package()

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    work_dir = WORK / f"setup-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[sys.argv[1]](work_dir).warm_up()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("ready", flush=True)
