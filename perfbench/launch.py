"""Run `coinvarr` and record its peak RSS: python3 perfbench/launch.py PEAK_OUT ARGS...

This does what `python -m coinvarr.cli ARGS` does. At exit it also writes
VmHWM from /proc/self/status, in kB, to PEAK_OUT: the peak resident set of
this process image. ru_maxrss from wait4 cannot stand in for it. At exec,
Linux folds the spawning process's peak into the child's ru_maxrss, so
ru_maxrss reads the benchmark's own memory whenever that is the larger one.
"""

import atexit
import runpy
import sys


def write_peak(path):
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kb + "\n")


if __name__ == "__main__":
    atexit.register(write_peak, sys.argv[1])
    sys.argv = ["coinvarr"] + sys.argv[2:]
    runpy.run_module("coinvarr.cli", run_name="__main__", alter_sys=True)
