#!/usr/bin/env python3
"""Runs a command and prints the host resources it and its children used.

gprof's flat profile samples only the program's own code: it does not see
time spent in libc (memcpy, malloc) or in the kernel (page faults, mmap).
For a simulator that moves real bytes those can be most of the wall time,
so this wrapper reports what getrusage(RUSAGE_CHILDREN) saw for the whole
process tree once the command exits:

    wall_s        elapsed wall-clock seconds
    user_s        CPU seconds in user mode (includes libc)
    sys_s         CPU seconds in the kernel (page faults, mmap, munmap)
    minor_faults  page faults served without I/O (first touch of memory)
    major_faults  page faults that needed I/O
    max_rss_MiB   peak resident set of the largest process in the tree

The command's own stdout and stderr pass through unchanged; the summary
goes to stderr, one `name value` pair per line, after the command exits.
The counts include the spawn itself: running `true` reports about 6k minor
faults and a max RSS of about 14 MiB (the wrapper's own, which the child
shares until exec), so read small differences against that floor.

Usage: host_rusage.py <cmd> [args...]
Example:
    python3 tools/host_rusage.py .bench_build/perfbench \\
        --workload table2_local --seed 1999 --seconds 1 --trace 0
Exit status: the command's own.
"""

import resource
import subprocess
import sys
import time


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    start = time.monotonic()
    code = subprocess.call(argv)
    wall = time.monotonic() - start
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Linux reports ru_maxrss in KiB.
    rows = [
        ("wall_s", f"{wall:.3f}"),
        ("user_s", f"{ru.ru_utime:.3f}"),
        ("sys_s", f"{ru.ru_stime:.3f}"),
        ("minor_faults", str(ru.ru_minflt)),
        ("major_faults", str(ru.ru_majflt)),
        ("max_rss_MiB", f"{ru.ru_maxrss / 1024:.1f}"),
    ]
    for name, value in rows:
        print(f"{name} {value}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
