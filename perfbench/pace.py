"""The pace job: a fixed pure-Python job that measures the host's speed.

    python3 perfbench/pace.py

A shared VM runs the same program 30-40% slower for minutes at a time
when its neighbours are busy. The benchmark times this job between the
program's own runs, in a fresh interpreter each time, and scales its
timings to a host on which the job takes ``pace.reference_s``
(``config.json``). The job does the kind of work the program does:
string-keyed dicts, tuples, a sort and a suffix index over short paths,
about 67 MB at its peak. It never changes with the program, and it
exits 1 if its own result is wrong.
"""

from __future__ import annotations

import sys

#: the checksum of one run; any other value means the job went wrong
EXPECTED = 74714537


def job() -> int:
    table: dict[str, tuple[int, int, str]] = {}
    rows = []
    for i in range(150_000):
        key = f"as{i * 7919 % 1_000_003}"
        table[key] = (i, i * 3, key[::-1])
        rows.append((i % 977, key, i))
    rows.sort()
    total = 0
    for bucket, key, _ in rows:
        total += len(table[key][2]) + bucket
    index: dict[tuple[int, ...], int] = {}
    for i in range(75_000):
        path = tuple(range(i % 9, i % 9 + 6))
        for j in range(len(path)):
            index[path[j:]] = index.get(path[j:], 0) + 1
    return total + len(index) + sum(index.values())


if __name__ == "__main__":
    sys.exit(0 if job() == EXPECTED else 1)
