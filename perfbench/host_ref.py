"""Fixed pure-Python work that tells how fast the host runs right now.

``run.py`` starts this program right after every measured child and scales
the child's times by how long this took.  It shares no code with the
package, so no change to the package moves it.  Its work has the package's
shape: small frozen records of tuples, validated on construction, hashed
into a set and counted in a dict, with a working set of some 20 MB.

    python3 perfbench/host_ref.py
"""

from dataclasses import dataclass

RECORDS = 40_000


@dataclass(frozen=True)
class Record:
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if any(v < 0 for v in row):
                raise ValueError(row)


def work(n):
    seen = set()
    counts = {}
    for i in range(n):
        rows = tuple(tuple((i >> (r + c)) & 3 for c in range(4)) for r in range(4))
        record = Record(rows)
        seen.add(record)
        key = sum(map(sum, record.rows))
        counts[key] = counts.get(key, 0) + 1
    return len(seen), sorted(counts.items())


if __name__ == "__main__":
    work(RECORDS)
