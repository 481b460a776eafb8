"""Check that the relabeling case split equals the every-datum kernel walk for every root with f <= 9.

Compares certificate._case_split(rd) with helpers.kernel_case_split(rd) by
keys, insertion order, edges and sizes, for all 3 066 roots at p in {2, 3, 5}
(about 3 s).  The tests do the same up to f = 8; this covers f = 9 too.
Run from the repository root:

    PYTHONPATH=src python tests/check_case_split.py

Prints one line and exits 0 when every table is equal, 1 at the first that is not.
"""

from __future__ import annotations

import sys
import time

from gocert import certificate
from gocert.oracle import all_ramifications
from helpers import kernel_case_split

MAX_F, PRIMES = 9, (2, 3, 5)


def main() -> int:
    started, roots = time.perf_counter(), 0
    for p in PRIMES:
        for rd in all_ramifications(MAX_F, p):
            if list(certificate._case_split(rd).items()) != list(kernel_case_split(rd).items()):
                print(f"FAIL the case split of {rd} differs from the kernel walk")
                return 1
            roots += 1
    scope = f"f<={MAX_F} p in {','.join(map(str, PRIMES))}"
    print(f"PASS {roots} case splits equal the kernel walk ({scope}, {time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
