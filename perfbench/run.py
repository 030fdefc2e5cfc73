"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  BLAS and OpenMP are pinned to one thread
before numpy loads, and the solver is imported from the checkout's own
``src/``, never from an installed copy.  The last line of standard output is
the JSON result; see README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / 'src'


def main():
    for var in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'):
        os.environ[var] = '1'
    if not (SRC / 'ldgimex' / '__init__.py').is_file():
        print('perfbench: no solver sources at %s' % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ldgimex
    if Path(ldgimex.__file__).resolve().parent != SRC / 'ldgimex':
        print('perfbench: ldgimex imported from %s, not %s'
              % (ldgimex.__file__, SRC), file=sys.stderr)
        return 2
    import bench
    return bench.main()


if __name__ == '__main__':
    sys.exit(main())
