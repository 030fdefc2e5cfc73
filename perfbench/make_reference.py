"""Write reference.json: the (L1, L2, Linf) errors of every benchmark run.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \
        python3 perfbench/make_reference.py > perfbench/reference.json

The stored file was made at commit 6514b19.  Regenerating it at a later
commit would turn the one-sided correctness check into a check against that
commit, so do so only when a change to the numerics is intended and stated.
"""

import json
import sys

import bench


def main():
    runs = sorted({run for runs in bench.WORKLOADS.values() for run in runs})
    errors = {}
    for problem, n, mode in runs:
        rec = bench.run_one(problem, n, mode, bench.Tracer(), False, {})
        if rec['errors'] is None:
            sys.exit('%s failed:\n%s' % (bench.ref_key(problem, n, mode),
                                         rec['failure']))
        errors[bench.ref_key(problem, n, mode)] = rec['errors']
    json.dump({'commit': bench.git_commit(bench.ROOT), 'T': bench.T_FINAL,
               'errors': errors}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write('\n')


if __name__ == '__main__':
    main()
