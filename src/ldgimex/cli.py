"""Command-line front end: convergence studies, efficiency timings, singles.

Exit codes: 0 on success, 1 on configuration errors (bad flags, bad config
file, unknown problem), 2 on numeric failures (divergence, non-finite
solution).
"""

import argparse
import sys

from .harness import (NumericFailure, RunConfig, efficiency_csv,
                      run_convergence, run_efficiency, run_single)
from .treatment import ALGORITHMS


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, '%s: error: %s\n' % (self.prog, message))


def _add_common(sub):
    sub.add_argument('--config', metavar='FILE',
                     help='key = value file supplying defaults; '
                          'flags override')
    sub.add_argument('--problem',
                     help='heat1d | burgers1d | heat2d | heat1d_o4')
    sub.add_argument('--tableau', choices=['ark3', 'ark4'],
                     help='time scheme (default: the problem\'s own)')
    sub.add_argument('--bc', choices=['naive', 'treated'],
                     help='boundary handling (default treated)')
    sub.add_argument('--alg', choices=sorted(ALGORITHMS),
                     help='treatment variant: alg1 anchors corrections at '
                          'the step start, alg2 per stage (default)')
    sub.add_argument('--cfl', type=float,
                     help='step-size factor, tau = cfl * min cell width')
    sub.add_argument('--T', type=float, help='final time override')


def build_parser():
    ap = _Parser(prog='artifact',
                 description='LDG + IMEX-RK solver for convection-diffusion'
                             '-reaction problems with high-order treatment '
                             'of time-dependent Dirichlet boundaries.')
    subs = ap.add_subparsers(dest='command', required=True)

    conv = subs.add_parser('convergence',
                           help='errors and orders over a mesh ladder')
    _add_common(conv)
    conv.add_argument('--levels', help='comma-separated cell counts, '
                                       'e.g. 5,10,20,40')
    conv.add_argument('--out', help='CSV output path')

    eff = subs.add_parser('efficiency',
                          help='naive vs treated wall time per level')
    _add_common(eff)
    eff.add_argument('--levels', help='comma-separated cell counts')
    eff.add_argument('--out', help='CSV output path')
    eff.add_argument('--repeats', type=int,
                     help='timed pairs per level (default 3)')

    single = subs.add_parser('single',
                             help='one run with an error-profile dump')
    _add_common(single)
    single.add_argument('--n', type=int, help='cell count')
    single.add_argument('--profile', help='per-node error profile CSV path')
    single.add_argument('--trace',
                        help='per-stage boundary-value trace CSV path '
                             '(treated mode)')
    # a config file may set exactly the subcommand's own flags
    for sub in (conv, eff, single):
        sub.set_defaults(file_keys={
            a.dest: a.type or str for a in sub._actions
            if a.option_strings and a.dest not in ('help', 'config')})
    return ap


def _read_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith('#'):
                    continue
                if '=' not in line:
                    raise ValueError("%s:%d: expected 'key = value', got %r"
                                     % (path, lineno, raw.rstrip()))
                key, _, val = line.partition('=')
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise ValueError("cannot read config file: %s" % exc) from exc
    return values


def _merge(args):
    """Effective option dict: CLI flags override config-file entries."""
    keys = args.file_keys
    merged = {}
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in keys:
                raise ValueError("unknown config key %r" % key)
            try:
                merged[key] = keys[key](val)
            except ValueError:
                raise ValueError("config key %r: bad value %r" % (key, val))
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    return merged


def _parse_levels(spec):
    if spec is None:
        raise ValueError("--levels is required (e.g. --levels 5,10,20,40)")
    if isinstance(spec, str):
        try:
            return [int(tok) for tok in spec.split(',') if tok.strip()]
        except ValueError:
            raise ValueError("bad --levels %r" % spec)
    return list(spec)


# the options that RunConfig takes, by flag
_RUN_CONFIG_ARGS = {'tableau': 'tableau', 'bc': 'bc_mode', 'alg': 'algorithm',
                    'cfl': 'cfl', 'T': 'T', 'out': 'out', 'trace': 'trace',
                    'repeats': 'repeats'}


def _build_config(opts, levels):
    given = {arg: opts[key] for key, arg in _RUN_CONFIG_ARGS.items()
             if key in opts}
    return RunConfig(opts.get('problem') or _missing('problem'), levels,
                     **given)


def _missing(key):
    raise ValueError("--%s is required" % key)


def _cmd_convergence(opts):
    config = _build_config(opts, _parse_levels(opts.get('levels')))
    report = run_convergence(config)
    sys.stdout.write(report.to_csv())
    if config.out:
        print("# wrote %s" % config.out, file=sys.stderr)
    return 0


def _cmd_efficiency(opts):
    config = _build_config(opts, _parse_levels(opts.get('levels')))
    rows = run_efficiency(config)
    sys.stdout.write(efficiency_csv(rows))
    worst = max(r['overhead'] for r in rows if r['overhead'] is not None)
    print("# worst treated/naive ratio: %.3f" % worst, file=sys.stderr)
    if config.out:
        print("# wrote %s" % config.out, file=sys.stderr)
    return 0


def _cmd_single(opts):
    n = opts.get('n')
    if n is None:
        raise ValueError("--n is required")
    config = _build_config(opts, [n])
    res = run_single(config, profile=opts.get('profile'))
    growth = 'none' if res['growth'] is None else '%.6e' % res['growth']
    if res['errors'] is not None:
        e1, e2, einf = res['errors']
        print("N=%d l1=%.6e l2=%.6e linf=%.6e steps=%d growth=%s"
              % (n, e1, e2, einf, res['steps'], growth))
    else:
        print("N=%d steps=%d growth=%s (no exact solution; profile vs naive "
              "reference)" % (n, res['steps'], growth))
    print("max/interior-median error ratio: %.3f" % res['ratio'])
    if res['profile']:
        print("# wrote %s" % res['profile'], file=sys.stderr)
    return 0


_COMMANDS = {
    'convergence': _cmd_convergence,
    'efficiency': _cmd_efficiency,
    'single': _cmd_single,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        opts = _merge(args)
        return _COMMANDS[args.command](opts)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
