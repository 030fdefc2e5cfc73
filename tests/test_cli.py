"""Command-line behavior: subcommands, config files, exit codes."""

import re

import pytest

import ldgimex.cli as cli
from ldgimex.harness import (CONVERGENCE_HEADER, EFFICIENCY_HEADER,
                             RunConfig, solve_level)

_FAST = ['--cfl', '0.5', '--T', '0.5']


def test_convergence_prints_csv(capsys):
    rc = cli.main(['convergence', '--problem', 'heat1d',
                   '--levels', '5,10'] + _FAST)
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == CONVERGENCE_HEADER
    assert len(lines) == 3
    assert lines[1].startswith('5,') and lines[2].startswith('10,')


def test_convergence_writes_file(tmp_path, capsys):
    path = tmp_path / 'conv.csv'
    rc = cli.main(['convergence', '--problem', 'heat1d', '--levels', '5',
                   '--out', str(path)] + _FAST)
    assert rc == 0
    captured = capsys.readouterr()
    assert path.read_text().splitlines()[0] == CONVERGENCE_HEADER
    assert str(path) in captured.err


def test_naive_mode_and_variant_flags(capsys):
    for extra in (['--bc', 'naive'], ['--alg', 'alg1'], ['--tableau', 'ark4']):
        rc = cli.main(['convergence', '--problem', 'heat1d',
                       '--levels', '5'] + _FAST + extra)
        assert rc == 0, extra
    capsys.readouterr()


def test_efficiency_prints_rows_and_ratio(capsys):
    rc = cli.main(['efficiency', '--problem', 'heat1d', '--levels', '5',
                   '--repeats', '1', '--cfl', '0.5', '--T', '0.2'])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == EFFICIENCY_HEADER
    assert len(lines) == 3
    assert lines[1].split(',')[1] == 'naive'
    assert lines[2].split(',')[1] == 'treated'
    assert 'worst treated/naive ratio' in captured.err


def test_single_reports_errors_and_ratio(tmp_path, capsys):
    path = tmp_path / 'prof.csv'
    rc = cli.main(['single', '--problem', 'heat1d', '--n', '8',
                   '--profile', str(path), '--cfl', '0.5', '--T', '0.2'])
    assert rc == 0
    out = capsys.readouterr().out
    assert 'N=8' in out and 'linf=' in out
    assert 'max/interior-median error ratio' in out
    assert path.exists()


def test_single_prints_the_growth_of_its_run(monkeypatch, capsys):
    # growth ends the first line, after steps=, as solve_level returns it
    # at six significant digits, and reads none without a ratio; the
    # l2=(\S+) field that CI parses stays whole
    argv = ['single', '--problem', 'heat1d', '--n', '8', '--cfl', '0.5',
            '--T', '0.2']
    assert cli.main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    growth = solve_level(RunConfig('heat1d', [8], cfl=0.5, T=0.2),
                         8)['growth']
    assert first.endswith(' growth=%.6e' % growth)
    assert re.search(r'steps=\d+ growth=', first)
    assert float(re.search(r'l2=(\S+)', first).group(1)) > 0.0
    real = cli.run_single
    monkeypatch.setattr(cli, 'run_single',
                        lambda *a, **k: dict(real(*a, **k), growth=None))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith(' growth=none')


def test_single_trace_flag(tmp_path):
    path = tmp_path / 'trace.csv'
    rc = cli.main(['single', '--problem', 'heat1d', '--n', '8',
                   '--trace', str(path), '--cfl', '0.5', '--T', '0.2'])
    assert rc == 0
    assert path.read_text().startswith("step,stage,side,x,naive,treated")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / 'study.cfg'
    cfg.write_text("# fast smoke study\n"
                   "problem = heat1d\n"
                   "levels = 5,10\n"
                   "cfl = 0.5\n"
                   "T = 0.5\n")
    rc = cli.main(['convergence', '--config', str(cfg)])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / 'study.cfg'
    cfg.write_text("problem = heat1d\nlevels = 5,10\ncfl = 0.5\nT = 0.5\n")
    rc = cli.main(['convergence', '--config', str(cfg), '--levels', '5'])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith('5,')


@pytest.mark.parametrize("content,msg", [
    ("bogus = 3\n", "unknown config key"),
    ("cfl = abc\n", "bad value"),
    ("just a line\n", "expected 'key = value'"),
])
def test_bad_config_files_exit_1(tmp_path, capsys, content, msg):
    cfg = tmp_path / 'bad.cfg'
    cfg.write_text(content)
    rc = cli.main(['convergence', '--config', str(cfg), '--levels', '5'])
    assert rc == 1
    assert msg in capsys.readouterr().err


@pytest.mark.parametrize("key", ['trace', 'n', 'repeats', 'profile'])
def test_config_file_keys_are_the_subcommands_own_flags(tmp_path, capsys,
                                                        key):
    # `convergence --trace` is refused, so `trace = ...` in its config file
    # must be too, instead of being read and silently dropped
    cfg = tmp_path / 'study.cfg'
    cfg.write_text("problem = heat1d\nlevels = 5\n%s = 1\n" % key)
    rc = cli.main(['convergence', '--config', str(cfg)])
    assert rc == 1
    assert "unknown config key %r" % key in capsys.readouterr().err


def test_single_config_file_writes_its_trace(tmp_path, capsys):
    trace = tmp_path / 't.csv'
    cfg = tmp_path / 'single.cfg'
    cfg.write_text("problem = heat1d\nn = 8\ncfl = 0.5\nT = 0.2\n"
                   "trace = %s\n" % trace)
    assert cli.main(['single', '--config', str(cfg)]) == 0
    assert trace.read_text().startswith("step,stage,side,x,naive,treated")
    capsys.readouterr()


def test_missing_config_file_exits_1(capsys):
    rc = cli.main(['convergence', '--config', '/no/such/file',
                   '--levels', '5'])
    assert rc == 1
    assert 'cannot read config file' in capsys.readouterr().err


@pytest.mark.parametrize("argv,msg", [
    (['convergence', '--levels', '5'], '--problem is required'),
    (['convergence', '--problem', 'heat1d'], '--levels is required'),
    (['convergence', '--problem', 'heat1d', '--levels', '5,x'],
     'bad --levels'),
    (['convergence', '--problem', 'heat9d', '--levels', '5'],
     'unknown problem'),
    (['convergence', '--problem', 'heat1d', '--levels', '10,5'],
     'strictly increasing'),
    (['single', '--problem', 'heat1d'], '--n is required'),
])
def test_config_errors_exit_1(capsys, argv, msg):
    rc = cli.main(argv)
    assert rc == 1
    assert msg in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    for argv in ([], ['convergence', '--bc', 'bogus'],
                 ['convergence', '--tableau', 'rk4'], ['mystery'],
                 ['convergence', '--alg', 'alg3']):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    capsys.readouterr()


def test_numeric_failure_exits_2(monkeypatch, capsys):
    def boom(config):
        raise cli.NumericFailure("level N=5 (treated) failed: blew up")

    monkeypatch.setattr(cli, 'run_convergence', boom)
    rc = cli.main(['convergence', '--problem', 'heat1d', '--levels', '5'])
    assert rc == 2
    assert 'numeric failure' in capsys.readouterr().err


def test_console_entry_point_runs():
    import os
    import subprocess
    import sys
    # the child imports ldgimex from wherever this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, '-m', 'ldgimex', 'convergence', '--problem',
         'heat1d', '--levels', '5', '--cfl', '0.5', '--T', '0.2'],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CONVERGENCE_HEADER
