"""The package's public names and its docstring example."""

import ast
import textwrap

import ldgimex


def test_every_exported_name_resolves():
    missing = [name for name in ldgimex.__all__
               if not hasattr(ldgimex, name)]
    assert not missing


def _example(doc):
    """The indented block after 'Typical use::', dedented."""
    code = []
    for line in doc.split('Typical use::\n', 1)[1].splitlines():
        if line and not line.startswith('    '):
            break
        code.append(line)
    return textwrap.dedent('\n'.join(code))


def test_the_package_docstring_example_runs(capsys):
    # it prints the (L1, L2, Linf) errors of treated heat1d at N = 40 and
    # T = 5: L2 4.17e-9
    exec(compile(_example(ldgimex.__doc__), 'ldgimex example', 'exec'), {})
    l1, l2, linf = ast.literal_eval(capsys.readouterr().out.strip())
    assert 0.0 < l2 < 1e-8 and linf < 1e-7, (l1, l2, linf)
