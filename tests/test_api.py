"""The package's public names."""

import ldgimex


def test_every_exported_name_resolves():
    missing = [name for name in ldgimex.__all__
               if not hasattr(ldgimex, name)]
    assert not missing
