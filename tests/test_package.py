"""The package's public surface."""

import vibrosim


def test_all_names_resolve():
    missing = [name for name in vibrosim.__all__
               if not hasattr(vibrosim, name)]
    assert not missing
    assert len(set(vibrosim.__all__)) == len(vibrosim.__all__)
