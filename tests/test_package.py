"""Public surface of the package."""

import homapprox


def test_every_exported_name_resolves():
    missing = [n for n in homapprox.__all__ if not hasattr(homapprox, n)]
    assert not missing
    assert len(set(homapprox.__all__)) == len(homapprox.__all__)
    namespace = {}
    exec("from homapprox import *", namespace)
    assert set(homapprox.__all__) <= set(namespace)
