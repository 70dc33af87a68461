"""The package's public surface."""

import slicemarket


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from slicemarket import *", namespace)
    assert len(set(slicemarket.__all__)) == len(slicemarket.__all__)
    assert set(slicemarket.__all__) <= set(namespace)
