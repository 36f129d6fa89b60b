"""Package surface: every exported name resolves."""

import sliceproj


def test_all_names_resolve():
    assert len(set(sliceproj.__all__)) == len(sliceproj.__all__)
    for name in sliceproj.__all__:
        assert getattr(sliceproj, name, None) is not None, name
