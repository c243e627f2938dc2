"""Tests for the package's export list."""

import cover_census


def test_all_names_resolve_once():
    names = cover_census.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(cover_census, name), name


def test_star_import_exports_exactly_all():
    namespace = {}
    exec("from cover_census import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(cover_census.__all__)
