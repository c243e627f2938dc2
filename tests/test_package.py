"""Tests for the package's export list and the README example that uses it."""

from pathlib import Path

import cover_census

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_library_section_matches_exports():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    for name in cover_census.__all__:
        assert f"`{name}`" in section, name
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {"__name__": "readme_library"})
