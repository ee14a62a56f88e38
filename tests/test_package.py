import ast
from pathlib import Path

import copytag


def _imported_names() -> set[str]:
    """Every name copytag/__init__.py binds with `from .module import ...`."""
    tree = ast.parse(Path(copytag.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


class TestExports:
    def test_every_exported_name_exists(self):
        assert [name for name in copytag.__all__ if not hasattr(copytag, name)] == []

    def test_every_public_import_is_exported(self):
        public = {name for name in _imported_names() if not name.startswith("_")}
        assert public
        assert sorted(public - set(copytag.__all__)) == []
