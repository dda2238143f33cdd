import ast
import types
from pathlib import Path

import torustwist


def test_all_lists_each_public_name_once_and_only_those():
    names = torustwist.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(torustwist, name), name
    public = {name for name, value in vars(torustwist).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def test_the_package_has_no_assert_statement():
    # invariant checks must hold under python -O, so they raise instead
    modules = sorted(Path(torustwist.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert asserts == [], (path.name, asserts)
