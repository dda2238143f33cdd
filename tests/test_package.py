import types

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
