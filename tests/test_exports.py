import inspect

import ptomech


def test_all_lists_each_public_name_once():
    names = ptomech.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(ptomech, name) for name in names)
    # Every name the package imports for its users, and nothing else; submodules
    # are reached as attributes and are not exports.
    public = {name for name, value in vars(ptomech).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) == public
