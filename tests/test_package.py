"""Tests for the package's exports."""

import types

import spreadbent


def test_every_exported_name_resolves():
    assert len(set(spreadbent.__all__)) == len(spreadbent.__all__)
    for name in spreadbent.__all__:
        assert hasattr(spreadbent, name), name


def test_every_public_name_is_exported():
    # submodules are bound as a side effect of importing them
    public = {name for name, value in vars(spreadbent).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(spreadbent.__all__), public - set(spreadbent.__all__)
