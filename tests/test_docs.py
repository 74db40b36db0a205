"""The examples in csskit's docstrings run as written."""

import doctest
import importlib
import pkgutil

import csskit


def test_docstring_examples():
    attempted = 0
    for info in pkgutil.iter_modules(csskit.__path__, "csskit."):
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, f"{result.failed} of {result.attempted} examples in {info.name} failed"
        attempted += result.attempted
    assert attempted > 0  # a check that runs no example checks nothing
