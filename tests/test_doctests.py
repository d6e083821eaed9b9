"""Runs the `>>>` examples in the docstrings of every parhom module."""

import doctest
import importlib
import pkgutil

import pytest

import parhom

MODULES = ["parhom"] + sorted(m.name for m in pkgutil.iter_modules(parhom.__path__, "parhom."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_examples_are_found():
    """A module whose examples stop being collected would pass silently."""
    counts = {name: doctest.testmod(importlib.import_module(name)).attempted
              for name in ("parhom.dynkin", "parhom.connectivity", "parhom.rootweyl",
                           "parhom.geometry", "parhom.report")}
    assert counts == {"parhom.dynkin": 4, "parhom.connectivity": 5, "parhom.rootweyl": 6,
                      "parhom.geometry": 2, "parhom.report": 2}
