"""The package's public names: what __init__ imports is what it exports."""

import ast
import os
import re
import subprocess
import sys

import qbrion


def imported_names():
    """Every name bound by a `from ... import` statement in qbrion/__init__.py."""
    with open(qbrion.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_all_resolves_and_lists_every_import():
    # a removed function cannot leave a stale export or a silent import behind
    assert len(set(qbrion.__all__)) == len(qbrion.__all__)
    for name in qbrion.__all__:
        assert getattr(qbrion, name) is not None, name
    assert sorted(qbrion.__all__) == sorted(imported_names())


def test_readme_names_every_public_name():
    # a public name cannot be added without a word in the README
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    missing = [name for name in qbrion.__all__ if not re.search(r"\b%s\b" % name, readme)]
    assert missing == []


def test_the_library_imports_without_numpy():
    # the float Gaussian model is plain Python; numpy is a test dependency
    # only, so a fresh interpreter that imports the package and its CLI
    # never loads it
    src = os.path.dirname(os.path.dirname(qbrion.__file__))
    code = "import sys, qbrion, qbrion.cli; assert 'numpy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
