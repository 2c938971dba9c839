"""Test-session setup shared by every test module."""

import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # hypothesis caches what it learns under .hypothesis/ in the working
    # directory, even without an example database; keep it out of the tree
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mcmpl-hypothesis")
