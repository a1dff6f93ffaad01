"""Setup shim for environments without the ``wheel`` package.

All real metadata lives in ``setup.cfg``; this file only enables the
legacy editable-install path (``pip install -e .``) offline.  There is
deliberately no ``pyproject.toml``: its presence forces pip into PEP 517
build isolation, which needs network access to fetch build dependencies.
"""

from setuptools import setup

setup()
