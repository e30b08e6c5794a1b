"""Setuptools shim.

The execution environment is offline and its setuptools (65.5) lacks the
``wheel`` package that PEP 660 editable installs require, so ``pip install
-e .`` falls back to this legacy path (``setup.py develop``). The project
declares no packaging metadata anywhere (there is no pyproject.toml, and
setup.cfg holds only pytest settings): setuptools' automatic discovery
finds the ``repro`` package under ``src/`` and names the distribution
``UNKNOWN`` 0.0.0. Tests, examples and benchmarks run from the source tree
with ``PYTHONPATH=src`` and need no install.
"""

from setuptools import setup

setup()
