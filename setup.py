"""Setuptools shim.

The execution environment is offline and its setuptools (65.5) lacks the
``wheel`` package that PEP 660 editable installs require, so ``pip install
-e .`` falls back to this legacy path (``setup.py develop``). Every piece
of packaging metadata lives in ``setup.cfg``: the distribution ``repro``,
its version read from ``repro.__version__``, and the package tree under
``src/``. Check it offline with ``python setup.py --name --version``.
Tests, examples and benchmarks run from the source tree with
``PYTHONPATH=src`` and need no install.
"""

from setuptools import setup

setup()
