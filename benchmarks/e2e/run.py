"""Entry point the driver runs: ``python3 benchmarks/e2e/run.py ...``.

Puts the checkout's root (for ``benchmarks.e2e``) and its ``src``
directory (for ``repro``, the program under test) on the import path,
then hands over to :mod:`benchmarks.e2e.cli`. In a directory that holds
only the benchmark there is no ``src``, the import fails, and the exit
code is non-zero, which is what the driver expects there.
"""

import os
import sys


def bootstrap_path() -> None:
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    for path in (os.path.join(root, "src"), root):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    bootstrap_path()
    from benchmarks.e2e.cli import main

    sys.exit(main())
