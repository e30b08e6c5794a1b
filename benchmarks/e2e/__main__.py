"""``python -m benchmarks.e2e`` (from the repository root, ``src`` importable)."""

import sys

from benchmarks.e2e.run import bootstrap_path

bootstrap_path()

from benchmarks.e2e.cli import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main())
