"""``python -m anonbridge``: the same command line as ``anonbridge``."""

import sys

from .harness.cli import main

if __name__ == "__main__":
    sys.exit(main())
