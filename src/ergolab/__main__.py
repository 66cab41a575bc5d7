"""``python -m ergolab``: the command-line runner of :mod:`ergolab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
