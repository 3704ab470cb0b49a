"""``python -m tomoslice``: the command line front end of :mod:`tomoslice.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
