"""python -m ooc2d: the command line front end of ooc2d.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
