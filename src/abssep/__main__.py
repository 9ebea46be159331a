"""``python -m abssep``: the command-line interface of abssep.cli."""

import sys

from .cli import main

sys.exit(main())
