"""``python -m tourney``: the tourney command, as the installed script."""

import sys

from .cli import main

sys.exit(main())
