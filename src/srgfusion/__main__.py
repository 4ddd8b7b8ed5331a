"""``python -m srgfusion``: the command-line interface of ``srgfusion.cli``."""

import sys

from .cli import main

sys.exit(main())
