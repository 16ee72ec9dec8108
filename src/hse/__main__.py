"""``python -m hse``: the command-line interface of ``hse.cli``."""

import sys

from .cli import main

sys.exit(main())
