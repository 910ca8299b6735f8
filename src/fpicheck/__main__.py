"""``python -m fpicheck``: the command-line interface of ``fpicheck.cli``."""

import sys

from .cli import main

sys.exit(main())
