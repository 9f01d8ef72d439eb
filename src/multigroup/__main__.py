"""``python -m multigroup``: the same command line as the ``multigroup`` script."""

import sys

from .cli import main

sys.exit(main())
