"""Entry point for ``python -m neuperm``."""

import sys

from .cli import main

sys.exit(main())
