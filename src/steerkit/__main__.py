"""``python -m steerkit``: the ``steerkit`` command line."""
import sys

from .cli import main

sys.exit(main())
