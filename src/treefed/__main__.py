"""`python -m treefed`: the treefed command line without an installed script."""

import sys

from .cli import main

sys.exit(main())
