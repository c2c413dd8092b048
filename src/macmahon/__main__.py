"""``python -m macmahon``: the command-line front end of :mod:`macmahon.cli`."""

import sys

from .cli import main

sys.exit(main())
