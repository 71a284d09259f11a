"""``python -m hopfcalc``: the same command line as the ``hopfcalc`` entry point."""

from .cli import main

raise SystemExit(main())
