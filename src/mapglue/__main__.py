"""``python -m mapglue``: the command-line interface of :mod:`mapglue.cli`."""

from .cli import main

raise SystemExit(main())
