"""``python -m sgperturb.cli``: the console entry point.

The CLI is a package so that ``import sgperturb`` (which imports
:mod:`sgperturb.cli` for :func:`validate_report`) leaves only a package in
``sys.modules``; runpy then executes this file once as ``__main__`` instead
of running the CLI module body a second time.
"""

import sys

from . import main

sys.exit(main())
