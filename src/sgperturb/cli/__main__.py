"""``python -m sgperturb.cli``: the console entry point.

The CLI is a package so that ``import sgperturb`` (which imports
:mod:`sgperturb.cli` for :func:`validate_report`) leaves only a package in
``sys.modules``; runpy then executes this file once as ``__main__`` instead
of running the CLI module body a second time.  It ends the process through
:func:`~sgperturb.cli.console`, as the installed ``sgperturb`` script does,
so a cold run skips teardown's cyclic collections over the objects that
are alive when the run returns.
"""

import sys

from . import console

sys.exit(console())
