"""Start-up that every ``eds`` call pays before its main loop.

Run in a fresh interpreter by ``run.py``, which times the whole process:

    python bench/setup_probe.py bench/fixtures/37.json

It imports ``edskit.cli``, loads the curve file and builds the exceptional
set and the minimality report as the command line does (no ``--guard``,
no ``--extra-s``), then prints the interpreter's integer-to-string digit
limit for the benchmark's environment stamp.
"""

import sys

import edskit.cli as cli
from edskit.curve import minimality_report
from edskit.valuation import build_exceptional_set

E, P = cli.load_curve_file(sys.argv[1])
build_exceptional_set(E, P, include_guard=False)
minimality_report(E)
print(getattr(sys, "get_int_max_str_digits", lambda: 0)())
