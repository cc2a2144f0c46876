"""Set-up probe, run as a fresh process: import opttree, then the warm-up calls.

    python3 perfbench/probe.py <src dir> '<JSON list of CLI argument lists>'

The parent times this whole process; that is the fixed cost every CLI call
pays before its first instance.
"""

import contextlib
import io
import json
import sys

sys.path.insert(0, sys.argv[1])

import opttree.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    codes = [opttree.cli.main(argv) for argv in json.loads(sys.argv[2])]
sys.exit(0 if not any(codes) else 1)
