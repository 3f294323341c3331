"""Times the set-up every relsim command pays, in a clean interpreter.

  python3 bench/probe.py WORKDIR

The clock starts before anything but `sys` and `time` is imported, so the
import of relsim and of everything it pulls in (numpy, json, re,
dataclasses) is inside the timed region.  Then it reads the joining terms,
WORKDIR/questions.tsv and WORKDIR/labeled.tsv, and prints the seconds.
It imports no other benchmark module.
"""

import sys
import time

t0 = time.perf_counter()

import os  # noqa: E402  (already loaded by interpreter start-up)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import relsim  # noqa: E402
from relsim import analogy, cache, index, nounmod, sweep, terms, vectors  # noqa: E402,F401

terms.default_joining_terms()
analogy.load_questions(os.path.join(sys.argv[1], "questions.tsv"))
nounmod.load_labeled_pairs(os.path.join(sys.argv[1], "labeled.tsv"))
elapsed = time.perf_counter() - t0

if not os.path.abspath(relsim.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"relsim imported from {relsim.__file__}, not from {os.path.join(ROOT, 'src')}")
print(f"{elapsed:.6f}")
