"""Counted work: the Python calls into `condmeasure` that a call makes.

Growth contracts pin a path's complexity by this count rather than by a
clock, because the count does not move with machine load.
"""

import sys
from pathlib import Path

import condmeasure

PACKAGE = str(Path(condmeasure.__file__).parent)


def condmeasure_calls(fn):
    """The number of Python calls into `condmeasure` made by ``fn()``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count
