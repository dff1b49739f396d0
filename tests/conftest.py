"""Let the tests run from a source checkout without installing the package.

pyproject.toml puts src/ on sys.path for the test process; the CLI tests
that start `python -m oscdeform` in a subprocess need it on PYTHONPATH.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
