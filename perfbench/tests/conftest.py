import sys

from perfbench.run import SRC

if SRC not in sys.path:
    sys.path.insert(0, SRC)
