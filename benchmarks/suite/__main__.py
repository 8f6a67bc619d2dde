import sys

from benchmarks.suite.run import entry

sys.exit(entry())
