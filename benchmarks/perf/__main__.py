"""``python -m benchmarks.perf`` runs :func:`benchmarks.perf.run.main`."""

import sys

from benchmarks.perf.run import main

sys.exit(main())
