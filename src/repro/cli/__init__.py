"""Command line interface (the demo GUI's library equivalent).

Parallelism comes from work packages on worker processes, and nothing in
``repro`` calls a BLAS routine, so numpy's OpenBLAS thread pool only
spins: it adds CPU time and no speed. The CLI pins it to one thread
before anything imports numpy (the engine does, in the commands that
generate; ``extract`` never does). A value already in the environment wins,
and worker processes inherit the setting. ``import repro`` alone leaves
the environment untouched.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cli.main import build_parser, main  # noqa: E402

__all__ = ["build_parser", "main"]
