"""One cold operation in a fresh interpreter, for the set-up measurement.

    python3 perfbench/cold.py '<argv as a JSON list>'

Imports micz9 from the checkout's ``src``, runs ``micz9.cli.main(argv)``
once with every lazily filled table still empty, and prints one JSON line:
the import time, the operation's time, its exit code and a digest of its
standard output.  The parent times the whole span from spawning this
process to reading that line.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    argv = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from micz9 import cli

    t1 = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    t2 = time.perf_counter()
    result = {
        "import_s": t1 - t0,
        "op_s": t2 - t1,
        "rc": rc,
        "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
