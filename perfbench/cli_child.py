"""Run one `mve` CLI command and record where its wall time went.

Usage: python3 cli_child.py TIMINGS.json mve-args...

The `mve` arguments run exactly as `python -m mve` would run them; stdout
and the exit code pass through. TIMINGS.json receives the time spent
importing `mve.cli`, running the command, and inside `load_engine` and
`Engine.search` during it. `PYTHONPATH` must point at the engine sources.
"""

import json
import sys
import time


def main() -> int:
    started = time.perf_counter()
    timings_path, argv = sys.argv[1], sys.argv[2:]
    import mve.cli
    import mve.engine

    imported = time.perf_counter()
    spent = {"load_s": 0.0, "search_s": 0.0}

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            begin = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - begin

        return wrapper

    mve.cli.load_engine = timed("load_s", mve.cli.load_engine)
    mve.engine.Engine.search = timed("search_s", mve.engine.Engine.search)
    code = mve.cli.run(argv)
    sys.stdout.flush()
    finished = time.perf_counter()
    with open(timings_path, "w", encoding="utf-8") as out:
        json.dump({"import_s": imported - started, "run_s": finished - imported, **spent}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
