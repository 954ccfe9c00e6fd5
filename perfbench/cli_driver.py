"""Run one ``arctangr`` CLI command with spans, for the traced benchmark run.

    python perfbench/cli_driver.py --spans FILE -- <arctangr arguments>
    python perfbench/cli_driver.py --import-only FILE

The first form does what ``python -m arctangr <arguments>`` does, timing
``import arctangr.cli`` and ``arctangr.cli.main(argv)`` as two spans.  The
second times ``import arctangr`` alone and counts the ``sys.modules``
entries it adds.  Either way the record goes to FILE as JSON; the command's
stdout and ``--out`` file are untouched.  Only ``sys`` and ``time`` are
imported before the measured import, so the counts are the program's own.
"""

import sys
import time


def main() -> int:
    args = sys.argv[1:]
    if args[:1] == ["--import-only"]:
        before = set(sys.modules)
        t0 = time.perf_counter()
        import arctangr  # noqa: F401

        t1 = time.perf_counter()
        added = set(sys.modules) - before
        record = {
            "spans": [["import", t0, t1]],
            "modules": len(added),
            "scipy_modules": sum(m == "scipy" or m.startswith("scipy.") for m in added),
        }
        code = 0
        path = args[1]
    else:
        path, argv = args[1], args[3:]
        t0 = time.perf_counter()
        import arctangr.cli

        t1 = time.perf_counter()
        code = arctangr.cli.main(argv)
        t2 = time.perf_counter()
        record = {"spans": [["import", t0, t1], ["cli.main", t1, t2]]}
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
