"""One fresh greenlab process: set up, optionally run the scenario, report timings.

Usage: python3 child.py SCENARIO OUT_DIR RESULT_JSON [--setup-only] [--trace SPANS_JSON]

The parent passes the source tree on PYTHONPATH and records the monotonic
clock just before it starts this process; ``ready`` below closes the set-up
interval (interpreter start, ``import greenlab``, ``load_scenario`` and
``build_context``).  CLOCK_MONOTONIC is system-wide on Linux, so the two
processes' readings are comparable.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    scenario, out_dir, result_path = argv[:3]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import greenlab.cli as cli

    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cli.build_context(cli.load_scenario(scenario))
    result = {"ready": time.monotonic()}
    if not setup_only:
        import numpy
        import scipy

        if tracer:
            tracer.run = "run"
        t0 = time.perf_counter()
        code = cli.run(scenario, out_dir)
        result.update(run_s=time.perf_counter() - t0, exit_code=code,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      versions={"python": sys.version.split()[0],
                                "numpy": numpy.__version__, "scipy": scipy.__version__})
    if tracer:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "lu_nnz": tracer.lu_nnz}, fh,
                      separators=(",", ":"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
