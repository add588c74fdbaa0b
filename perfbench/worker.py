"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB.json holds the commands' argv lists and whether to trace. The worker
imports upqgrowth from the checkout's src/ (never an installed copy), runs
each command through upqgrowth.cli.run with stdout and stderr captured, and
writes every exit code, output, error, wall time and CPU speed sample
(speed.py) to RESULT.json, along with the moment the CLI was ready and the
process's peak RSS.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_cli():
    """Import upqgrowth.cli from ROOT/src and return it."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import upqgrowth.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"upqgrowth imported from {cli.__file__}, not {src}")
    return cli


def run_commands(run, commands, on_command=None, meter=None) -> list:
    """Run each argv through run(); an exception fails that command only.

    With a speed.Speedometer, each result also carries the command's "cal",
    and its time leaves out the meter's samples.
    """
    import contextlib
    import io

    results = []
    for i, argv in enumerate(commands):
        if on_command:
            on_command(i)
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), (
            meter or contextlib.nullcontext()
        ):
            t0 = time.perf_counter()
            try:
                code = run(argv)
            except Exception as e:  # counted as a failed command, the pass goes on
                error = f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
        results.append(
            {
                "code": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "error": error,
                "seconds": seconds - (meter.inside if meter else 0.0),
                "cal": meter.cal() if meter else None,
            }
        )
    return results


def main() -> None:
    cli = load_cli()
    ready = time.monotonic()

    import json
    import resource

    import speed

    setup_cal = sum(speed.probe() for _ in range(10)) / 10

    job_path, result_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace_path"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    results = run_commands(
        # looked up per call, so a traced cli.run is the one that runs
        lambda argv: cli.run(argv),
        job["commands"],
        tracer.begin_command if tracer else None,
        speed.Speedometer(),
    )
    report = {
        "ready": ready,
        "setup_cal": setup_cal,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer:
        tracer.end_command()
        report["trace"] = tracer.summary()
        tracer.write(job["trace_path"])
    with open(result_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
