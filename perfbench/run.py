"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload tpch-nulls --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``./src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  Outputs are checked on every op; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = Path.cwd() / "src"


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in declared["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {SOURCE}; run from a checkout root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import common  # noqa: E402  (needs the paths above)

    calibration_before = common.calibration_loop()
    work = Path(tempfile.mkdtemp(prefix="run-", dir=_work_root()))
    try:
        if args.workload == "serve-index":
            import serve_ops

            summary = serve_ops.run(
                args.seed, args.seconds, bool(args.trace), work, SOURCE
            )
        else:
            import tpch_ops

            summary = tpch_ops.run(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
            summary["e2e"]["peak_rss_mb"] = common.peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calibration_after = common.calibration_loop()

    for line in summary["lines"]:
        print(line)
    for problem in summary["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(
        f"calibration loop: {calibration_before:.4f} s before, "
        f"{calibration_after:.4f} s after"
    )
    if args.trace:
        # Layers off this workload's path read 0; traced.* are this run's
        # end-to-end figures, to set beside an untraced run's.
        values = dict(summary["per_layer"])
        for name in ("compare_s", "ingest_ms", "search_ms"):
            values[f"traced.{name}"] = summary["e2e"][name]
        metrics = {
            m["name"]: common.metric(values.get(m["name"], 0.0), m["unit"])
            for m in declared["per_layer"]
        }
        for name, metric in metrics.items():
            print(f"  {name:30s} {metric['value']:14.4f} {metric['unit']}")
        print(
            "tracing overhead: the traced.* figures are the end-to-end "
            "metrics of this traced run; compare them with an untraced run "
            f"(decomposition calls ran beside each op, "
            f"{summary['trace_s']:.2f} s in all)"
        )
    else:
        metrics = {
            m["name"]: common.metric(summary["e2e"][m["name"]], m["unit"])
            for m in declared["end_to_end"]
        }
    common.emit(
        correct=not summary["problems"],
        attempted=summary["attempted"],
        failed=summary["failed"],
        metrics=metrics,
    )
    return 0


def _work_root() -> Path:
    """Scratch space inside the checkout (listed in .gitignore)."""
    root = Path.cwd() / ".perfbench-work"
    root.mkdir(exist_ok=True)
    return root


if __name__ == "__main__":
    sys.exit(main())
