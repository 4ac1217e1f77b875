"""Records the headline values that the benchmark checks job outputs against.

    python3 perfbench/make_references.py

Runs every job with a reference, at both sizes and under every parameter set
a seed can pick, once, and writes perfbench/references.json. Run it only for
a change that is meant to alter those values, and say so with the change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import Runner, import_smoothcode  # noqa: E402


def main() -> None:
    pkg = import_smoothcode()
    work = HERE.parent / ".bench_work" / "references"
    refs = {}
    try:
        for workload, sets in (("mixture_series", workloads.MIXTURE_PARAMS),
                               ("product_codes", workloads.PRODUCT_PARAMS)):
            for size in workloads.SIZES:
                for index in range(len(sets)):
                    shutil.rmtree(work, ignore_errors=True)
                    workloads.write_inputs(workload, 0, size, work, params=index)
                    runner = Runner(pkg, work, {})
                    for job in runner.jobs:
                        _, _, result, problems = runner.run_job(job)
                        if result is not None and not problems:
                            problems, headline = runner.check_output(job, result)
                        if problems:
                            raise SystemExit(f"{job}: {problems}")
                        refs[job["ref"]] = headline
                        print(job["ref"], headline)
                    runner.checks.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
