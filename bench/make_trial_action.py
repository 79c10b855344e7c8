"""Make the trial-action file that the sections-2d workload reads.

    python3 bench/make_trial_action.py

Runs the coupled-2d workload's ``qaction fit`` step through the command line,
as the benchmark does, and writes its ``fit.json`` to
``bench/data/coupled_fit.json``. Rerun it whenever the fit's inputs or the
fit itself change, so the file never drifts into a hand-kept copy.
"""
from __future__ import annotations

import shutil
import sys

import run
import workloads


def main() -> int:
    if not (run.ROOT / "src" / "qaction" / "cli.py").is_file():
        print(f"no qaction sources under {run.ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    (step,) = [s for s in workloads.coupled_2d() if s.name == "coupled-fit"]
    work = run.OUT / "make_trial_action"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (run.OUT / "tmp").mkdir(exist_ok=True)
    records = run.run_round([step], work, trace=False, workers=run.host_workers())
    problems = run.check_round(records, seed=0)
    if records[0]["exit"] != 0 or problems:
        print(f"the fit failed (exit {records[0]['exit']}): {problems}; see {work}", file=sys.stderr)
        return 1
    target = run.ROOT / workloads.TRIAL_ACTION_FILE
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(records[0]["out"] / "fit.json", target)
    print(f"wrote {target.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
