"""Record the exact integer outputs of every workload for the recorded seeds.

    python3 perfbench/record_reference.py

Runs one pass of each workload per seed in ``run.RECORDED_SEEDS`` through
the CLI, checks it against the oracle, and writes a digest of the ``exact`` part of each command's
summary to ``perfbench/reference.json``. A later run with a recorded seed
must match it exactly, so the file pins the outputs of the commit it was
recorded on.
"""

from __future__ import annotations

import json
import sys

import run  # sets up paths and BLAS pinning before numpy loads

import check
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import spreadbias.cli as cli

    recorded: dict = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in run.RECORDED_SEEDS:
            games = workloads.generate(workload.shape, seed)
            runner = run.Runner(workload, seed, run.WORK_DIR / "record",
                                check.expect(workload, games, seed), None)
            runner.input.parent.mkdir(parents=True, exist_ok=True)
            workloads.write_csv(games, runner.input)
            runner.run_pass(cli.main, full_check=True)
            if runner.failed:
                print(f"{name} seed {seed}: {runner.problems}", file=sys.stderr)
                return 1
            # The pass matched the oracle exactly, so its digest is the CLI's.
            recorded.setdefault(name, {})[str(seed)] = {
                command: check.exact_digest(summary)
                for command, summary in runner.expected.items()
            }
            print(f"{name} seed {seed}: ok", flush=True)

    path = run.HERE / "reference.json"
    path.write_text(json.dumps({"workloads": recorded}, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
