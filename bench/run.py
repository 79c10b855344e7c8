"""Benchmark of the ``qaction`` command line on three workloads.

    python3 bench/run.py --workload pipeline-1d --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout: the program is imported from
``src/`` as it stands, nothing is installed. Each command of a workload runs
in a fresh process, as a user runs it, with ``--workers`` set to the host's
CPU count. A run repeats whole rounds of its workload's commands until
``--seconds`` have passed (at least one round), checks every output against
references computed in ``checks.py``, and prints one JSON object as its last
line of output.

With ``--trace 0`` the metrics are the end-to-end ones: the median set-up
time of a fresh ``import qaction.cli`` process, the wall time of a round's
command sequence, and the peak resident set of any command process, pool
workers included. With ``--trace 1`` every command runs under
``tracer.py`` with ``--workers 1`` and the metrics are the per-layer ones,
named ``<module>.<metric>``. Outputs and traces go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / "bench" / "out"
SETUP_SPAWNS = 8
# wall time of the workload's command processes is summed into these, by command
COMMAND_METRICS = {"propagate": "propagate_s", "fit": "fit_s", "analytic": "analytic_s", "poincare": "poincare_s"}
BVP_CLASSES = {(1, False): "bvp_1d_cold_us", (1, True): "bvp_1d_warm_us",
               (2, False): "bvp_2d_cold_us", (2, True): "bvp_2d_warm_us"}
SMALL_DENSE_NODES = 2048  # largest 2-D grid that propagator.spectral_decompose solves densely
# per-layer metric names and units, as BENCHMARK.json declares them
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}


def host_workers() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def spawn(argv: list, log: Path) -> dict:
    """Run one process to its end: wall and CPU seconds, exit code, peak RSS.

    CPU time and peak resident set include the process's own children, such
    as the fit's pool workers, since it waits for them before it exits.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "exit": proc.returncode,
            "rss": usage.ru_maxrss / 1024.0}


def setup_spawn(log: Path) -> float:
    """Wall time of a fresh process that only imports the CLI."""
    rec = spawn([sys.executable, "-c", "import qaction.cli"], log)
    if rec["exit"] != 0:
        raise SystemExit(f"cannot import qaction.cli from {ROOT / 'src'}: see {log}")
    return rec["wall"]


def run_round(steps: list, round_dir: Path, trace: bool, workers: int, setup_times: list = None) -> list:
    """Run every step once, in order; one record per step.

    With ``setup_times`` given, set-up spawns are made before each step and
    their times appended, so that they sample the whole round.
    """
    records = []
    per_step = -(-SETUP_SPAWNS // len(steps))
    for step in steps:
        if setup_times is not None:
            setup_times += [setup_spawn(round_dir / "setup.log") for _ in range(per_step)]
        out = round_dir / step.name
        cfg_path = round_dir / f"{step.name}.json"
        cfg_path.write_text(json.dumps(step.config, indent=1))
        args = [step.command, "--config", str(cfg_path), "--out", str(out), "--workers", str(workers)]
        trace_path = round_dir / f"{step.name}.trace.json"
        if trace:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path)] + args
        else:
            argv = [sys.executable, "-m", "qaction.cli"] + args
        rec = spawn(argv, round_dir / f"{step.name}.log")
        rec.update(step=step, out=out, trace=trace_path if trace else None)
        records.append(rec)
    return records


def check_round(records: list, seed: int) -> list:
    """Messages of the checks that failed."""
    problems = []
    for rec in records:
        try:
            checks.check_step(rec["step"], rec["out"], rec["exit"], seed)
        except (checks.CheckError, OSError, KeyError, IndexError, ValueError) as exc:
            # an output too malformed to read fails its check as well
            problems.append(f"{rec['step'].name}: {type(exc).__name__}: {exc}")
    return problems


def _kept(records: list) -> list:
    """Records whose time and memory count: all but the kept failing operation."""
    return [r for r in records if r["step"].expect_exit == 0]


def end_to_end(rounds: list) -> dict:
    """Sums over the steps of each step's median over rounds, and the peak RSS."""
    kept = [_kept(records) for records in rounds]
    metrics = {"total_s": 0.0, "cpu_s": 0.0}
    for i, rec in enumerate(kept[0]):
        wall = statistics.median(records[i]["wall"] for records in kept)
        metrics["total_s"] += wall
        metrics["cpu_s"] += statistics.median(records[i]["cpu"] for records in kept)
        name = COMMAND_METRICS[rec["step"].command]
        metrics[name] = metrics.get(name, 0.0) + wall
    metrics["peak_rss_mb"] = max(r["rss"] for records in kept for r in records)
    return metrics


def _self_times(spans: list) -> list:
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][4]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def per_layer(records: list) -> dict:
    """Per-layer metrics of one traced round (the kept failing operation excluded)."""
    m = {k: 0 if unit in ("count", "bytes") else 0.0 for k, unit in PER_LAYER_UNITS.items()}
    bvp_times = {k: [] for k in BVP_CLASSES.values()}
    fits = 0
    bvp_in_fits = 0
    for rec in _kept(records):
        if not rec["trace"].exists():  # the command died before writing its trace
            continue
        data = json.loads(rec["trace"].read_text())
        spans = data["spans"]
        own = _self_times(spans)
        for counter, value in data["counters"].items():
            m[counter] += value
        for i, (name, layer, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            parent_name = spans[parent][0] if parent is not None else None
            if name == "spectral_decompose":
                if attrs["dim"] == 1:
                    m["propagator.decompose_1d_s"] += dur
                elif attrs["size"] <= SMALL_DENSE_NODES:
                    m["propagator.decompose_2d_small_s"] += dur
                else:
                    m["propagator.decompose_2d_large_s"] += dur
                m["propagator.decompose_calls"] += 1
                m["propagator.states_solved"] += attrs["k"]
            elif name == "discretize_hamiltonian":
                m["propagator.hamiltonian_s"] += dur
            elif name == "euclidean_propagate":
                m["propagator.assembly_s"] += own[i]
            elif name == "solve_euclidean_bvp":
                m["trajectory.bvp_calls"] += 1
                m["trajectory.bvp_unconverged"] += not attrs["converged"]
                m["trajectory.bvp_s"] += dur
                bvp_times[BVP_CLASSES[(attrs["dim"], attrs["warm"])]].append(dur * 1e6)
                bvp_in_fits += _has_ancestor(spans, i, "fit_quantum_action")
            elif name == "fit_quantum_action":
                fits += 1
                m["qfit.fit_s"] += dur
            elif name in ("ground_state_from_quantum_action", "ground_state_spectral"):
                m["asymptotics.ground_state_s"] += dur
            elif name == "invert_transformation_law":
                m["asymptotics.inversion_s"] += dur
            elif name == "wkb_compare":
                m["asymptotics.wkb_s"] += dur
            elif name == "transformation_law_residual":
                m["asymptotics.law_residual_calls"] += 1
            elif name == "section_initial_conditions":
                m["chaos.initial_conditions_s"] += dur
            elif name == "generate_section":
                m["chaos.section_s"] += dur
                m["chaos.crossings"] += attrs["crossings"]
            elif name in ("compare_sections", "section_occupancy", "orbit_thickness") and parent_name == "main":
                m["chaos.compare_s"] += dur
            if layer == "qfit":
                m["qfit.self_s"] += own[i]
            elif layer == "cli":
                m["cli.self_s"] += own[i]
        if rec["exit"] != 0:  # already counted in failed; it may have left no outputs
            continue
        if rec["step"].command == "fit":
            fit = checks.read_json(rec["out"] / "fit.json")
            m["qfit.iterations"] += fit["iterations"]
            m["qfit.failed_pairs"] += len(fit["failed_pairs"])
        m["cli.output_bytes"] += sum(p.stat().st_size for p in rec["out"].iterdir())
    for key, times in bvp_times.items():
        m[f"trajectory.{key}"] = statistics.median(times) if times else 0.0
    m["qfit.bvp_per_fit"] = bvp_in_fits / fits if fits else 0.0
    if m["chaos.section_s"] > 0.0:
        m["chaos.crossings_per_s"] = m["chaos.crossings"] / m["chaos.section_s"]
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, workers: int) -> dict:
    steps = workloads.WORKLOADS[name](seed)
    base = OUT / name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    setup_times = None if trace else []
    rounds = []
    problems = []
    failed_steps = set()
    measured = 0.0
    while True:
        round_dir = base / f"round{len(rounds)}"
        round_dir.mkdir()
        records = run_round(steps, round_dir, trace, 1 if trace else workers,
                            setup_times if not rounds else None)
        problems += check_round(records, seed)
        failed_steps.update(r["step"].name for r in records if r["exit"] != 0)
        rounds.append(records)
        last = sum(r["wall"] for r in records)
        measured += last
        if measured + last > seconds:  # the next round would not fit
            break
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    if trace:
        layers = [per_layer(records) for records in rounds]
        summary = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER_UNITS}
        metrics = {k: {"value": summary[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
    else:
        summary = end_to_end(rounds)
        for k in COMMAND_METRICS.values():
            if k in summary:
                print(f"{name} {k} {summary[k]:.4f} s")
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "total_s": {"value": summary["total_s"], "unit": "s"},
            "cpu_s": {"value": summary["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    for k, v in metrics.items():
        print(f"{name} {k} {v['value']:.6g} {v['unit']}")
    result = {
        "correct": not problems,
        # distinct operations, so that the counts do not move with the number of rounds
        "attempted": len(steps),
        "failed": len(failed_steps),
        "metrics": metrics,
    }
    steps_log = [{r["step"].name: {k: r[k] for k in ("wall", "cpu", "exit", "rss")} for r in records}
                 for records in rounds]
    (base / "result.json").write_text(json.dumps({"rounds": steps_log, "problems": problems, **result}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="Poincare start_index (default 1)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="command time to fill with whole rounds (default 36, the run length of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workers", type=int, default=host_workers(),
                        help="--workers of untraced commands (default: CPU count)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (it is the Poincare start_index)")
    if not (ROOT / "src" / "qaction" / "cli.py").is_file():
        print(f"no qaction sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.workers)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": results[names[0]]["metrics"] if len(names) == 1 else {
            f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
