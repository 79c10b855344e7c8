"""Batch command-line front end: JSON configs in, plot-ready data files out.

Four subcommands cover the pipeline. ``propagate`` tabulates Euclidean
amplitudes and the spectrum behind them, ``fit`` calibrates a trial action
against such a table (single T or a whole T schedule), ``analytic`` emits
the large-T closed forms (ground state, transformation-law residual, WKB
report, hydrogen table), and ``poincare`` generates surface-of-section
data for the classical action and, when a fit result is supplied, for the
fitted action, plus a comparison report.

Every run is a pure function of its config file: fixed iteration orders,
no randomness, no wall clock, so reruns are bitwise identical. Files are
written to a temporary name and renamed into place, and all results of a
command are computed before the first file is written, so a failing run
leaves no partial output. Exit codes: 0 success, 2 config error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import NumericalError
from .model import ActionSpec, _as_integer, _as_number

if TYPE_CHECKING:
    from .propagator import Grid


class ConfigError(ValueError):
    """Config file violates the published schema."""


def _expect(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _get(cfg: dict, key: str, kind, default=KeyError, where: str = "config"):
    """cfg[key], which must be of type ``kind`` unless that is None."""
    if key not in cfg:
        if default is KeyError:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"{where}: key '{key}' must be {kind.__name__}, got {type(val).__name__}")
    return val


def _number(cfg: dict, key: str, default=KeyError, where: str = "config") -> float:
    return _as_number(_get(cfg, key, None, default, where), f"{where}: {key}")


def _integer(cfg: dict, key: str, default=KeyError, where: str = "config") -> int:
    return _as_integer(_get(cfg, key, None, default, where), f"{where}: {key}")


def _parse_action(data, where: str, confining: bool = False) -> ActionSpec:
    _expect(isinstance(data, dict), f"{where} must be an object")
    try:
        return ActionSpec.from_json_dict(data, confining=confining)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_grid(data, where: str = "grid") -> Grid:
    from .propagator import Grid

    _expect(isinstance(data, dict), f"{where} must be an object")
    ext = _get(data, "extents", list, where=where)
    npt = _get(data, "npoints", list, where=where)
    try:
        return Grid(tuple(ext), tuple(npt))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_time(value, what: str = "T") -> float:
    T = _as_number(value, what)
    _expect(T > 0, f"{what} must be positive, got {T!r}")
    return T


def _parse_pairs(data, grid: Grid, classical: ActionSpec = None, where: str = "pairs"):
    """Boundary pairs from one of the published forms.

    "auto" picks nodes where the spectral ground state is above 1e-4 of its
    peak; {"points": [...]} takes the tensor square of explicit points;
    {"points_per_axis", "span"} snaps an even subdivision to grid nodes;
    a plain list is read as explicit [initial, final] pairs. Every form is
    refused before its list is built when it would exceed ``MAX_PAIRS``.
    """
    from .propagator import MAX_GRID_NODES, MAX_PAIRS, tensor_pairs

    if data == "auto":
        _expect(classical is not None, f"{where}: 'auto' needs a classical action")
        from .qfit import default_pairs

        return default_pairs(classical, grid)
    if isinstance(data, dict):
        if "points" in data:
            pts = _get(data, "points", list, where=where)
            _expect(len(pts) > 0, f"{where}: empty point list")
            points = [_parse_point(p, grid.dim, where) for p in pts]
            return tensor_pairs(points, points)
        count = _integer(data, "points_per_axis", where=where)
        span = _get(data, "span", list, where=where)
        _expect(2 <= count <= MAX_GRID_NODES, f"{where}: points_per_axis must lie in [2, {MAX_GRID_NODES}]")
        if len(span) == 2 and not isinstance(span[0], list):
            span = [span] * grid.dim
        _expect(
            len(span) == grid.dim and all(isinstance(s, list) and len(s) == 2 for s in span),
            f"{where}: span must be [lo, hi] (or one such pair per axis)",
        )
        spans = [tuple(_as_number(v, f"{where}: span") for v in s) for s in span]
        points = grid.subdivision_nodes(spans, count)
        pairs = tensor_pairs(points, points)
        sep = data.get("max_separation")
        if sep is not None:
            sep = _as_number(sep, f"{where}: max_separation")
            _expect(sep >= 0, f"{where}: max_separation must be >= 0, got {sep!r}")
            pairs = tuple(
                (xi, xf)
                for xi, xf in pairs
                if max(abs(a - b) for a, b in zip(xi, xf)) <= sep + 1e-12
            )
        _expect(len(pairs) > 0, f"{where}: empty pair list after filtering")
        return pairs
    _expect(isinstance(data, list), f"{where} must be 'auto', an object, or a list")
    _expect(0 < len(data) <= MAX_PAIRS, f"{where}: need 1 to {MAX_PAIRS} pairs, got {len(data)}")
    out = []
    for entry in data:
        _expect(
            isinstance(entry, list) and len(entry) == 2,
            f"{where}: each entry must be [initial, final]",
        )
        out.append((_parse_point(entry[0], grid.dim, where), _parse_point(entry[1], grid.dim, where)))
    return tuple(out)


def _parse_point(p, dim: int, where: str):
    if dim == 1 and not isinstance(p, list):
        p = [p]
    _expect(isinstance(p, list) and len(p) == dim, f"{where}: point must have {dim} coordinate(s)")
    return tuple(_as_number(v, f"{where}: a point coordinate") for v in p)


# -- output writing ----------------------------------------------------------


def _py(v):
    np = sys.modules.get("numpy")  # no numpy value exists before numpy loads
    if np is not None and isinstance(v, np.floating):
        return float(v)
    if np is not None and isinstance(v, np.integer):
        return int(v)
    return v


def _write_atomic(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_table(header, rows, fmt: str) -> tuple:
    """(file suffix, serialized table) for the requested format."""
    rows = [[_py(v) for v in row] for row in rows]
    if fmt == "json":
        return ".json", json.dumps({"header": list(header), "rows": rows}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return ".csv", buf.getvalue()


def _emit(out_dir: Path, artifacts: list):
    """Write every artifact, each atomically, only after all are rendered."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts:
        _write_atomic(out_dir / name, text)
        print(f"wrote {out_dir / name}")


def _table_artifact(stem: str, header, rows, fmt: str) -> tuple:
    suffix, text = _render_table(header, rows, fmt)
    return stem + suffix, text


def _json_artifact(name: str, payload: dict) -> tuple:
    return name, json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- commands ----------------------------------------------------------------


def cmd_propagate(cfg: dict, args) -> list:
    from .propagator import decompose_for_time, euclidean_propagate

    action = _parse_action(_get(cfg, "action", dict), "action", confining=True)
    grid = _parse_grid(_get(cfg, "grid", dict))
    _expect(grid.dim == action.dimension, "grid and action dimensions differ")
    T = _parse_time(_get(cfg, "T", None))
    pairs = _parse_pairs(_get(cfg, "pairs", None), grid, classical=action)

    table = euclidean_propagate(action, grid, T, pairs)
    spectrum = decompose_for_time(action, grid, T)
    spec_rows = [[n, e] for n, e in enumerate(spectrum.eigenvalues)]
    return [
        _table_artifact("propagator", table.csv_header(), list(table.to_rows()), args.format),
        _table_artifact("spectrum", ["n", "E"], spec_rows, args.format),
    ]


def _fit_result_payload(result) -> dict:
    payload = result.to_json_dict()
    if not result.converged:
        payload["warning"] = f"fit stopped at {result.stop} before meeting its gradient or step test"
    return payload


def cmd_fit(cfg: dict, args) -> list:
    from .propagator import euclidean_propagate
    from .qfit import (
        FLOW_CSV_HEADER,
        FitProblem,
        _normalize_ansatz,
        _normalize_n_nodes,
        fit_flow,
        fit_quantum_action,
        flow_rows,
    )

    classical = _parse_action(_get(cfg, "classical", dict), "classical", confining=True)
    grid = _parse_grid(_get(cfg, "grid", dict))
    _expect(grid.dim == classical.dimension, "grid and classical dimensions differ")
    ansatz = _normalize_ansatz(_get(cfg, "ansatz", list), classical.dimension)
    fit_mass = _get(cfg, "fit_mass", bool, default=True)
    n_nodes = _normalize_n_nodes(_get(cfg, "n_nodes", None, default=257))
    initial = cfg.get("initial")
    if initial is not None:
        initial = _parse_action(initial, "initial", confining=True)
    single = "T" in cfg
    _expect(single != ("T_list" in cfg), "exactly one of 'T' or 'T_list' is required")
    if single:
        times = [_parse_time(_get(cfg, "T", None))]
    else:
        t_list = _get(cfg, "T_list", list)
        _expect(len(t_list) >= 2, "T_list must hold at least two times")
        times = [_parse_time(t, "T_list entries") for t in t_list]
    # pairs last: "auto" solves for the ground state
    pairs = _parse_pairs(_get(cfg, "pairs", None), grid, classical=classical)

    def make_problem(t: float) -> FitProblem:
        table = euclidean_propagate(classical, grid, t, pairs)
        return FitProblem(
            classical=classical, table=table, ansatz=ansatz, fit_mass=fit_mass
        )

    if single:
        result = fit_quantum_action(make_problem(times[0]), initial=initial, n_nodes=n_nodes)
        return [_json_artifact("fit.json", _fit_result_payload(result))]

    results = fit_flow(make_problem, times, initial=initial, n_nodes=n_nodes)
    return [
        _json_artifact("fit.json", {"results": [_fit_result_payload(r) for r in results]}),
        _table_artifact("flow", FLOW_CSV_HEADER, flow_rows(results), args.format),
    ]


def cmd_analytic(cfg: dict, args) -> list:
    from .asymptotics import (
        MAX_L,
        ground_state_from_quantum_action,
        ground_state_spectral,
        hydrogen_table,
        invert_transformation_law,
        transformation_law_residual,
        transformation_law_residual_grid,
        wkb_compare,
    )

    classical = _parse_action(_get(cfg, "action", dict), "action", confining=True)
    _expect(classical.dimension == 1, "the analytic pipeline is 1-D")
    grid = _parse_grid(_get(cfg, "grid", dict))
    _expect(grid.dim == 1, "the analytic pipeline needs a 1-D grid")
    quantum = cfg.get("quantum")
    if quantum is not None:
        quantum = _parse_action(quantum, "quantum", confining=True)
    e_gr = cfg.get("e_gr")
    if e_gr is not None:
        e_gr = _as_number(e_gr, "e_gr")
    l_max = _integer(cfg, "hydrogen_l_max", default=3)
    _expect(1 <= l_max <= MAX_L, f"hydrogen_l_max must lie in [1, {MAX_L}]")

    if e_gr is None:
        e_gr = ground_state_spectral(classical, grid).energy

    if quantum is not None:
        state = ground_state_from_quantum_action(quantum, grid)
        xs = grid.axes()[0]
        # the law is singular at the nodes where V_t meets its minimum
        xs = xs[quantum.potential.evaluate_points(xs[:, None]) > quantum.potential.minimum()[1]]
        law = transformation_law_residual(classical, e_gr, quantum, xs)
        law_rows = [[float(x), float(r)] for x, r in zip(xs, law)]
    else:
        inversion = invert_transformation_law(classical, e_gr, grid)
        state = inversion.ground_state()
        lx, lr = transformation_law_residual_grid(inversion)
        law_rows = [[float(x), float(r)] for x, r in zip(lx, lr)]
    wkb = wkb_compare(classical, state, e_gr)

    gs_rows = [[float(x), float(p)] for x, p in zip(grid.axes()[0], state.psi)]
    wkb_payload = dict(asdict(wkb), ground_state_energy_used=e_gr, ground_state_source=state.source)
    return [
        _table_artifact("ground_state", ["x", "psi"], gs_rows, args.format),
        _table_artifact("transformation_law", ["x", "residual"], law_rows, args.format),
        _json_artifact("wkb.json", wkb_payload),
        _table_artifact("hydrogen", ["l", "mu", "nu", "E_l"], hydrogen_table(l_max), args.format),
    ]


def _section_artifacts(stem: str, section, fmt: str) -> tuple:
    if fmt == "gnuplot":
        # one block per orbit so plotting tools can separate them
        lines = ["# " + " ".join(section.csv_header())]
        for k, orbit in enumerate(section.orbits):
            for x, px in orbit:
                lines.append(f"{k} {float(x)!r} {float(px)!r}")
            lines.append("")
        return stem + ".dat", "\n".join(lines) + "\n"
    return _table_artifact(stem, section.csv_header(), section.to_rows(), fmt)


def cmd_poincare(cfg: dict, args) -> list:
    from .chaos import (
        SectionSpec,
        _box_counts,
        _section_summary,
        compare_sections,
        generate_section,
        section_initial_conditions,
    )

    classical = _parse_action(_get(cfg, "action", dict), "action", confining=True)
    _expect(classical.dimension == 2, "sections need a 2-D action")
    n_orbits = _integer(cfg, "n_orbits", default=12)
    fill = _number(cfg, "fill_fraction", default=0.9)
    start_index = _integer(cfg, "start_index", default=1)
    boxes = _box_counts(_get(cfg, "boxes", list, default=[48, 48]))
    plane = _get(cfg, "plane", dict, default={})
    spec = SectionSpec(
        energy=_number(cfg, "energy"),
        dt=_number(cfg, "dt", default=1e-3),
        max_crossings=_integer(cfg, "max_crossings", default=200),
        plane_axis=_integer(plane, "axis", default=1, where="plane"),
        plane_value=_number(plane, "value", default=0.0, where="plane"),
        orientation=_integer(plane, "orientation", default=1, where="plane"),
        energy_convention=_get(cfg, "energy_convention", str, default="above-minimum"),
    )

    quantum = None
    fit_path = cfg.get("fit_result")
    if fit_path is not None:
        _expect(isinstance(fit_path, str), "fit_result must be a path string")
        with open(fit_path) as fh:
            fit_data = json.load(fh)
        _expect(isinstance(fit_data, dict), "fit_result must hold a JSON object")
        quantum = _parse_action(fit_data.get("quantum"), "fit_result quantum", confining=True)
        _expect(quantum.dimension == 2, "fit_result holds a non-2-D action")

    def build(action: ActionSpec):
        ics = section_initial_conditions(action, spec, n_orbits, fill_fraction=fill, start_index=start_index)
        return generate_section(action, spec, ics)

    sec_classical = build(classical)
    artifacts = [_section_artifacts("section_classical", sec_classical, args.format)]
    if quantum is not None:
        sec_quantum = build(quantum)
        artifacts.append(_section_artifacts("section_quantum", sec_quantum, args.format))
        comparison = compare_sections(sec_classical, sec_quantum, boxes=boxes)
    else:
        comparison = _section_summary(sec_classical, boxes, "classical")
    artifacts.append(_json_artifact("comparison.json", comparison))
    return artifacts


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaction",
        description="Euclidean amplitudes, quantum-action fits, large-T "
        "closed forms, and Poincare sections from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "propagate": (cmd_propagate, "tabulate Euclidean amplitudes and the spectrum"),
        "fit": (cmd_fit, "fit a trial action to a propagator table"),
        "analytic": (cmd_analytic, "emit large-T closed-form outputs"),
        "poincare": (cmd_poincare, "generate and compare Poincare sections"),
    }
    for name, (func, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; no command uses it today")
        choices = ["csv", "json", "gnuplot"] if name == "poincare" else ["csv", "json"]
        p.add_argument("--format", choices=choices, default="csv",
                       help="table output format")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        _expect(isinstance(cfg, dict), "top-level config must be a JSON object")
        artifacts = args.func(cfg, args)
        _emit(Path(args.out), artifacts)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
