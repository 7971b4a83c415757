"""The report of a ``dvfsflow run`` directory, and its static SVG figures.

:func:`write_report` is one loop over the runs.  It reads a run's files, keeps
its row, its first frame rates and what the figures draw of it, and drops its
log and batches before the next run's reads.  Each per-run statistic is declared
once, as a name and a function of a run's log and regret trace in
:data:`COLUMNS`, which fills the ``per_run`` rows, the per-method medians and
the ``metrics.csv`` columns.  Each number that compares two methods comes from
:func:`_early_fps_gain`, over their common seeds.
Hand-rolled SVG keeps the library dependency-free; the charts are meant for
quick report viewing, not publication.
"""

from __future__ import annotations

import json
import math
import os
from typing import Optional, Sequence

import numpy as np

from .config import config_from_dict
from .errors import ConfigurationError, DomainError, InsufficientDataError
from .evalkit import (corr_gap, corr_gap_excluded_count, early_fps_gain, empirical_regret,
                      median, pearson_matrix, qvalue_stability, wasserstein1)
from .files import load_finite_batch, runlog_from_csv, write_json
from .flow import TRANSITION_LABELS
from .orchestrate import METHODS, regret_oracle


def _heat_color(value: float) -> str:
    """Blue (-1) through white (0) to red (+1); gray for NaN."""
    if not np.isfinite(value):
        return "#bbbbbb"
    v = max(-1.0, min(1.0, value))
    if v >= 0:
        g = int(round(255 * (1 - v)))
        return f"#ff{g:02x}{g:02x}"
    g = int(round(255 * (1 + v)))
    return f"#{g:02x}{g:02x}ff"


def _write_svg(path: str, width: int, height: int, title_x: int, title: str,
               body: list[str]) -> None:
    """Write an SVG: the header, the title at (title_x, 20), then ``body``'s elements."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'font-family="monospace" font-size="11">',
            f'<text x="{title_x}" y="20" font-size="14">{title}</text>', *body, "</svg>"]))


def svg_heatmap(matrix: np.ndarray, labels: Sequence[str], path: str,
                title: str = "") -> None:
    """Write a correlation heatmap (values expected in [-1, 1], NaN allowed)."""
    m = np.asarray(matrix, dtype=np.float64)
    d = m.shape[0]
    cell, margin, top = 34, 110, 40
    width = margin + d * cell + 20
    height = top + d * cell + margin
    parts = []
    for i in range(d):
        for j in range(d):
            x, y = margin + j * cell, top + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(m[i, j])}" stroke="#fff"/>')
            if np.isfinite(m[i, j]):
                parts.append(
                    f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" '
                    f'text-anchor="middle" font-size="8">{m[i, j]:+.2f}</text>')
    for i, lab in enumerate(labels):
        parts.append(f'<text x="{margin - 6}" y="{top + i * cell + cell / 2 + 4}" '
                     f'text-anchor="end">{lab}</text>')
        x = margin + i * cell + cell / 2
        y = top + d * cell + 10
        parts.append(f'<text x="{x}" y="{y}" text-anchor="end" '
                     f'transform="rotate(-60 {x} {y})">{lab}</text>')
    _write_svg(path, width, height, margin, title, parts)


_LINE_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]


def svg_lines(series: dict[str, Sequence[float]], path: str, title: str = "",
              ylabel: str = "") -> None:
    """Write a 640 x 360 line chart of one or more series, each non-empty and
    finite: a polyline per series, or a dot for a one-point series."""
    width, height, left, right, top, bottom = 640, 360, 60, 150, 40, 40
    plot_w, plot_h = width - left - right, height - top - bottom
    values = [v for vals in series.values() for v in vals]
    lo, hi = min(values), max(values)
    if math.isclose(lo, hi):
        lo, hi = lo - 1.0, hi + 1.0
    n_max = max(len(v) for v in series.values())

    def sx(i: float) -> float:
        return left + plot_w * (i / max(1, n_max - 1))

    def sy(v: float) -> float:
        return top + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>',
        f'<text x="12" y="{top + plot_h / 2}" transform="rotate(-90 12 '
        f'{top + plot_h / 2})" text-anchor="middle">{ylabel}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        parts.append(f'<text x="{left - 6}" y="{sy(v) + 4}" text-anchor="end">'
                     f'{v:.3g}</text>')
        parts.append(f'<line x1="{left}" y1="{sy(v)}" x2="{left + plot_w}" '
                     f'y2="{sy(v)}" stroke="#ddd"/>')
    for idx, (name, vals) in enumerate(series.items()):
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        points = [f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(vals)]
        if len(points) == 1:
            x, y = points[0].split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="2" fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{" ".join(points)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16 * idx
        parts.append(f'<line x1="{width - right + 10}" y1="{ly}" '
                     f'x2="{width - right + 34}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - right + 40}" y="{ly + 4}">{name}</text>')
    _write_svg(path, width, height, left, title, parts)


# ---------------------------------------------------------------- report

def _correlations(batch: np.ndarray) -> Optional[np.ndarray]:
    """The Pearson matrix of a batch, or None for a batch of fewer than 2 rows."""
    return pearson_matrix(batch) if len(batch) >= 2 else None


def eval_batches(real: np.ndarray, synth: np.ndarray) -> dict:
    """Correlation gap, per-feature W1 and spread ratios of a synthetic batch
    against real rows.  A real column has zero variance when all its values are
    equal (the NaN diagonal of its Pearson matrix); it is listed in
    ``zero_variance_real``, left out of the gap, and its ``std_ratio`` is None.
    A batch of fewer than 2 rows has no correlations, so ``corr_gap`` and
    ``corr_excluded_entries`` are None then, and one real row has no spread in
    any column."""
    m_real, m_synth = _correlations(real), _correlations(synth)
    paired = m_real is not None and m_synth is not None
    zero = np.isnan(np.diag(m_real)) if m_real is not None else np.ones(real.shape[1], bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(zero, np.nan, synth.std(axis=0) / real.std(axis=0))
    return {
        "corr_gap": corr_gap(m_real, m_synth) if paired else None,
        "corr_excluded_entries": corr_gap_excluded_count(m_real, m_synth) if paired else None,
        "zero_variance_real": [lab for lab, z in zip(TRANSITION_LABELS, zero) if z],
        "per_feature_w1": {lab: wasserstein1(real[:, i], synth[:, i])
                           for i, lab in enumerate(TRANSITION_LABELS)},
        "std_ratio": {lab: (None if not np.isfinite(r) else float(r))
                      for lab, r in zip(TRANSITION_LABELS, ratio)},
        "n_real": int(real.shape[0]),
        "n_synth": int(synth.shape[0]),
    }


def _stability(log, regret) -> Optional[float]:
    try:
        return qvalue_stability(log)
    except InsufficientDataError:       # a run too short to estimate it
        return None


# per-run statistics, each a name and a function of (run log, regret trace): in
# this order they fill the per_run rows, the per-method medians and metrics.csv
COLUMNS = (
    ("mean_fps", lambda log, regret: float(np.mean([s.fps for s in log.states]))),
    ("mean_reward", lambda log, regret: float(np.mean(log.rewards))),
    ("qvalue_stability", _stability),
    ("final_regret", lambda log, regret: float(regret[-1])),
)

# early_fps_gain compares at most this many first steps of two runs
_GAIN_WINDOW = 50

# line figures of each method's run on runs[0]'s seed: file, title, y-label, series
_LINE_FIGURES = (
    ("fps.svg", "frame rate per step", "fps", lambda log, regret: [s.fps for s in log.states]),
    ("max_q.svg", "max Q at visited state", "max Q", lambda log, regret: log.max_q),
    ("regret.svg", "cumulative empirical regret", "regret", lambda log, regret: regret.tolist()),
)


def _load_manifest(path: str) -> dict:
    """A run's manifest; a parse error, a missing key, a mistyped value or a config
    that fails validation raises DomainError naming it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"manifest parse error in {path} at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from None

    def need(obj, where: str, *keys) -> dict:
        for key in keys:
            if not (isinstance(obj, dict) and key in obj):
                raise DomainError(f"manifest {path}: {where} has no key {key!r}")
        return obj
    runs = need(manifest, "the root", "config", "runs")["runs"]
    if not (isinstance(runs, list) and runs):
        raise DomainError(f"manifest {path}: 'runs' must be a non-empty list")
    seen: dict[tuple[str, int], int] = {}       # (method, seed): its first index
    for i, run in enumerate(runs):
        files = need(need(run, f"runs[{i}]", "method", "seed", "files")["files"],
                     f"runs[{i}].files", "runlog", "real")
        method, seed = run["method"], run["seed"]
        if not (isinstance(method, str) and method in METHODS):
            raise DomainError(f"manifest {path}: runs[{i}].method must be one of "
                              f"{', '.join(METHODS)}, got {method!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise DomainError(f"manifest {path}: runs[{i}].seed must be an integer, "
                              f"got {seed!r}")
        for key in ("runlog", "real", "synth"):
            name = files.get(key)
            if not (isinstance(name, str) or (key == "synth" and name is None)):
                raise DomainError(f"manifest {path}: runs[{i}].files.{key} must be a file "
                                  f"name{' or null' if key == 'synth' else ''}, got {name!r}")
        first = seen.setdefault((method, seed), i)
        if first != i:
            raise DomainError(f"manifest {path}: runs[{i}] repeats runs[{first}]: "
                              f"method {method!r}, seed {seed}")
    try:
        config_from_dict(manifest["config"])
    except ConfigurationError as exc:
        raise DomainError(f"manifest {path}: config: {exc}") from None
    return manifest


def _medians(rows: list[dict]) -> dict:
    """Each method's median of each column, and of corr_gap if it has a synthetic
    batch, over its runs where the value is not None."""
    def of(values: list) -> Optional[float]:
        present = [v for v in values if v is not None]
        return median(present) if present else None
    medians: dict[str, dict] = {}
    for method in sorted({row["method"] for row in rows}):
        own = [row for row in rows if row["method"] == method]
        medians[method] = {name: of([row[name] for row in own]) for name, _ in COLUMNS}
        evals = [row["eval"] for row in own if "eval" in row]
        if evals:
            medians[method]["corr_gap"] = of([e["corr_gap"] for e in evals])
    return medians


def _early_fps_gain(heads: dict[tuple[str, int], list], a: str, b: str) -> dict:
    """early_fps_gain of method ``a`` over ``b`` on each seed both ran, from the
    first frame rates ``heads`` holds for each (method, seed), over the first
    steps all those runs have (at most _GAIN_WINDOW); empty without one."""
    seeds = sorted(s for m, s in heads if m == a and (b, s) in heads)
    if not seeds:
        return {}
    window = min(len(heads[(m, s)]) for m in (a, b) for s in seeds)
    vals = [early_fps_gain(heads[(a, s)], heads[(b, s)], window=window) for s in seeds]
    return {"window": window, "per_seed": vals, "median": median(vals)}


def write_report(run_dir: str) -> str:
    """Write the report of the ``dvfsflow run`` directory ``run_dir``; return its path."""
    manifest = _load_manifest(os.path.join(run_dir, "manifest.json"))
    runs = manifest["runs"]
    oracle = regret_oracle(config_from_dict(manifest["config"]).env)  # _load_manifest checked it
    per_run, heads = [], {}     # each run's row; (method, seed): its first frame rates
    # what the figures draw of each method's run on runs[0]'s seed: its series of
    # each line figure, and the (file name, rows, correlations) of its synthetic batch
    lines, synth_maps = {}, {}
    for entry in runs:
        method, seed, files = entry["method"], entry["seed"], entry["files"]
        path = os.path.join(run_dir, files["runlog"])
        log = runlog_from_csv(path, method, seed)
        try:
            regret = empirical_regret(log, oracle)
        except DomainError as exc:      # a state the reward is not defined on
            raise DomainError(f"{path}: {exc}") from None
        row = {"method": method, "seed": seed,
               **{name: stat(log, regret) for name, stat in COLUMNS}}
        real, synth = load_finite_batch(os.path.join(run_dir, files["real"])), None
        if files.get("synth"):
            synth = load_finite_batch(os.path.join(run_dir, files["synth"]))
            row["eval"] = eval_batches(real, synth)
        per_run.append(row)
        heads[(method, seed)] = [s.fps for s in log.states[:_GAIN_WINDOW]]
        if seed == runs[0]["seed"]:
            lines[method] = {figure: series(log, regret) for figure, *_, series in _LINE_FIGURES}
            if synth is not None:
                synth_maps[method] = (files["synth"], len(synth), _correlations(synth))
        if entry is runs[0]:
            real_map = (files["real"], len(real), _correlations(real))
        del log, regret, real, synth    # before the next run's reads: one run at a time
    # a batch of one row has no correlations, so its heatmap is skipped and listed
    heatmaps = [(f"corr_{m}.svg", f"synthetic correlations: {m}", synth_maps[m])
                for m in sorted(synth_maps)]
    heatmaps.append(("corr_real.svg", "real-data correlations", real_map))
    # every file is read and checked before report/ exists, so a failed report leaves none
    report_dir = os.path.join(run_dir, "report")
    os.makedirs(report_dir, exist_ok=True)
    skipped = []
    for figure, title, (name, n_rows, matrix) in heatmaps:
        if matrix is None:
            skipped.append({"figure": figure, "reason": f"{name} holds {n_rows} row(s); "
                                                        "correlations need at least 2"})
            continue
        svg_heatmap(matrix, TRANSITION_LABELS, os.path.join(report_dir, figure), title=title)
    for figure, title, ylabel, _ in _LINE_FIGURES:
        svg_lines({m: lines[m][figure] for m in sorted(lines)},
                  os.path.join(report_dir, figure), title=title, ylabel=ylabel)

    payload = {"per_run": per_run, "medians": _medians(per_run),
               "early_fps_gain": _early_fps_gain(heads, "dfm", "model_free")}
    if skipped:
        payload["skipped_figures"] = skipped
    write_json(payload, os.path.join(report_dir, "report.json"))
    # None is an empty cell, and a float its str, which is its repr
    names = ["method", "seed", *(name for name, _ in COLUMNS)]
    cells = [names + ["corr_gap"]] + [[row[k] for k in names] + [
        row.get("eval", {}).get("corr_gap")] for row in per_run]
    with open(os.path.join(report_dir, "metrics.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join("" if v is None else str(v) for v in line) + "\n"
                      for line in cells)
    return report_dir
