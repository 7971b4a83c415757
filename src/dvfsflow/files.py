"""The files of the CLI: CSV batches of transition rows, CSV run logs and JSON.

``run`` writes the real memory M, the last synthetic batch of M' and the run
log of each run; ``gen`` writes a batch, and ``eval`` and ``report`` read
them back.  This module alone holds their format.  A file is a header row of
the column names, then one line per row with each float as its ``repr`` and
each int as its ``str``, cells joined by commas and lines ended by CRLF.  A run
log's empty cell is a loss before the first update (None).  These are the bytes
``csv.writer`` writes for such rows; here each file is built as one string and
written at once.

A run log is parsed once by ``csv.reader`` and converted a column at a time:
one ``int``/``float`` conversion per column and one finiteness check.  Only a
file that conversion rejects walks its parsed rows again, to name the first bad
row's line.

A batch reader tries one ``np.loadtxt`` over the file's lines first.  It reads
lines, never the whole text beside them, which keeps ``report``'s peak memory
below the csv reader's.  When that pass cannot vouch for the file, the csv
parse reads it again row by row and returns its rows or raises its error, so a
file reads the same either way.  The ``np.loadtxt`` pass stands aside on:

- a line that is not exactly the header, a file without rows, and a blank
  line (``np.loadtxt`` skips one; ``csv`` reports it as a row of 0 cells);
- a line longer than ``csv.field_size_limit()``, on which ``csv`` fails;
- a character from ``\\x1c`` to ``\\x1f``: ``np.loadtxt`` strips it as white
  space around a number and ``float`` does not;
- any cell it rejects: a quoted cell, ``1_000`` (which ``float`` takes and
  ``np.loadtxt`` does not), a row of 10 or 12 cells.

Only the CLI and its report import this module, so ``import dvfsflow`` loads
neither it nor ``csv``.  ``flow.save_batch_csv``, ``flow.load_batch_csv``,
``orchestrate.runlog_to_csv`` and ``orchestrate.runlog_from_csv`` call the
functions of the same names here; they stay only because the benchmark in
``perfbench/`` imports them from there (ROADMAP item 6).
"""

from __future__ import annotations

import csv
import json
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DomainError, NumericError
from .flow import TRANSITION_DIM, TRANSITION_LABELS, check_finite
from .orchestrate import RUNLOG_COLUMNS, RunLog
from .simenv import ProcessorState

_LOSSES = ("agent_loss", "fm_loss")         # empty before the first update
_STRIPPED_BY_LOADTXT = b"\x1c\x1d\x1e\x1f"  # white space to np.loadtxt, not to float


def _write(path: str, header: list[str], rows: Iterable[Iterable[str]]) -> None:
    text = "\r\n".join([",".join(header), *map(",".join, rows)]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def write_json(payload: dict, path: str) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _records(path: str, header: list[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """Each row after ``header`` as (the line it ends on, its cells), parsed by
    ``csv.reader``; another first row raises :class:`DomainError`."""
    # universal newlines, as these files have always been read
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise DomainError(f"unexpected {what} header in {path}")
        for cells in reader:
            yield reader.line_num, cells


# ---------------------------------------------------------------- batches

def save_batch_csv(matrix: np.ndarray, path: str) -> None:
    """Write an (n, 11) batch with the canonical column header."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != TRANSITION_DIM:
        raise DomainError(f"batch must have {TRANSITION_DIM} columns")
    _write(path, TRANSITION_LABELS, (map(repr, row) for row in matrix.tolist()))


def _body(path: str) -> Optional[list[str]]:
    """The row lines of a batch file, each ending in its newline but the last
    maybe, when ``np.loadtxt`` may read them, else None."""
    with open(path, "rb") as fh:
        data = fh.read()
    if any(c in data for c in _STRIPPED_BY_LOADTXT):    # below 0x80, a byte is its character
        return None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    body = lines[1:]
    if (lines[:1] != [",".join(TRANSITION_LABELS) + "\n"] or not body or "\n" in body
            or max(map(len, body)) > csv.field_size_limit()):
        return None
    return body


def load_batch_csv(path: str) -> np.ndarray:
    """Read a batch written by :func:`save_batch_csv`.  A wrong header, a row
    without 11 cells or a cell that is not a number raises
    :class:`DomainError` naming the path and line."""
    body = _body(path)
    if body is not None:
        try:
            batch = np.loadtxt(body, dtype=np.float64, delimiter=",", comments=None,
                               quotechar=None, ndmin=2)
        except ValueError:
            pass
        else:
            if batch.shape == (len(body), TRANSITION_DIM):
                return batch
    return _parse_batch(path)


def load_finite_batch(path: str, allow_empty: bool = False) -> np.ndarray:
    """A batch CSV; a NaN/inf cell raises NumericError naming file and column(s),
    and a file without rows DomainError naming the file, unless ``allow_empty``."""
    batch = load_batch_csv(path)
    if not (len(batch) or allow_empty):
        raise DomainError(f"{path}: the batch holds no transition rows")
    check_finite(batch, path)
    return batch


def _parse_batch(path: str) -> np.ndarray:
    # the csv parse, for the files the np.loadtxt pass stands aside on
    rows = []
    for line, cells in _records(path, TRANSITION_LABELS, "column"):
        if len(cells) != TRANSITION_DIM:
            raise DomainError(f"{path} line {line}: expected "
                              f"{TRANSITION_DIM} cells, got {len(cells)}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise DomainError(f"{path} line {line}: {exc}") from None
    if not rows:
        return np.empty((0, TRANSITION_DIM))
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------- run logs

def _cell(value) -> str:
    # csv.writer's text: a float's repr, None empty, anything else its str
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def runlog_to_csv(log: RunLog, path: str) -> None:
    """One row per step with the pinned column set; each float is its repr
    and each None (a loss before the first update) an empty cell."""
    _write(path, RUNLOG_COLUMNS, (
        map(_cell, (t, *s, a, r, eps, q, agent_loss, fm_loss))
        for t, s, a, r, eps, q, agent_loss, fm_loss in zip(
            log.t, log.states, log.actions, log.rewards, log.epsilons, log.max_q,
            log.agent_loss, log.fm_loss)))


def runlog_from_csv(path: str, method: str = "", seed: int = -1) -> RunLog:
    """Rebuild the per-step record from a CSV written by :func:`runlog_to_csv`.

    A row without 11 cells or a non-numeric cell raises :class:`DomainError`
    and a NaN/inf cell :class:`NumericError`, each naming the path and line;
    empty loss cells read as None.  A file with no rows raises
    :class:`DomainError` naming the path.
    """
    rows = []
    try:
        for row in _records(path, RUNLOG_COLUMNS, "run-log"):
            rows.append(row)
    except csv.Error:
        _check_runlog_rows(path, rows)      # a bad row above the parse error comes first
        raise
    if not rows:
        raise DomainError(f"{path}: the run log holds no steps")
    cells = [row for _, row in rows]
    if all(len(row) == len(RUNLOG_COLUMNS) for row in cells):
        columns = dict(zip(RUNLOG_COLUMNS, zip(*cells)))
        try:
            t, actions = list(map(int, columns["t"])), list(map(int, columns["action"]))
            v = {k: [float(c) if c else None for c in col] if k in _LOSSES
                 else list(map(float, col)) for k, col in columns.items()}
        except ValueError:
            pass
        else:
            # a None loss reads as NaN here, so its empty cell excuses it
            finite = np.isfinite(np.array(list(v.values()), dtype=np.float64))
            if (finite | (np.array(list(columns.values())) == "")).all():
                states = list(map(ProcessorState, v["fps"], v["freq"], v["power"], v["temp"]))
                return RunLog(method=method, seed=seed, config={}, t=t, states=states,
                              actions=actions, rewards=v["reward"], epsilons=v["epsilon"],
                              max_q=v["max_q"], agent_loss=v["agent_loss"],
                              fm_loss=v["fm_loss"])
    _check_runlog_rows(path, rows)
    raise AssertionError(f"{path}: the run-log columns and rows disagree")


def _check_runlog_rows(path: str, rows: list[tuple[int, list[str]]]) -> None:
    """Raise the error of the first bad row, naming its line, as a row-at-a-time
    read would."""
    for line, cells in rows:
        where = f"{path} line {line}"
        if len(cells) != len(RUNLOG_COLUMNS):
            raise DomainError(
                f"{where}: expected {len(RUNLOG_COLUMNS)} cells, got {len(cells)}")
        row = dict(zip(RUNLOG_COLUMNS, cells))
        try:
            int(row["t"]), int(row["action"])
            v = {k: float(c) if c or k not in _LOSSES else None for k, c in row.items()}
        except ValueError as exc:
            raise DomainError(f"{where}: {exc}") from None
        bad = [k for k, x in v.items() if x is not None and not np.isfinite(x)]
        if bad:
            raise NumericError(f"{where}: NaN/inf in run-log column(s) {', '.join(bad)}")
