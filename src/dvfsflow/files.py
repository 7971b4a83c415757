"""The files of the CLI: CSV batches of transition rows, CSV run logs and JSON.

``run`` writes the real memory M, the last synthetic batch of M' and the run
log of each run; ``gen`` writes a batch, and ``eval`` and ``report`` read
them back.  This module alone holds their format, which is what its writers
write and nothing more:

- a header line of the column names;
- then one line per row of 11 cells joined by commas, each a float's ``repr``
  or an int's ``str``, so made of the characters ``0-9 + - . a e f i n``
  only; a run log's loss cell is empty before the first update (None);
- each line ends in CRLF; a line ended by LF or CR reads too.

These are the bytes ``csv.writer`` writes for such rows; here each file is
built as one string and written at once.  Each kind has one reader, a fast
path and, when that fails, one walk over the lines that raises the first bad
line's error.  Both fast paths start with one ``bytes.translate`` that finds
any other character in the body, so a quoted, padded or ``1_000`` cell, which
``float`` would take, is an input error.  A batch is then one ``np.loadtxt``
over its lines; a run log splits each line on commas and converts a column at
a time.  A reader holds the file's lines, never its whole text beside them,
which keeps ``report``'s peak memory down.

Only the CLI and its report import this module, so ``import dvfsflow`` does
not load it.  ``flow.save_batch_csv``, ``flow.load_batch_csv``,
``orchestrate.runlog_to_csv`` and ``orchestrate.runlog_from_csv`` call the
functions of the same names here; they stay only because the benchmark in
``perfbench/`` imports them from there (ROADMAP item 6).
"""

from __future__ import annotations

import json
from typing import Iterable, NoReturn

import numpy as np

from .errors import DomainError, NumericError
from .flow import TRANSITION_DIM, TRANSITION_LABELS, check_finite
from .orchestrate import RUNLOG_COLUMNS, RunLog
from .simenv import ProcessorState

_CELL_CHARS = "0123456789+-.aefin"          # of a float's repr or an int's str
_BODY_BYTES = (_CELL_CHARS + ",\r\n").encode()
_LOSSES = ("agent_loss", "fm_loss")         # empty before the first update


def _write(path: str, header: list[str], rows: Iterable[Iterable[str]]) -> None:
    text = "\r\n".join([",".join(header), *map(",".join, rows)]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def write_json(payload: dict, path: str) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _lines_after_header(path: str, header: list[str], what: str) -> tuple[list[str], bool]:
    """The lines after ``header`` in ``path``, and whether they hold only cell
    characters, commas and line ends; another first line raises
    :class:`DomainError`."""
    head = ",".join(header)
    with open(path, "rb") as fh:
        rest = fh.read().translate(None, _BODY_BYTES)
    # universal newlines: a line ended by CRLF, LF or CR reads ending in LF
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        if fh.readline() not in (head + "\n", head):
            raise DomainError(f"unexpected {what} header in {path}")
        # past the header, whose own other characters are all that may be left
        return fh.readlines(), rest == head.encode().translate(None, _BODY_BYTES)


def _raise_first_bad_line(path: str, lines: list[str], columns: list[str], ints=(),
                          losses=(), finite: bool = False) -> NoReturn:
    """Raise the error of the first of ``lines``, the lines after the header,
    that breaks the format.  A line is checked for its cell count, then by
    ``int`` on the ``ints`` columns and ``float`` on every cell but an empty
    one of ``losses``, then for a character no writer writes, then, when
    ``finite``, for a NaN or inf."""
    for number, line in enumerate(lines, 2):
        where = f"{path} line {number}"
        cells = line.rstrip("\n").split(",") if line != "\n" else []   # a blank line has none
        if len(cells) != len(columns):
            raise DomainError(f"{where}: expected {len(columns)} cells, got {len(cells)}")
        row = dict(zip(columns, cells))
        try:
            for k in ints:
                int(row[k])
            values = {k: float(c) for k, c in row.items() if c or k not in losses}
        except ValueError as exc:
            raise DomainError(f"{where}: {exc}") from None
        odd = [c for c in cells if c.strip(_CELL_CHARS)]
        if odd:
            raise DomainError(f"{where}: cell {odd[0]!r} holds a character outside "
                              f"{_CELL_CHARS!r}")
        bad = [k for k, x in values.items() if not np.isfinite(x)] if finite else []
        if bad:
            raise NumericError(f"{where}: NaN/inf in run-log column(s) {', '.join(bad)}")
    raise AssertionError(f"{path}: the fast read failed, yet every line is well formed")


# ---------------------------------------------------------------- batches

def save_batch_csv(matrix: np.ndarray, path: str) -> None:
    """Write an (n, 11) batch with the canonical column header."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != TRANSITION_DIM:
        raise DomainError(f"batch must have {TRANSITION_DIM} columns")
    _write(path, TRANSITION_LABELS, (map(repr, row) for row in matrix.tolist()))


def load_batch_csv(path: str) -> np.ndarray:
    """Read a batch written by :func:`save_batch_csv`.  A wrong header, a row
    without 11 cells or a cell that is not a number as the writer writes one
    raises :class:`DomainError` naming the path and line."""
    body, written = _lines_after_header(path, TRANSITION_LABELS, "column")
    if not body:
        return np.empty((0, TRANSITION_DIM))
    if written and "\n" not in body:        # np.loadtxt skips a blank line
        try:
            batch = np.loadtxt(body, dtype=np.float64, delimiter=",", ndmin=2)
        except ValueError:
            pass
        else:
            if batch.shape == (len(body), TRANSITION_DIM):
                return batch
    _raise_first_bad_line(path, body, TRANSITION_LABELS)


def load_finite_batch(path: str, allow_empty: bool = False) -> np.ndarray:
    """A batch CSV; a NaN/inf cell raises NumericError naming file and column(s),
    and a file without rows DomainError naming the file, unless ``allow_empty``."""
    batch = load_batch_csv(path)
    if not (len(batch) or allow_empty):
        raise DomainError(f"{path}: the batch holds no transition rows")
    check_finite(batch, path)
    return batch


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

    A row without 11 cells or a cell that is not a number as the writer
    writes one raises :class:`DomainError` and a NaN/inf cell
    :class:`NumericError`, each naming the path and line; empty loss cells
    read as None.  A file with no rows raises :class:`DomainError` naming the
    path.
    """
    body, written = _lines_after_header(path, RUNLOG_COLUMNS, "run-log")
    if not body:
        raise DomainError(f"{path}: the run log holds no steps")
    rows = [line.rstrip("\n").split(",") for line in body]
    if written and set(map(len, rows)) == {len(RUNLOG_COLUMNS)}:
        columns = dict(zip(RUNLOG_COLUMNS, zip(*rows)))
        try:
            t, actions = list(map(int, columns["t"])), list(map(int, columns["action"]))
            v = {k: [float(c) if c else None for c in col] if k in _LOSSES
                 else list(map(float, col)) for k, col in columns.items()}
        except ValueError:
            pass
        else:
            # a None loss reads as NaN here, so the empty cells are the only NaN allowed
            values = np.array(list(v.values()), dtype=np.float64)
            if np.count_nonzero(~np.isfinite(values)) == sum(columns[k].count("")
                                                               for k in _LOSSES):
                states = list(map(ProcessorState, v["fps"], v["freq"], v["power"], v["temp"]))
                return RunLog(method=method, seed=seed, config={}, t=t, states=states,
                              actions=actions, rewards=v["reward"], epsilons=v["epsilon"],
                              max_q=v["max_q"], agent_loss=v["agent_loss"],
                              fm_loss=v["fm_loss"])
    _raise_first_bad_line(path, body, RUNLOG_COLUMNS, ("t", "action"), _LOSSES, finite=True)
