"""The CSV files of the CLI: batches of transition rows and run logs.

``run`` writes the real memory M, the last synthetic batch of M' and the run
log of each run; ``gen`` writes a batch, and ``eval`` and ``report`` read
them back.  A file is a header row of the column names, then one line per row
with each float as its ``repr`` and each int as its ``str``, cells joined by
commas and lines ended by CRLF.  A run log's empty cell is a loss before the
first update (None).  These are the bytes ``csv.writer`` writes for such rows;
here each file is built as one string and written at once.

A reader takes the file's lines and tries an array-at-a-time pass first: one
``np.loadtxt`` over a batch's lines, or, for a run log, one ``int``/``float``
conversion per column and one finiteness check.  It reads lines, never the
whole text beside them, which keeps ``report``'s peak memory below the csv
reader's.  When that pass cannot vouch
for the file, the row-at-a-time reader of the same name in ``flow`` or
``orchestrate`` reads it again with the ``csv`` module and returns its rows or
raises its error, so a file reads the same either way.  The fast pass stands
aside on:

- a line that is not exactly the header, a file without rows, and a blank
  line (``np.loadtxt`` skips one; ``csv`` reports it as a row of 0 cells);
- a line longer than ``csv.field_size_limit()``, on which ``csv`` fails;
- a character from ``\\x1c`` to ``\\x1f`` in a batch: ``np.loadtxt`` strips it
  as white space around a number and ``float`` does not;
- any cell its conversion rejects: a quoted cell, ``1_000`` (which ``float``
  takes and ``np.loadtxt`` does not), a row of 10 or 12 cells, a NaN/inf in a
  run log.

Only the CLI imports this module, so ``import dvfsflow`` does not load it.
The row-at-a-time ``flow.save_batch_csv``, ``flow.load_batch_csv``,
``orchestrate.runlog_to_csv`` and ``orchestrate.runlog_from_csv`` write and
read the same bytes.  They stay because the benchmark in ``perfbench/`` reads
and writes its files with them; once it uses this module, their readers' line
pass moves here (ROADMAP item 6).
"""

from __future__ import annotations

import csv
from typing import Iterable, Optional

import numpy as np

from . import flow, orchestrate
from .errors import DomainError
from .flow import TRANSITION_DIM, TRANSITION_LABELS
from .orchestrate import RUNLOG_COLUMNS, RunLog
from .simenv import ProcessorState

_LOSSES = ("agent_loss", "fm_loss")         # empty before the first update
_STRIPPED_BY_LOADTXT = b"\x1c\x1d\x1e\x1f"  # white space to np.loadtxt, not to float


def _write(path: str, header: list[str], rows: Iterable[Iterable[str]]) -> None:
    text = "\r\n".join([",".join(header), *map(",".join, rows)]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _lines(path: str) -> list[str]:
    # universal newlines, as the csv readers have always read these files
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return fh.readlines()


def _holds(path: str, chars: bytes) -> bool:
    """Whether the file holds one of ``chars``, all below 0x80: in UTF-8 such a
    byte is that character and no part of another."""
    with open(path, "rb") as fh:
        data = fh.read()
    return any(c in data for c in chars)


def _body(lines: list[str], header: list[str]) -> Optional[list[str]]:
    """The row lines, each ending in its newline but the last maybe, when the
    fast pass may read them, else None."""
    body = lines[1:]
    if (lines[:1] != [",".join(header) + "\n"] or not body or "\n" in body
            or max(map(len, body)) > csv.field_size_limit()):
        return None
    return body


# ---------------------------------------------------------------- batches

def save_batch_csv(matrix: np.ndarray, path: str) -> None:
    """Write an (n, 11) batch with the canonical column header."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != TRANSITION_DIM:
        raise DomainError(f"batch must have {TRANSITION_DIM} columns")
    _write(path, TRANSITION_LABELS, (map(repr, row) for row in matrix.tolist()))


def load_batch_csv(path: str) -> np.ndarray:
    """Read a batch written by :func:`save_batch_csv`.  A wrong header, a row
    without 11 cells or a cell that is not a number raises
    :class:`DomainError` naming the path and line."""
    stray = _holds(path, _STRIPPED_BY_LOADTXT)
    body = None if stray else _body(_lines(path), TRANSITION_LABELS)
    if body is not None:
        try:
            batch = np.loadtxt(body, dtype=np.float64, delimiter=",", comments=None,
                               quotechar=None, ndmin=2)
        except ValueError:
            pass
        else:
            if batch.shape == (len(body), TRANSITION_DIM):
                return batch
    return flow.load_batch_csv(path)


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
    body = _body(_lines(path), RUNLOG_COLUMNS)
    rows = [line.rstrip("\n").split(",") for line in body] if body is not None else []
    if rows and all(len(row) == len(RUNLOG_COLUMNS) for row in rows):
        cells = dict(zip(RUNLOG_COLUMNS, zip(*rows)))
        try:
            t, actions = list(map(int, cells["t"])), list(map(int, cells["action"]))
            v = {k: [float(c) if c else None for c in col] if k in _LOSSES
                 else list(map(float, col)) for k, col in cells.items()}
        except ValueError:
            pass
        else:
            # a None loss reads as NaN here, so its empty cell excuses it
            finite = np.isfinite(np.array(list(v.values()), dtype=np.float64))
            if (finite | (np.array(list(cells.values())) == "")).all():
                states = list(map(ProcessorState, v["fps"], v["freq"], v["power"], v["temp"]))
                return RunLog(method=method, seed=seed, config={}, t=t, states=states,
                              actions=actions, rewards=v["reward"], epsilons=v["epsilon"],
                              max_q=v["max_q"], agent_loss=v["agent_loss"],
                              fm_loss=v["fm_loss"])
    return orchestrate.runlog_from_csv(path, method, seed)
