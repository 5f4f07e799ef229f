"""The CLI's table writer; only its column path (_blocks) loads numpy, when it runs."""

import itertools
import json
import sys
from typing import Callable, NamedTuple

# Rows per block of the table writer; a grid block is joined from pieces, not one %-operation.
ROWS_PER_CHUNK = 4096


class _TextFormat(NamedTuple):
    """How a table format spells floats, rows and the text around them.

    A table's text is head(names), then, if it has rows, opening, the rows joined
    by separator, and closing; a table without rows has empty after its head.
    """

    spec: str  # the %-conversion of one float
    numbers: Callable[[str], str]  # respells the formatted floats of a text
    head: Callable[[list], str]  # the text before the rows, from the column names
    row: Callable[[list], str]  # one row, from its cells' texts or %-conversions
    separator: str
    opening: str
    closing: str
    empty: str


FORMATS = {
    "csv": _TextFormat(
        spec="%.17g",
        numbers=lambda text: text,
        head=lambda names: ",".join(names) + "\n",
        row=",".join,
        separator="\n",
        opening="",
        closing="\n",
        empty="",
    ),
    # json.dumps's own "columns" entry, then "rows", which sort_keys puts after it.
    "json": _TextFormat(
        spec="%r",
        # float.__repr__ writes nan, inf and -inf where JSON has NaN, Infinity and -Infinity.
        numbers=lambda text: text.replace("nan", "NaN").replace("inf", "Infinity"),
        head=lambda names: json.dumps({"columns": names}, indent=2)[: -len("\n}")]
        + ',\n  "rows": [',
        row=lambda cells: "    [\n      " + ",\n      ".join(cells) + "\n    ]",
        separator=",\n",
        opening="\n",
        closing="\n  ]\n}\n",
        empty="]\n}\n",
    ),
}


def write_table(path: str | None, table: dict, fmt: str):
    """Write named float columns as CSV or JSON {"columns", "rows"}, a block of rows at a time.

    The columns are of equal length, one row per index, or the table is a grid: its last
    column is an iterator of rows, one per value of the first column, each a list of one
    value per value of the second, and each cell is a row (first[i], second[j], row_i[j]),
    first axis major. A grid's axes and rows hold Python floats, and writing one needs no
    numpy. CSV is a header line, then one line per row with every value as %.17g. JSON is
    byte for byte json.dumps({"columns": ..., "rows": ...}, sort_keys=True, indent=2) plus
    a newline.
    """
    form = FORMATS[fmt]
    columns = list(table.values())
    if iter(columns[-1]) is columns[-1]:
        blocks = _grid_blocks(form, *columns)
    else:
        blocks = _blocks(form, columns)
    _write_text(path, _table_text(form, list(table), blocks))


def _table_text(form: _TextFormat, names: list, blocks):
    """The text of a table: its head, then the texts of its blocks of rows."""
    yield form.head(names)
    joint = None
    for text in blocks:
        yield form.opening if joint is None else joint
        yield text
        joint = form.separator
    yield form.empty if joint is None else form.closing


def _texts(form: _TextFormat, values: list) -> list:
    """The texts of a list of Python floats, all formatted by one %-operation."""
    return form.numbers((form.spec + "\n") * len(values) % tuple(values)).split("\n")[:-1]


def _grid_blocks(form: _TextFormat, thetas, phis, rows):
    """The texts of the rows (theta_i, phi_j, row_i[j]), theta-major, a block of cells each.

    A block is as many whole grid rows as fit in ROWS_PER_CHUNK rows, and holds that many
    grid rows at a time from rows. The phi texts are formatted once per table into the
    pieces of a block, each theta's once per grid row. A grid row wider than
    ROWS_PER_CHUNK is written in pieces of ROWS_PER_CHUNK cells, each with the pieces of
    its own phis.
    """
    n_phi = len(phis)
    if n_phi > ROWS_PER_CHUNK:
        for theta, row in zip(thetas, rows):
            for start in range(0, n_phi, ROWS_PER_CHUNK):
                cells = slice(start, start + ROWS_PER_CHUNK)
                yield _grid_text(form, _grid_pieces(form, phis[cells], 1), [theta], [row[cells]])
        return
    height = ROWS_PER_CHUNK // n_phi
    pieces, thetas = _grid_pieces(form, phis, height), iter(thetas)
    while block := list(itertools.islice(rows, height)):
        yield _grid_text(form, pieces, list(itertools.islice(thetas, len(block))), block)


def _grid_pieces(form: _TextFormat, phis, height: int) -> list:
    """The text of height grid rows with the phi texts in place, split where theta and F go.

    Its pieces alternate with the cells' texts, theta then F: pieces[0], theta_0,
    pieces[1], F_0, pieces[2], theta_1, and so on.
    """
    row = form.separator.join([form.row(["\0", form.spec, "\0"])] * len(phis)) % tuple(phis)
    return form.numbers(form.separator.join([row] * height)).split("\0")


def _grid_text(form: _TextFormat, pieces: list, thetas: list, rows: list) -> str:
    """The text of the grid rows (theta, F row) of a block, written into pieces.

    The thetas and F values are formatted by one _texts call, F once per half row where
    every row's two halves hold the same floats bit for bit, as the phi and phi + pi
    halves of survival_functional_rows do for every even n_phi. Halves that compare equal
    and hold no zero are equal bit for bit; others are formatted whole, so 0.0 and -0.0
    stay apart.
    """
    width, half = len(rows[0]), len(rows[0]) // 2
    firsts = [row[:half] for row in rows]
    same = firsts == [row[half:] for row in rows] and 0.0 not in itertools.chain(*firsts)
    texts = _texts(form, [*thetas, *itertools.chain.from_iterable(firsts if same else rows)])
    theta_texts, cells = texts[: len(rows)], texts[len(rows) :]
    if same:
        halves = (cells[start : start + half] for start in range(0, len(cells), half))
        cells = list(itertools.chain.from_iterable(part * 2 for part in halves))
    text = [""] * (4 * len(cells) + 1)
    # A last block of fewer rows takes the pieces of its rows, then the text that ends a row.
    text[::2] = pieces[: 2 * len(cells)] + pieces[-1:]
    text[1::4] = list(itertools.chain.from_iterable([theta] * width for theta in theta_texts))
    text[3::4] = cells
    return "".join(text)


def _blocks(form: _TextFormat, columns: list):
    """The texts of the rows of equal-length columns, one block of ROWS_PER_CHUNK rows per text.

    Each column is taken as a float64 array. A column whose values in a block form at most
    half as many runs of equal neighbours as the block has rows is formatted once per run,
    by _texts, and spliced in with %s; the floats of any other column go to the format's
    spec as they are. Neighbours are equal when their bit patterns are, so 0.0 and -0.0
    stay apart. Runs are what zeno's survival columns repeat, since survival never
    increases. Without them, zeno --set count=2**22 --set n_traj=1000 took 16.5-22.3 s
    instead of 13.4-18.6 s as CSV and 25.4-31.0 s instead of 15.0-22.6 s as JSON, end to
    end on 2 shared vCPUs (four runs each).
    """
    import numpy as np

    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    width = len(columns)
    for start in range(0, len(columns[0]), ROWS_PER_CHUNK):
        blocks = [column[start : start + ROWS_PER_CHUNK] for column in columns]
        specs, values = [], [None] * (len(blocks[0]) * width)
        for index, block in enumerate(blocks):
            bits = block.view(np.int64)
            starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
            if 2 * len(starts) <= len(block):
                lengths = np.diff(starts, append=len(block))
                texts = np.array(_texts(form, block[starts].tolist()), dtype=object)
                values[index::width] = np.repeat(texts, lengths).tolist()
                specs.append("%s")
            else:
                values[index::width] = block.tolist()
                specs.append(form.spec)
        rows = form.separator.join([form.row(specs)] * len(blocks[0]))
        yield form.numbers(rows % tuple(values))


def write_json(path: str | None, obj):
    """Write obj to path, or to stdout, as sorted JSON indented by 2 with a newline."""
    _write_text(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])


def _write_text(path: str | None, parts):
    """Write an iterable of strings to path, or to stdout, flushed, when path is None."""
    try:
        if path is None:
            if sys.stdout is None:  # the process started without one, as under >&-
                raise OSError("not open")
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(parts)
    except OSError as exc:
        raise IOError(f"cannot write {'stdout' if path is None else path}: {exc}")
