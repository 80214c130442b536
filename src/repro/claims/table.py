"""Tables as data, a claim as a row, and the one markdown renderer.

A measurement returns :class:`Table` objects holding the raw values; a
claim's check reads them back by row key and column header, and the same
objects render as the markdown ``python -m repro claims`` prints.  Nothing
is asserted on a formatted string and nothing is printed that a check
cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    """A markdown table of already formatted cells (``|`` escaped)."""
    lines = [headers, ["---"] * len(headers), *rows]
    return "\n".join(
        "| " + " | ".join(c.replace("|", "\\|") for c in line) + " |"
        for line in lines
    )


@dataclass
class Table:
    """One measured table.  A column is its header, or ``(header, spec)``
    with a :func:`format` spec applied to every cell that is not already a
    string; cells without a spec render through :func:`str`."""

    title: str
    columns: list
    rows: list[list]

    def __post_init__(self) -> None:
        self.columns = [
            column if isinstance(column, tuple) else (column, None)
            for column in self.columns
        ]

    @property
    def headers(self) -> list[str]:
        return [header for header, _spec in self.columns]

    def records(self) -> list[dict]:
        """Every row as a dict by header."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def row(self, *key) -> dict:
        """The row whose leading cells equal ``key``, by header."""
        for row in self.rows:
            if tuple(row[: len(key)]) == key:
                return dict(zip(self.headers, row))
        raise KeyError(f"{self.title}: no row {key}")

    def column(self, header: str) -> list:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def cells(self) -> list[list[str]]:
        """Every row as it prints."""
        return [
            [
                str(cell) if spec is None or isinstance(cell, str)
                else format(cell, spec)
                for cell, (_header, spec) in zip(row, self.columns)
            ]
            for row in self.rows
        ]

    def markdown(self) -> str:
        return f"**{self.title}**\n\n" + markdown_table(
            self.headers, self.cells()
        )


@dataclass(frozen=True)
class Claim:
    """One figure or quantified claim of the paper (DESIGN.md section 4).

    ``parts`` are measurement functions ``backend -> [Table, ...]``;
    ``check`` takes the tables of all parts, in order, and raises
    ``AssertionError`` where the measured shape is not the paper's.
    """

    id: str
    #: The paper artifact: "Figure 1", "§2.2 claim", "ablation", ...
    anchor: str
    #: What the row shows, one cell of DESIGN.md's index.
    shows: str
    #: The modules measured, as DESIGN.md's index prints them.
    modules: str
    #: The paper's words (or, for an ablation or extension, the mechanism)
    #: the measurement holds the code to.
    paper_says: str
    parts: tuple[Callable[[str], list[Table]], ...]
    check: Callable[[list[Table]], None]

    def measure(self, backend: str = "aurora") -> list[Table]:
        return [table for part in self.parts for table in part(backend)]

    def heading(self) -> str:
        """Id, anchor, what it shows, and the paper's words, as markdown."""
        quote = "\n".join(f"> {line}" for line in self.paper_says.splitlines())
        return (f"## {self.id} -- {self.anchor}\n\n"
                f"{self.shows} ({self.modules})\n\n{quote}")
