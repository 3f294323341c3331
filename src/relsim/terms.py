"""The default table of 64 joining terms, shipped as data.

The first entry is the empty term (the two words are simply adjacent).
The table is overridable by pointing at another file of the same shape,
one term per line, blank line = empty term. Every term must follow the
phrase wildcard grammar (index.parse_units); a standalone '*' may come
first or last, since a member stands on each side of the term.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

from .errors import DataFormatError, PhraseSyntaxError
from .fileio import read_utf8
from .index import parse_units

TERM_COUNT = 64


def _parse(text: str, source: str) -> tuple[str, ...]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]  # trailing newline
    terms = tuple(line.strip() for line in lines)
    if len(terms) != TERM_COUNT:
        raise DataFormatError(
            f"{source}: joining-term table must have exactly {TERM_COUNT} entries, got {len(terms)}"
        )
    for lineno, term in enumerate(terms, 1):
        try:
            parse_units(term)
        except PhraseSyntaxError as e:
            raise DataFormatError(f"{source}:{lineno}: bad joining term {term!r}: {e}") \
                from None
    return terms


def default_joining_terms() -> tuple[str, ...]:
    text = resources.files("relsim.data").joinpath("joining_terms.txt").read_text("utf-8")
    return _parse(text, "relsim/data/joining_terms.txt")


def load_joining_terms(path: str | Path) -> tuple[str, ...]:
    return _parse(read_utf8(path), str(path))


def terms_checksum(terms: tuple[str, ...] | list[str]) -> str:
    return hashlib.sha256("\n".join(terms).encode("utf-8")).hexdigest()
