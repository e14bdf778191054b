"""Block sizes for the tests that compare runs across them: single-row
blocks, blocks of 7 and 128 rows (several, the last one partial) and the
default cell budget, one block at desk scale."""

from gebs import engine


def fixed_rows(rows):
    """A stand-in for ``engine.block_rows`` that gives every width ``rows`` rows."""
    return lambda width: rows


BLOCK_ROWS = (fixed_rows(1), fixed_rows(7), fixed_rows(128), engine.block_rows)
