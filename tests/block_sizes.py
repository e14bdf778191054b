"""Blocks for the tests that look at them: block sizes for the tests that
compare runs across them (single-row blocks, blocks of 7 and 128 rows, several
with the last one partial, and the default cell budget, one block at desk
scale), and ``spy_blocks``, which records the rows each block solver gets."""

from gebs import engine


def fixed_rows(rows):
    """A stand-in for ``engine.block_rows`` that gives every width ``rows`` rows."""
    return lambda width: rows


BLOCK_ROWS = (fixed_rows(1), fixed_rows(7), fixed_rows(128), engine.block_rows)


def spy_blocks(monkeypatch, *modules):
    """The list every block that ``resample``, called from any of
    ``modules``, hands to its block solver is appended to, as handed over;
    ``np.concatenate`` of it gives a run's rows in draw order."""
    blocks, resample = [], engine.resample

    def spy(beta_hat, n_boot, seed, draw, solve_block, *args, **kwargs):
        def recording(R):
            blocks.append(R)
            return solve_block(R)
        return resample(beta_hat, n_boot, seed, draw, recording, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "resample", spy)
    return blocks
