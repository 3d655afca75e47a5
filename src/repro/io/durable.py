"""The one way a file of a run directory is written and made visible.

Every writer of a run directory — the columnar feed partition, the
store's tables, ``config.pkl`` and ``manifest.json``, analysis cache
entries, checkpoint days and the experiment grid's ``cell.json`` —
writes its bytes under the staging name :func:`staged` gives and makes
them visible with :func:`publish`, one rename.  A reader therefore
sees a file's old bytes or its new ones, never a torn write, and a
crash leaves at most a ``*.tmp`` staging file behind.  :func:`writing`
wraps a whole write: stage, write, publish, and unlink the staging
file if the write raises.

The rename is atomic against a crashing *process*.  Surviving an
operating-system crash also needs the staged file and its directory
synced around the rename; those syncs belong in :func:`publish`, the
single place every write passes through.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from pathlib import Path

__all__ = ["publish", "staged", "writing"]

_SERIALS = itertools.count()


def staged(final: Path) -> Path:
    """A fresh staging name of ``final``: ``<name>.<pid>.<tid>.<n>.tmp``.

    It sits next to ``final`` (so the rename never crosses a file
    system), and no two calls share one: ``n`` counts the calls of the
    process.  So two processes, two threads, or two writers of one
    thread (a run still streaming into its staged files while another
    save of the same directory runs) never write into each other's
    staging file.
    """
    final = Path(final)
    return final.with_name(
        f"{final.name}.{os.getpid()}.{threading.get_ident()}."
        f"{next(_SERIALS)}.tmp"
    )


def publish(staging: Path, final: Path) -> None:
    """Make the bytes written to ``staging`` visible as ``final``."""
    os.replace(staging, final)


@contextmanager
def writing(final: Path):
    """Yield the staging path of ``final``; publish it when the block ends.

    When the block (or the publish) raises, the staging file is
    unlinked and ``final`` keeps its previous bytes.
    """
    staging = staged(final)
    try:
        yield staging
        publish(staging, final)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
