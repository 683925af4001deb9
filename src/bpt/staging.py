"""Output written whole or not at all.

`staged_files` stages a group of output files under temporary names
(".<name>.tmp" beside each target) and renames them to their own names, in
the order they were staged, only once the whole group is written. This
module imports nothing but the standard library, so commands that must not
load numpy (`filter`, `shard`, `build-vocab`) can use it as the instance
writer does.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Callable, Iterator


def _temporary(target: "str | Path") -> Path:
    """The name a staged `target` is written under until its group is whole."""
    target = Path(target)
    return target.with_name(f".{target.name}.tmp")


@contextlib.contextmanager
def staged_files() -> Iterator[Callable[["str | Path"], Path]]:
    """Yield `stage(target)`, which adds `target` to the group and returns
    the temporary path to write it under.

    When the block ends normally, each temporary is renamed to its target in
    the order staged, so the file staged last (a manifest, say) appears
    last. When it raises, every temporary is removed: the failed run leaves
    no file that looks whole, and earlier files at the targets stay as they
    were. A target staged but never written is skipped on removal.
    """
    targets: list[Path] = []

    def stage(target: "str | Path") -> Path:
        targets.append(Path(target))
        return _temporary(target)

    try:
        yield stage
    except BaseException:
        for target in targets:
            _temporary(target).unlink(missing_ok=True)
        raise
    for target in targets:
        os.replace(_temporary(target), target)
