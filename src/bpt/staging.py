"""Output written whole or not at all.

`staged_files` stages a group of output files under temporary names
(".<name>.tmp" beside each target) and renames them to their own names, in
the order they were staged, only once the whole group is written;
`remove_unlisted` then removes what an earlier run left of the set that the
group replaces. This module imports nothing but the standard library, so
commands that must not load numpy (`filter`, `shard`, `build-vocab`,
`tokenize`) can use it as the instance writer does.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
from pathlib import Path
from typing import Callable, Container, Iterator

# The number in the name of part k of a set of files, as f"{k:05d}" writes
# it: five digits, or more without a leading zero.
PART_NUMBER = r"(?:[0-9]{5}|[1-9][0-9]{5,})"


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

    Only a target that does not exist, or is itself a regular file, is
    staged. Any other target, such as a FIFO, /dev/null or a symlink (to a
    regular file too, as /dev/stdout may be), is returned as it is and
    written in place, through the link: a rename would put a regular file
    where it was. The check uses `lstat`, so it does not follow links.

    Staging one path twice (compared by `os.path.abspath`) raises
    ValueError in the block, which then fails as on any error, before one
    file could replace the other.
    """
    targets: list[Path] = []

    def stage(target: "str | Path") -> Path:
        target = Path(target)
        if os.path.lexists(target) and not stat.S_ISREG(target.lstat().st_mode):
            return target
        if any(os.path.abspath(target) == os.path.abspath(t) for t in targets):
            raise ValueError(f"{target} is staged twice in one group")
        targets.append(target)
        return _temporary(target)

    try:
        yield stage
    except BaseException:
        for target in targets:
            _temporary(target).unlink(missing_ok=True)
        raise
    for target in targets:
        os.replace(_temporary(target), target)


def remove_unlisted(directory: Path, pattern: str, listed: Container[str]) -> None:
    """Remove each regular file in `directory` whose name matches the regular
    expression `pattern` in full and is not `listed`: what an earlier run
    left of a set of files that this run's set, just renamed into place,
    replaces. Anything else of that name, a symlink included, is left alone
    (decided by `lstat`)."""
    for path in directory.iterdir():
        if (path.name not in listed and re.fullmatch(pattern, path.name)
                and stat.S_ISREG(path.lstat().st_mode)):
            path.unlink()
