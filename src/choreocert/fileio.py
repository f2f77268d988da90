"""Atomic file output and the flat key=value config format."""

from __future__ import annotations

import os

# O_EXCL: a name already taken raises FileExistsError, so no file is reused.
_CREATE = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)


def _create_temp(directory: str) -> tuple[int, str]:
    """(fd, path) of a new hidden file in ``directory``, open for writing.

    It is created with mode 0o666 and the kernel applies the process umask,
    the mode open(path, "w") gives a new file; the umask is never read or set.
    """
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        try:
            return os.open(tmp, _CREATE, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename.

    The file gets the mode a plain open(path, "w") would create (see
    ``_create_temp``).
    """
    fd, tmp = _create_temp(os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_config(path: str) -> dict[str, str]:
    """Flat key=value file mirroring the CLI flags; # starts a comment."""
    out: dict[str, str] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
