"""Atomic file output and the flat key=value config format."""

from __future__ import annotations

import os
import tempfile


def _creation_mode() -> int:
    """0o666 less the process umask: the mode open(path, "w") gives a new file."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename.

    The file gets the mode a plain open(path, "w") would create, not the
    0o600 of the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            os.chmod(tmp, _creation_mode())
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
